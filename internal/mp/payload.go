package mp

import (
	"fmt"
	"math/bits"
	"sync"
)

// Pooled collective payloads. Every message of the dense and adaptive
// wires is a copy of the sender's span, so that the sender may go on
// reusing its vector; the copies come from pools and go back to them
// once consumed, so a build that reduces the same flush buffer thousands
// of times allocates its messages once, not once per send.
//
// Ownership: a pooled payload belongs to the sender until Send queues it
// and then to the one receiver that takes it, whose fold or recv returns
// it to its pool as soon as the span is combined or replaced. It is taken
// at most once: the mailbox rejects a duplicated message by its sequence
// number before queueing it (mailbox.put). A dropped payload, or one
// purged at a recovery epoch, is never taken and is left to the GC.

// maxPayloadClass bounds the pooled capacity at 2^26 elements; larger
// payloads are plain allocations.
const maxPayloadClass = 26

// payloadPools holds *[]T buffers by element type (byte, int32, int64,
// float64) and by capacity class: a buffer of class k has capacity 2^k,
// so it serves any length in (2^(k-1), 2^k].
var payloadPools [4][maxPayloadClass + 1]sync.Pool

// payloadPool is the pool of T buffers of capacity class class, or nil
// when T is a named element type or the class is too large to pool.
func payloadPool[T Elem](class int) *sync.Pool {
	if class > maxPayloadClass {
		return nil
	}
	var z T
	switch any(z).(type) {
	case byte:
		return &payloadPools[0][class]
	case int32:
		return &payloadPools[1][class]
	case int64:
		return &payloadPools[2][class]
	case float64:
		return &payloadPools[3][class]
	}
	return nil
}

// copyPayload returns a payload holding a copy of x (nil for an empty x).
// A recycled buffer is not zeroed first: the copy overwrites every
// element the payload exposes.
func copyPayload[T Elem](x []T) *[]T {
	if len(x) == 0 {
		return nil
	}
	class := bits.Len(uint(len(x) - 1))
	pool := payloadPool[T](class)
	if pool == nil {
		cp := append([]T(nil), x...)
		return &cp
	}
	p, _ := pool.Get().(*[]T)
	if p == nil {
		buf := make([]T, 0, 1<<class)
		p = &buf
	}
	*p = append((*p)[:0], x...)
	return p
}

// releasePayload hands a consumed payload back to its pool; the caller
// must not touch it afterwards.
func releasePayload[T Elem](p *[]T) {
	if p == nil {
		return
	}
	if pool := payloadPool[T](bits.Len(uint(cap(*p) - 1))); pool != nil {
		pool.Put(p)
	}
}

// elems is the payload's elements (nil for the empty payload).
func elems[T Elem](p *[]T) []T {
	if p == nil {
		return nil
	}
	return *p
}

// recvPayload receives a pooled payload from src under tag; the caller
// releases it once consumed.
func recvPayload[T Elem](c *Comm, src, tag int) *[]T {
	msg := c.Recv(src, tag)
	p, ok := msg.Payload.(*[]T)
	if !ok {
		panic(fmt.Sprintf("mp: payload type mismatch on comm %s tag %d: got %T", c.ID(), tag, msg.Payload))
	}
	return p
}

// sparsePool recycles the adaptive wire's sparse payloads with their
// index and count slices.
var sparsePool sync.Pool

// getSparse returns an empty sparse payload of a length-n vector with
// room for nnz pairs.
func getSparse(n, nnz int) *sparsePairs {
	sp, _ := sparsePool.Get().(*sparsePairs)
	if sp == nil {
		sp = &sparsePairs{}
	}
	sp.n = n
	if cap(sp.idx) < nnz {
		sp.idx, sp.cnt = make([]int32, 0, nnz), make([]int64, 0, nnz)
	}
	sp.idx, sp.cnt = sp.idx[:0], sp.cnt[:0]
	return sp
}
