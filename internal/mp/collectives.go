package mp

import (
	"fmt"
	"unsafe"
)

// Elem constrains the element types the collectives can carry. The
// modeled wire size of a slice is len·elemBytes.
type Elem interface {
	~byte | ~int32 | ~int64 | ~float64
}

// elemBytes sizes the element via unsafe.Sizeof so named types admitted
// by the ~byte/~int32 constraint terms are billed at their real width (a
// type-switch on any(z) would miss them and default to 8 bytes/element).
func elemBytes[T Elem]() int {
	var z T
	return int(unsafe.Sizeof(z))
}

// SendSlice copies x and sends it to dst under tag (the copy enforces the
// no-mutation-after-send rule for callers that reuse buffers).
func SendSlice[T Elem](c *Comm, dst, tag int, x []T) {
	cp := append([]T(nil), x...)
	c.Send(dst, tag, cp, len(cp)*elemBytes[T]())
}

// RecvSlice receives a []T message from src under tag.
func RecvSlice[T Elem](c *Comm, src, tag int) []T {
	msg := c.Recv(src, tag)
	if msg.Payload == nil {
		return nil
	}
	x, ok := msg.Payload.([]T)
	if !ok {
		panic(fmt.Sprintf("mp: RecvSlice type mismatch on comm %s tag %d: got %T", c.ID(), tag, msg.Payload))
	}
	return x
}

// Op is a reduction operator. It must be associative and commutative.
type Op[T Elem] func(a, b T) T

// Sum, Min and Max are the standard reduction operators.
func Sum[T Elem](a, b T) T { return a + b }
func Min[T Elem](a, b T) T {
	if b < a {
		return b
	}
	return a
}
func Max[T Elem](a, b T) T {
	if b > a {
		return b
	}
	return a
}

// combine folds src into dst element-wise and charges the rank TOp per
// element — the arithmetic every reduction step really performs.
func combine[T Elem](c *Comm, dst, src []T, op Op[T]) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("mp: reduction length mismatch %d vs %d", len(dst), len(src)))
	}
	for i := range dst {
		dst[i] = op(dst[i], src[i])
	}
	d := float64(len(dst)) * c.world.Machine.TOp
	c.me.clock += d
	c.me.chargeComp(d)
}

// replaceExact overwrites dst with a received slice, panicking on any
// length mismatch: a shorter receive buffer must never silently truncate
// (and then forward corrupted data down the tree), mirroring combine.
func replaceExact[T Elem](c *Comm, dst, src []T, what string) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("mp: %s length mismatch on comm %s: received %d elements into a %d-element buffer",
			what, c.ID(), len(src), len(dst)))
	}
	copy(dst, src)
}

// denseWire is the typed wire over x: every message is a pooled copy of
// its span (copyPayload), folded in with op — charging TOp per element —
// or received in place of the span, panicking on a length mismatch; what
// names the collective in that panic. The receiver releases each payload
// once consumed (payload.go).
func denseWire[T Elem](c *Comm, x []T, op Op[T], what string) wire {
	return wire{
		send: func(dst, tag, lo, hi int, _ bool) { c.Send(dst, tag, copyPayload(x[lo:hi]), (hi-lo)*elemBytes[T]()) },
		fold: func(src, tag, lo, hi int) {
			p := recvPayload[T](c, src, tag)
			combine(c, x[lo:hi], elems(p), op)
			releasePayload(p)
		},
		recv: func(src, tag, lo, hi int) {
			p := recvPayload[T](c, src, tag)
			replaceExact(c, x[lo:hi], elems(p), what)
			releasePayload(p)
		},
	}
}

// Allreduce combines x element-wise across all ranks with op and leaves
// the identical result in x on every rank. The algorithm is selected by
// the world's CollConfig: by default recursive doubling for power-of-two
// sizes — log₂P steps of (t_s + t_w·m), the paper's Equation 2 cost — and
// a binomial-tree reduce followed by a broadcast otherwise. Ring
// (reduce-scatter + allgather) and recursive halving/doubling trade
// latency for bandwidth on large messages; "auto" picks per call the
// algorithm whose schedule folds to the cheapest modeled clock
// (schedule.cost, on this communicator's world ranks). Every algorithm
// produces identical values.
//
// The broadcast half of red+bcast runs the world's Bcast algorithm, so
// under Bcast: scatter-ag (or auto resolving to it) it is a binomial
// scatter + ring allgather. AllreduceSum's red+bcast, ModelAllreduce and
// the auto rule's fold of red+bcast use the binomial broadcast regardless.
func Allreduce[T Elem](c *Comm, x []T, op Op[T]) {
	p := c.Size()
	if p == 1 {
		return
	}
	eb := elemBytes[T]()
	algo := c.allreduceAlgo(len(x), eb)
	c.beginColl(CollAllreduce, 0, algo)
	defer c.endColl()
	scatterAG := algo == AlgoReduceBcast && c.bcastAlgo(0, len(x), eb) == AlgoScatterAllgather
	allreduceSchedule(algo, p, len(x), scatterAG).run(c.rank, denseWire(c, x, op, "allreduce"))
}

// Reduce combines x element-wise onto rank root via a binomial tree; the
// result is defined only at root (other ranks' x hold partial sums).
func Reduce[T Elem](c *Comm, x []T, op Op[T], root int) {
	if c.Size() == 1 {
		return
	}
	c.beginColl(CollReduce, 0, AlgoBinomial)
	defer c.endColl()
	reduceSchedule(c.Size(), root, len(x)).run(c.rank, denseWire(c, x, op, "reduce"))
}

// Bcast distributes root's x to every rank (in place). The default
// binomial tree costs ⌈log₂P⌉ rounds of (t_s + t_w·m); the scatter-ag
// algorithm (binomial scatter + ring allgather, van de Geijn) trades
// latency for bandwidth on large messages. Every rank must pass a buffer
// of root's length — a mismatch panics rather than silently truncating.
func Bcast[T Elem](c *Comm, x []T, root int) {
	p := c.Size()
	if p == 1 {
		return
	}
	algo := c.bcastAlgo(root, len(x), elemBytes[T]())
	c.beginColl(CollBcast, 0, algo)
	defer c.endColl()
	bcastSchedule(p, root, len(x), algo == AlgoScatterAllgather).run(c.rank, denseWire(c, x, nil, "bcast"))
}

// Gatherv collects each rank's variable-length x at root, returned as a
// per-rank slice (nil on non-roots). Linear: every non-root sends
// directly to root, root receives in rank order.
func Gatherv[T Elem](c *Comm, tag int, x []T, root int) [][]T {
	c.beginColl(CollGather, tag, AlgoLinear)
	defer c.endColl()
	if c.rank != root {
		SendSlice(c, root, tagGather^tag<<8, x)
		return nil
	}
	out := make([][]T, c.Size())
	for r := 0; r < c.Size(); r++ {
		if r == root {
			out[r] = append([]T(nil), x...)
		} else {
			out[r] = RecvSlice[T](c, r, tagGather^tag<<8)
		}
	}
	return out
}

// Allgatherv concatenates every rank's variable-length contribution in
// rank order and returns the identical concatenation on all ranks. The
// default is the standard ring algorithm (P−1 nearest-neighbour steps);
// gather+bcast funnels everything through rank 0 instead (fewer, larger
// messages). Every block rides as its own payload — an empty contribution
// is simply a nil payload whose zero-length receive slots into place, so
// the ring stays fully deterministic without any framing.
func Allgatherv[T Elem](c *Comm, tag int, x []T) []T {
	algo := c.allgatherAlgo()
	c.beginColl(CollAllgather, tag, algo)
	defer c.endColl()
	if algo == AlgoGatherBcast {
		return allgathervGatherBcast(c, tag, x)
	}
	// Every block is its own message: span [i, i+1) is block i.
	p := c.Size()
	blocks := make([][]T, p)
	blocks[c.rank] = append([]T(nil), x...)
	allgatherSchedule(p, tagAllgather^tag<<8).run(c.rank, wire{
		send: func(dst, tag, i, _ int, _ bool) { SendSlice(c, dst, tag, blocks[i]) },
		recv: func(src, tag, i, _ int) { blocks[i] = RecvSlice[T](c, src, tag) },
	})
	return concat(blocks)
}

// concat joins blocks in order into one freshly allocated slice.
func concat[T Elem](blocks [][]T) []T {
	var total int
	for _, b := range blocks {
		total += len(b)
	}
	out := make([]T, 0, total)
	for _, b := range blocks {
		out = append(out, b...)
	}
	return out
}

// allgathervGatherBcast gathers every contribution at rank 0 and
// broadcasts the concatenation (as one opaque payload, since non-roots
// cannot size a typed receive buffer up front).
func allgathervGatherBcast[T Elem](c *Comm, tag int, x []T) []T {
	blocks := Gatherv(c, tag, x, 0)
	var full []T
	if c.rank == 0 {
		full = concat(blocks)
	}
	payload := BcastValue(c, full, len(full)*elemBytes[T](), 0)
	if c.rank == 0 {
		return full
	}
	if payload == nil {
		return make([]T, 0)
	}
	// Copy: the broadcast payload object is shared across ranks.
	return append([]T(nil), payload.([]T)...)
}

// AllgatherInt is a convenience wrapper: each rank contributes one int64
// and receives everyone's values in rank order.
func AllgatherInt(c *Comm, tag int, v int64) []int64 {
	return Allgatherv(c, tag, []int64{v})
}

// Alltoallv performs a personalized all-to-all exchange: send[r] goes to
// rank r uncopied (the caller hands its blocks off and must not touch them
// again); the returned recv[r] is what rank r sent to the caller, the own
// block passed through without a message. P−1 rounds of pairwise exchange
// with rotating partners — the record-moving formulations' moving phase.
func Alltoallv[T Elem](c *Comm, tag int, send [][]T) [][]T {
	p := c.Size()
	if len(send) != p {
		panic(fmt.Sprintf("mp: Alltoallv needs %d send blocks, got %d", p, len(send)))
	}
	c.beginColl(CollAlltoall, tag, AlgoPairwise)
	defer c.endColl()
	recv := make([][]T, p)
	recv[c.rank] = send[c.rank]
	for step := 1; step < p; step++ {
		dst := (c.rank + step) % p
		src := (c.rank - step + p) % p
		c.Send(dst, tagAlltoall^tag<<8, send[dst], len(send[dst])*elemBytes[T]())
		recv[src] = RecvSlice[T](c, src, tagAlltoall^tag<<8)
	}
	return recv
}

// BcastValue broadcasts an opaque payload of explicit modeled size from
// root along a binomial tree and returns it on every rank (non-roots pass
// payload nil). Used to replicate assembled trees, whose wire size is
// modeled by tree.SubtreeBytes rather than by element count.
func BcastValue(c *Comm, payload any, bytes int, root int) any {
	if c.Size() == 1 {
		return payload
	}
	c.beginColl(CollBcast, 0, AlgoBinomial)
	defer c.endColl()
	bcastSchedule(c.Size(), root, 0, false).run(c.rank, wire{
		send: func(dst, tag, _, _ int, _ bool) { c.Send(dst, tag, payload, bytes) },
		recv: func(src, tag, _, _ int) {
			msg := c.Recv(src, tag)
			payload, bytes = msg.Payload, msg.Bytes
		},
	})
	return payload
}

// Barrier synchronizes all ranks (an allreduce of one int64 word); on
// return every rank's modeled clock is at least the max of the clocks at
// entry.
func (c *Comm) Barrier() {
	if c.Size() == 1 {
		return
	}
	c.beginColl(CollBarrier, 0, c.allreduceAlgo(1, 8))
	defer c.endColl()
	x := []int64{0}
	Allreduce(c, x, Max)
}

// AllreduceClock synchronizes the modeled clocks of all ranks to their
// maximum without transferring data volume: every message is genuinely
// zero-byte, so only the startup latency t_s is paid and no t_w or
// bytesSent is charged. The max-clock propagation rides entirely on the
// modeled arrival times (a receiver's clock becomes at least the sender's
// send-completion clock), so no payload is needed. It is used at points
// where the algorithm logically synchronizes but exchanges no payload
// beyond what was already accounted. Its structure is fixed (the historic
// hypercube pattern) regardless of CollConfig — there is no data whose
// volume an algorithm could trade against.
func (c *Comm) AllreduceClock() {
	p := c.Size()
	if p == 1 {
		return
	}
	algo := defaultAllreduceAlgo(p)
	c.beginColl(CollBarrier, 0, algo)
	defer c.endColl()
	recv := func(src, _, _, _ int) { c.Recv(src, tagClock) }
	allreduceSchedule(algo, p, 0, false).run(c.rank, wire{
		send: func(dst, _, _, _ int, _ bool) { c.Send(dst, tagClock, nil, 0) },
		fold: recv,
		recv: recv,
	})
}
