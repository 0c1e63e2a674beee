package kernel

import (
	"math/bits"
	"sync"
)

// Buffer pooling. Every hot loop of tree construction wants a flat []int64
// scratch vector — a node's statistics block, a histogram, a per-worker
// partial — whose size repeats endlessly across nodes and levels. The pool
// hands those out zeroed and recycles them, so the steady-state build path
// allocates nothing per node.
//
// Buffers are binned by power-of-two capacity: get rounds the allocation
// up to the next power of two, so a recycled buffer of class k always has
// capacity 2^k and can serve any request with 2^(k-1) < n ≤ 2^k.
// Non-power-of-two capacities handed to put (possible only for buffers
// the pool did not create) are dropped rather than filed under the wrong
// class. The []int32 and []float64 pools hold ballot and gain scratch.

// maxPoolClass bounds the pooled capacity at 2^26 elements (512 MiB of
// int64s); larger buffers are allocated directly and never pooled.
const maxPoolClass = 26

// sizePools is one power-of-two size-class pool of []T buffers.
type sizePools[T int32 | int64 | float64] [maxPoolClass + 1]sync.Pool

var (
	int64Pools   sizePools[int64]
	int32Pools   sizePools[int32]
	float64Pools sizePools[float64]
)

// get returns a zeroed []T of length n; the caller owns it until put.
func (p *sizePools[T]) get(n int) []T {
	if n == 0 {
		return nil
	}
	class := bits.Len(uint(n - 1)) // ceil(log2 n)
	if class > maxPoolClass {
		return make([]T, n)
	}
	if v := p[class].Get(); v != nil {
		s := (*(v.(*[]T)))[:n]
		clear(s)
		return s
	}
	return make([]T, n, 1<<class)
}

// put recycles a buffer obtained from get. The caller must not touch the
// slice (or any alias of it) afterwards.
func (p *sizePools[T]) put(s []T) {
	c := cap(s)
	if c == 0 || c&(c-1) != 0 {
		return // not one of ours; let the GC have it
	}
	class := bits.Len(uint(c - 1))
	if class > maxPoolClass {
		return
	}
	s = s[:0]
	p[class].Put(&s)
}

// GetInt64 returns a zeroed []int64 of length n backed by the pool. The
// caller owns it until PutInt64.
func GetInt64(n int) []int64 { return int64Pools.get(n) }

// PutInt64 recycles a buffer obtained from GetInt64.
func PutInt64(s []int64) { int64Pools.put(s) }

// GetInt32 returns a zeroed []int32 of length n from the pool.
func GetInt32(n int) []int32 { return int32Pools.get(n) }

// PutInt32 returns a buffer obtained from GetInt32 to the pool.
func PutInt32(s []int32) { int32Pools.put(s) }

// GetFloat64 returns a zeroed []float64 of length n from the pool.
func GetFloat64(n int) []float64 { return float64Pools.get(n) }

// PutFloat64 returns a buffer obtained from GetFloat64 to the pool.
func PutFloat64(s []float64) { float64Pools.put(s) }
