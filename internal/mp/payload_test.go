package mp

import (
	"fmt"
	"sync/atomic"
	"testing"

	"partree/internal/fault"
)

// ownershipCalls is the number of consecutive reductions each ownership
// run makes: enough for pooled payloads to cycle through every rank many
// times over.
const ownershipCalls = 2000

// ownershipValue is rank r's contribution to element i of call k. Every
// third call is one nonzero per rank, so the adaptive wire sends sparse
// payloads as well as dense ones; the others are dense and all distinct.
func ownershipValue(r, k, i, n int) int64 {
	if k%3 == 0 {
		if i != (k+r)%n {
			return 0
		}
		return int64(r+1) * int64(k+1)
	}
	return int64(r+1)*1_000_003 + int64(k)*131 + int64(i)
}

// runOwnership makes ownershipCalls reductions of fresh data on w —
// Allreduce(Sum) with threshold 0, the adaptive AllreduceSum otherwise —
// and checks every call's sums exactly. Vector lengths vary per call
// (3 to 63 elements), so payloads of several pool classes, and the
// empty ring chunks of n < P, are in flight together. It returns the
// number of calls, over all ranks, whose sums were wrong.
func runOwnership(w *World, threshold float64) int64 {
	var bad atomic.Int64
	p := w.Size()
	w.Run(func(c *Comm) {
		x := make([]int64, 64)
		for k := 0; k < ownershipCalls; k++ {
			n := 3 + k%61
			x = x[:n]
			for i := range x {
				x[i] = ownershipValue(c.Rank(), k, i, n)
			}
			if threshold > 0 {
				AllreduceSum(c, x, threshold)
			} else {
				Allreduce(c, x, Sum)
			}
			for i, v := range x {
				var want int64
				for r := 0; r < p; r++ {
					want += ownershipValue(r, k, i, n)
				}
				if v != want {
					bad.Add(1)
					break
				}
			}
		}
	})
	return bad.Load()
}

// TestPayloadOwnership: the collectives' pooled payloads go back to their
// pool only once the receiver has consumed them, and never to two
// receivers. A payload released early, or reused while still queued,
// would be overwritten by a later send and show up as a wrong sum; the
// race detector (go test -race) flags the unsynchronized reuse itself.
// Every algorithm runs with the broadcast half binomial and scatter-ag,
// dense and adaptive, at P = 2, 3, 4, 5 and 8.
func TestPayloadOwnership(t *testing.T) {
	for _, p := range []int{2, 3, 4, 5, 8} {
		for _, algo := range []Algo{AlgoRecDoubling, AlgoRing, AlgoRecHalving, AlgoReduceBcast} {
			if p&(p-1) != 0 && (algo == AlgoRecDoubling || algo == AlgoRecHalving) {
				continue // falls back to red+bcast
			}
			for _, bcast := range []Algo{AlgoBinomial, AlgoScatterAllgather} {
				for _, threshold := range []float64{0, 0.5} {
					if threshold > 0 && bcast == AlgoScatterAllgather {
						continue // AllreduceSum always broadcasts binomially
					}
					t.Run(fmt.Sprintf("p=%d/%s/%s/threshold=%v", p, algo, bcast, threshold), func(t *testing.T) {
						w := NewWorld(p, SP2())
						w.SetCollConfig(CollConfig{Allreduce: algo, Bcast: bcast})
						if bad := runOwnership(w, threshold); bad != 0 {
							t.Errorf("%d of %d calls × %d ranks summed wrong", bad, ownershipCalls, p)
						}
					})
				}
			}
		}
	}
}

// TestPayloadOwnershipDuplicates: under a plan that duplicates reduce-leg
// messages of every rank, the mailbox rejects each copy before it is
// queued, so no pooled payload is taken (and released) twice: every sum
// stays exact and every duplicate that fired is counted as dropped.
func TestPayloadOwnershipDuplicates(t *testing.T) {
	for _, p := range []int{4, 5} {
		for _, threshold := range []float64{0, 0.5} {
			t.Run(fmt.Sprintf("p=%d/threshold=%v", p, threshold), func(t *testing.T) {
				var faults []fault.Fault
				for r := 0; r < p; r++ {
					for _, n := range []int{1, 2, 17, 300, 1111} {
						faults = append(faults, fault.DuplicateAt(r, n, tagReduce))
					}
				}
				w := NewWorld(p, SP2())
				w.SetFaultPlan(fault.NewPlan(faults...))
				if bad := runOwnership(w, threshold); bad != 0 {
					t.Errorf("%d of %d calls × %d ranks summed wrong", bad, ownershipCalls, p)
				}
				// Red+bcast's root sends no reduce-leg message, so its
				// faults never fire; every one that fired must be dropped.
				fired := int64(len(w.Faults()))
				if fired < int64(len(faults)-5) {
					t.Errorf("%d of %d duplicates fired", fired, len(faults))
				}
				if got := w.DuplicatesDropped(); got != fired {
					t.Errorf("DuplicatesDropped = %d, want %d", got, fired)
				}
			})
		}
	}
}
