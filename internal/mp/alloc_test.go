package mp

import (
	"runtime"
	"testing"
)

// raceEnabled is set by race_enabled_test.go in -race builds, whose
// instrumentation makes allocation counts vary run to run.
var raceEnabled bool

// TestCollectiveAllocs gates the heap allocations of the reduction hot
// path: a dense Allreduce and an adaptive AllreduceSum must not allocate
// more than they do with pooled payloads and a cached instance mailbox
// key, so the wires' closures must stay on the stack and no message may
// go back to a fresh copy. The count is summed over all ranks of the
// world: a world running 64 calls minus a world running none.
//
// The count is not fully deterministic. AllocsPerRun pins GOMAXPROCS to 1,
// so the ranks' goroutines interleave the same way on almost every run,
// but a preempted rank can let two messages queue up in one mailbox, and
// a queue longer than any on the mailbox's free list allocates. So the
// 64-call world is measured three times and the fewest allocations count
// (a rare interleaving cannot fail the gate alone), and the bound is base
// plus a slack of 2; 30 runs of each case gave exactly base every time. A copied
// payload costs at least one allocation per message, ≥ 128 per 64 calls
// at P = 2, and a wire that escapes costs at least three closures per
// call and rank, ≥ 384 per 64 calls: both far above the slack.
func TestCollectiveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	const calls, slack = 64, 2
	for _, tc := range []struct {
		p      int
		sparse bool
		base   float64 // allocations per 64 calls
	}{
		{2, false, 270},
		{4, false, 538},
		{2, true, 276},
		{4, true, 550},
	} {
		allocs := func(n int) float64 {
			return testing.AllocsPerRun(20, func() {
				w := NewWorld(tc.p, SP2())
				w.Run(func(c *Comm) {
					x := make([]int64, 256)
					for i := 0; i < n; i++ {
						x[(c.Rank()*31+i)%256] = 1
						if tc.sparse {
							AllreduceSum(c, x, 0.5)
						} else {
							Allreduce(c, x, Sum)
						}
					}
				})
			})
		}
		// A rare extra allocation in the empty world only lowers got.
		got := min(allocs(calls), allocs(calls), allocs(calls)) - allocs(0)
		t.Logf("p=%d sparse=%v: %.0f allocations per %d calls (base %.0f)", tc.p, tc.sparse, got, calls, tc.base)
		if got > tc.base+slack {
			t.Errorf("p=%d sparse=%v: %.0f allocations per %d calls, want ≤ %.0f", tc.p, tc.sparse, got, calls, tc.base+slack)
		}
	}
}

// TestCollectiveBytes: once the payload pools are warm, a P=2 dense
// AllreduceSum of a 4096-word buffer allocates less than one payload's
// bytes per call, summed over both ranks — where copying every message
// would cost two payloads (each rank sends its whole vector once). The
// bytes are the TotalAlloc delta of a world running 64 calls minus one
// running none, the fewest of three measurements as above; the pools are
// warmed by a first 64-call world.
func TestCollectiveBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	const n, calls = 4096, 64
	payload := float64(n * 8)
	world := func(calls int) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		w := NewWorld(2, SP2())
		w.Run(func(c *Comm) {
			x := make([]int64, n)
			for i := 0; i < calls; i++ {
				x[(c.Rank()*31+i)%n] = int64(i)
				AllreduceSum(c, x, 0)
			}
		})
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc - before.TotalAlloc)
	}
	world(calls)
	got := (min(world(calls), world(calls), world(calls)) - world(0)) / calls
	t.Logf("%.0f bytes per call (one payload is %.0f)", got, payload)
	if got >= payload {
		t.Errorf("%.0f bytes allocated per call, want < %.0f (one payload)", got, payload)
	}
}

// TestScheduleAllocs: driving every schedule over a wire whose moves only
// count, on one goroutine with no mailbox, allocates nothing — for every
// rank of every size, so no schedule leaks its wire (which would move the
// real wires' closures, and what they capture, to the heap on every call).
// Unlike TestCollectiveAllocs the count does not depend on goroutine
// timing, so the bound is exact.
func TestScheduleAllocs(t *testing.T) {
	for _, p := range []int{2, 3, 4, 5, 8} {
		for r := 0; r < p; r++ {
			for _, algo := range []Algo{AlgoRecDoubling, AlgoRing, AlgoRecHalving, AlgoReduceBcast} {
				if p&(p-1) != 0 && (algo == AlgoRecDoubling || algo == AlgoRecHalving) {
					continue
				}
				for _, scatterAG := range []bool{false, true} {
					moves := 0
					got := testing.AllocsPerRun(20, func() {
						w := wire{
							send: func(dst, tag, lo, hi int, reduce bool) { moves += hi - lo },
							fold: func(src, tag, lo, hi int) { moves += hi - lo },
							recv: func(src, tag, lo, hi int) { moves += hi - lo },
						}
						allreduceSchedule(algo, p, 100, scatterAG).run(r, w)
						reduceSchedule(p, 1, 100).run(r, w)
						bcastSchedule(p, 1, 100, scatterAG).run(r, w)
						allgatherSchedule(p, tagAllgather).run(r, w)
					})
					if got != 0 {
						t.Errorf("p=%d rank %d %s scatterAG=%v: %v allocations per run, want 0", p, r, algo, scatterAG, got)
					}
					if moves == 0 {
						t.Errorf("p=%d rank %d %s: the schedules made no move", p, r, algo)
					}
				}
			}
		}
	}
}

// TestModelAllocs: one ModelAllreduce allocates only its clock, arrival
// and move slices, whatever the algorithm and size.
func TestModelAllocs(t *testing.T) {
	m := SP2().WithHopLatency(3e-6)
	for _, p := range []int{2, 5, 64} {
		var topo Topology = NewTorus2D(p)
		for _, algo := range []Algo{AlgoRecDoubling, AlgoRing, AlgoRecHalving, AlgoReduceBcast} {
			got := testing.AllocsPerRun(20, func() { ModelAllreduce(algo, topo, p, 4096, m) })
			if got > 3 {
				t.Errorf("p=%d %s: %v allocations per call, want ≤ 3", p, algo, got)
			}
		}
	}
}
