package mp

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"partree/internal/fault"
)

// voteFixture gives rank r of p its deterministic two-group ballot set
// (k=3 slots per group, some empty).
func voteFixture(r, k int) (attrs []int32, scores []float64) {
	attrs = make([]int32, 2*k)
	scores = make([]float64, 2*k)
	for i := 0; i < k; i++ {
		attrs[i] = int32((r + i*3) % 7)   // group 0: overlapping nominations
		attrs[k+i] = -1                   // group 1: mostly empty
		scores[i] = float64(r*10+i) / 100 // diagnostics only
	}
	if r%2 == 0 {
		attrs[k] = 5 // even ranks nominate attr 5 in group 1
	}
	return attrs, scores
}

// TestVoteElectAgreesAcrossRanks: the election result is bit-identical
// on every rank — each tallies the same concatenated ballot multiset.
func TestVoteElectAgreesAcrossRanks(t *testing.T) {
	const k, elect, numAttrs, nGroups = 3, 4, 8, 2
	for _, p := range testSizes {
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
			w := NewWorld(p, SP2())
			elected := make([][]int32, p)
			counts := make([][]int32, p)
			w.Run(func(c *Comm) {
				attrs, scores := voteFixture(c.Rank(), k)
				e := make([]int32, nGroups*elect)
				n := make([]int32, nGroups)
				VoteElect(c, attrs, scores, nGroups, k, elect, numAttrs, e, n)
				elected[c.Rank()], counts[c.Rank()] = e, n
			})
			for r := 1; r < p; r++ {
				for i := range elected[0] {
					if elected[r][i] != elected[0][i] {
						t.Fatalf("rank %d elected %v; rank 0 elected %v", r, elected[r], elected[0])
					}
				}
				for g := range counts[0] {
					if counts[r][g] != counts[0][g] {
						t.Fatalf("rank %d counts %v; rank 0 counts %v", r, counts[r], counts[0])
					}
				}
			}
			// Group 1: only even ranks nominated attr 5; with at least one
			// even rank it must be the single winner.
			if counts[0][1] != 1 || elected[0][elect] != 5 {
				t.Fatalf("group 1 elected %v (count %d); want [5]", elected[0][elect:], counts[0][1])
			}
		})
	}
}

// TestVoteElectRankPermutationInvariance: reassigning which rank holds
// which ballot set changes nothing — the tally is over the multiset of
// ballots, and the count-based election ignores score summation order.
func TestVoteElectRankPermutationInvariance(t *testing.T) {
	const k, elect, numAttrs, nGroups, p = 3, 4, 8, 2, 5
	run := func(assign []int) []int32 {
		w := NewWorld(p, SP2())
		var out []int32
		w.Run(func(c *Comm) {
			attrs, scores := voteFixture(assign[c.Rank()], k)
			e := make([]int32, nGroups*elect)
			n := make([]int32, nGroups)
			VoteElect(c, attrs, scores, nGroups, k, elect, numAttrs, e, n)
			if c.Rank() == 0 {
				out = e
			}
		})
		return out
	}
	want := run([]int{0, 1, 2, 3, 4})
	for _, assign := range [][]int{{4, 3, 2, 1, 0}, {2, 0, 4, 1, 3}, {1, 4, 0, 3, 2}} {
		got := run(assign)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("assignment %v elected %v; want %v", assign, got, want)
			}
		}
	}
}

// TestVoteElectSerialFree: at P=1 the election is purely local — no
// modeled bytes, no "vote" collective row in the breakdown.
func TestVoteElectSerialFree(t *testing.T) {
	const k, elect, numAttrs = 3, 4, 8
	w := NewWorld(1, SP2())
	w.Run(func(c *Comm) {
		attrs, scores := voteFixture(0, k)
		e := make([]int32, 2*elect)
		n := make([]int32, 2)
		VoteElect(c, attrs, scores, 2, k, elect, numAttrs, e, n)
	})
	if tr := w.Traffic(); tr.Bytes != 0 {
		t.Fatalf("serial election charged %d bytes", tr.Bytes)
	}
	if tbl := w.Breakdown().Table(); strings.Contains(tbl, "vote") {
		t.Fatalf("serial election left a vote collective row:\n%s", tbl)
	}
}

// TestVoteElectChargesVoteCollective: at P>1 the ballot exchange is
// accounted as its own collective class.
func TestVoteElectChargesVoteCollective(t *testing.T) {
	const k, elect, numAttrs = 3, 4, 8
	w := NewWorld(4, SP2())
	w.Run(func(c *Comm) {
		attrs, scores := voteFixture(c.Rank(), k)
		e := make([]int32, 2*elect)
		n := make([]int32, 2)
		VoteElect(c, attrs, scores, 2, k, elect, numAttrs, e, n)
	})
	if tr := w.Traffic(); tr.Bytes == 0 {
		t.Fatal("parallel ballot exchange charged no bytes")
	}
	if tbl := w.Breakdown().Table(); !strings.Contains(tbl, CollVote.String()) {
		t.Fatalf("breakdown lacks the vote collective row:\n%s", tbl)
	}
}

// TestVoteElectFaultClosesCollective: a peer crashing inside the ballot
// allgather unwinds VoteElect with its collective closed on every
// survivor (collDepth back at 0), so the survivors regroup and their
// next Barrier on the survivor communicator completes instead of
// waiting under a stale collective instance key.
func TestVoteElectFaultClosesCollective(t *testing.T) {
	const k, elect, numAttrs, p, crashed = 3, 4, 8, 4, 2
	w := NewWorld(p, SP2())
	w.SetFaultPlan(fault.NewPlan(fault.CrashAt(crashed, fault.SendOp, 1)))
	depth := make([]int, p)
	regrouped := make([]bool, p)
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(func(c *Comm) {
			func() {
				defer func() {
					if v := recover(); v != nil {
						if _, ok := fault.AsError(v); !ok {
							panic(v) // incl. the injected crash itself
						}
					}
				}()
				attrs, scores := voteFixture(c.Rank(), k)
				VoteElect(c, attrs, scores, 2, k, elect, numAttrs, make([]int32, 2*elect), make([]int32, 2))
			}()
			depth[c.Rank()] = c.me.collDepth
			c.EnterRecovery()
			c.ShrinkAlive().Barrier()
			regrouped[c.Rank()] = true
		})
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("survivors' Barrier on the shrunken communicator hung")
	}
	if dead := w.DeadRanks(); len(dead) != 1 || dead[0] != crashed {
		t.Fatalf("dead ranks = %v, want [%d]", dead, crashed)
	}
	for r := 0; r < p; r++ {
		if r == crashed {
			continue
		}
		if depth[r] != 0 {
			t.Fatalf("rank %d left VoteElect at collective depth %d, want 0", r, depth[r])
		}
		if !regrouped[r] {
			t.Fatalf("rank %d did not complete the survivor Barrier", r)
		}
	}
}
