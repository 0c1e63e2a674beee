package mp

import (
	"fmt"

	"partree/internal/kernel"
)

// VoteElect runs the ballot round of voted split selection. Every rank
// contributes, for each of nGroups election groups, a fixed-size ballot
// of k slots: attrs[g*k+i] is the i-th nominated attribute id (-1 for
// an unused slot) and scores[g*k+i] its local gain. Ballots are
// exchanged with an allgather — 12 modeled bytes per (attr, score)
// entry — and each rank tallies the full concatenation locally, so the
// election is a pure function of the multiset of ballots and therefore
// invariant to rank arrival order. Scores travel as diagnostics only:
// winners are the ≤elect attributes with the most nominations, ties
// broken by ascending attribute index, so floating-point summation
// order can never change the outcome and the elected sets are
// bit-identical on every rank.
//
// The result is written per group into elected (nGroups stripes of
// elect slots, -1 padded); counts[g] receives group g's winner count.
// The exchange appears in the breakdown/trace layer as its own "vote"
// collective row, attributed to the caller's current phase. At P = 1
// the election is purely local and nothing is charged.
func VoteElect(c *Comm, attrs []int32, scores []float64, nGroups, k, elect, numAttrs int, elected []int32, counts []int32) {
	if len(attrs) != nGroups*k || len(scores) != nGroups*k {
		panic(fmt.Sprintf("mp: VoteElect ballot shape %d/%d != %d groups × %d", len(attrs), len(scores), nGroups, k))
	}
	if len(elected) < nGroups*elect || len(counts) < nGroups {
		panic("mp: VoteElect output buffers too small")
	}
	all := attrs
	p := c.Size()
	if p > 1 {
		func() {
			c.beginColl(CollVote, tagVote, c.allgatherAlgo())
			defer c.endColl() // a peer's fault must not leave the collective open
			all = Allgatherv(c, tagVote, attrs)
			Allgatherv(c, tagVoteScore, scores)
		}()
	}
	ballot := kernel.GetInt32(p * k)
	for g := 0; g < nGroups; g++ {
		for r := 0; r < p; r++ {
			copy(ballot[r*k:(r+1)*k], all[r*nGroups*k+g*k:r*nGroups*k+(g+1)*k])
		}
		n := kernel.ElectCandidates(ballot, numAttrs, elect, elected[g*elect:(g+1)*elect])
		for i := n; i < elect; i++ {
			elected[g*elect+i] = -1
		}
		counts[g] = int32(n)
	}
	kernel.PutInt32(ballot)
}
