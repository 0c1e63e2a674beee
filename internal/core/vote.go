package core

import (
	"math"

	"partree/internal/dataset"
	"partree/internal/kernel"
	"partree/internal/mp"
	"partree/internal/tree"
)

// voteFam is the unit of candidate election in voted split selection:
// the children of one split node, recorded as a contiguous span of the
// next frontier (members are frontier[lo : lo+n]). The family shares
// one elected candidate set per flush chunk, which is what lets voting
// compose with sibling subtraction — all tabulated members reduce the
// same attribute blocks, so the withheld member can still be derived as
// parent − Σ(siblings) on the intersection with the parent's set.
//
// pAttrs is the parent's own usable attribute set (ascending, nil =
// unrestricted): the derived member's statistics are only exact on
// S_elected ∩ pAttrs, and a group that elects nothing inherits pAttrs.
// Families are a pure function of globally identical data (frontier
// order, GlobalN), deliberately independent of the rank-local reuse
// cache, so elections are identical across cache hits and misses,
// Reuse on/off, and checkpoint restores; they therefore join the
// level-boundary checkpoint cut (see resume.go's PTLV v2 section).
type voteFam struct {
	lo, n  int
	root   bool    // no recorded parent: all members nominate, none derives
	pAttrs []int32 // parent's usable attribute set; nil = unrestricted
}

// famsCovering returns vote families covering a frontier of n items:
// the threaded families when they describe exactly this frontier, else
// parentless singletons (level 0, post-hybrid-split reshapes, or a
// resume without vote state — every node nominates from itself).
func famsCovering(threaded []voteFam, n int) []voteFam {
	covered := 0
	for _, f := range threaded {
		covered += f.n
	}
	if covered == n {
		return threaded
	}
	fams := make([]voteFam, n)
	for i := range fams {
		fams[i] = voteFam{lo: i, n: 1, root: true}
	}
	return fams
}

// derVote returns the frontier index of the member withheld from
// nomination — the same member the voted reduction derives (smallest
// GlobalN, ties by lowest index) — or -1 for root families. Excluding
// it unconditionally keeps elections identical whether or not its
// local tabulation exists (cache hit, miss, Reuse off, post-restore).
//
// The exact path derives the *largest* child, which saves the most
// tabulation compute. Under voting the choice is an accuracy decision
// instead: the withheld member is the one node whose usable attribute
// set is clipped to S_elected ∩ pAttrs and whose local gains never
// reach a ballot, and those restrictions chain down the withheld
// lineage. Pinning them to the smallest child starves only the least-
// populated subtree — the dominant subtrees elect fresh, unrestricted
// candidate sets at every level.
func (f voteFam) derVote(frontier []tree.FrontierItem) int {
	if f.root || f.n == 0 {
		return -1
	}
	dv := f.lo
	for i := f.lo + 1; i < f.lo+f.n; i++ {
		if frontier[i].GlobalN < frontier[dv].GlobalN {
			dv = i
		}
	}
	return dv
}

// intersectAttrs intersects two ascending attribute sets. nil means
// unrestricted and is the identity.
func intersectAttrs(a, b []int32) []int32 {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := make([]int32, 0, min(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// setSpanLen is the packed length of the attribute blocks in set.
func setSpanLen(set []int32, spans [][2]int, statsLen, classes int) int {
	if set == nil {
		return statsLen - classes
	}
	n := 0
	for _, a := range set {
		n += spans[a][1] - spans[a][0]
	}
	return n
}

// packSpans copies the attribute blocks in set (ascending; nil = all)
// from a full statistics block into dst, returning the words written.
func packSpans(dst, blk []int64, spans [][2]int, set []int32) int {
	off := 0
	if set == nil {
		for _, sp := range spans {
			off += copy(dst[off:], blk[sp[0]:sp[1]])
		}
		return off
	}
	for _, a := range set {
		sp := spans[a]
		off += copy(dst[off:], blk[sp[0]:sp[1]])
	}
	return off
}

// scatterSpans is the inverse of packSpans: it distributes src into the
// attribute blocks in set of a full (otherwise zero) statistics block.
func scatterSpans(blk, src []int64, spans [][2]int, set []int32) int {
	off := 0
	if set == nil {
		for _, sp := range spans {
			off += copy(blk[sp[0]:sp[1]], src[off:])
		}
		return off
	}
	for _, a := range set {
		sp := spans[a]
		off += copy(blk[sp[0]:sp[1]], src[off:])
	}
	return off
}

// maskBlock zeroes every attribute block NOT in the ascending set
// (nil = unrestricted, no-op), returning the words cleared. Masked
// attributes present all-zero histograms, which ChooseSplit already
// treats as unsplittable, so no scorer changes are needed.
func maskBlock(blk []int64, spans [][2]int, set []int32) int64 {
	if set == nil {
		return 0
	}
	var ops int64
	j := 0
	for a, sp := range spans {
		for j < len(set) && int(set[j]) < a {
			j++
		}
		if j < len(set) && int(set[j]) == a {
			continue
		}
		clear(blk[sp[0]:sp[1]])
		ops += int64(sp[1] - sp[0])
	}
	return ops
}

// voteGroup is one election within a flush chunk: the intersection of
// a vote family with the chunk (chunk-relative members [j0, j1)). A
// family straddling a flush boundary elects per chunk — chunking is
// globally identical, so so are the groups.
type voteGroup struct {
	j0, j1 int
	dv     int // chunk-relative withheld member, -1 if outside this chunk
	fam    int
	sel    []int32 // elected candidate set; nil = unrestricted
}

// voteRound is the voted reduce step of one synchronous level: the
// two-round PV-Tree protocol expandLevelSync runs in place of the exact
// sum-reduction. Per flush chunk, (1) PhaseVoteBallot — each election
// group scores all attributes on local rows (the nomination-eligible
// members' max gain per attribute), nominates its top-k, and
// mp.VoteElect picks the ≤2k globally most-nominated candidates; (2)
// PhaseVoteHist — only the candidates' histogram blocks (plus every
// node's class distribution, which leaf decisions and GlobalN need
// exactly) are packed, sum-reduced with the same sparse adaptive
// encoding, and scattered back in place, zero elsewhere. The reduction
// volume per node is C + |S|·M·C with |S| ≤ 2k — independent of the
// attribute count.
//
// The withheld (derivable) member's statistics are masked to
// S_elected ∩ pAttrs whether they were derived or directly reduced:
// derivation is only exact where both parent and siblings are exact,
// and masking identically in both cases makes the tree invariant to
// Reuse on/off, cache hits, and checkpoint restores.
//
// The partitioned formulation's cooperative node expansion is the same
// step on a one-node root family: no derivation follows (the children
// move to disjoint processor subsets), and a node that elects nothing
// falls back to the full exact reduction.
type voteRound struct {
	s        *dataset.Schema
	o        tree.Options
	spans    [][2]int
	statsLen int
	fams     []voteFam      // families covering this level's frontier
	fiStart  int            // first family not wholly behind the current chunk
	usable   [][]int32      // per chunk member: its usable attribute set
	next     []voteFam      // families of the next frontier
	view     tree.NodeStats // the ballot's decoded statistics, node by node
}

func newVoteRound(s *dataset.Schema, o tree.Options, fams []voteFam) *voteRound {
	return &voteRound{s: s, o: o, spans: tree.AttrSpans(s, o), statsLen: tree.StatsLen(s, o), fams: fams}
}

// reduce runs both rounds for the chunk frontier[lo:hi]. red holds the
// local statistics of the tabulated members (chunk member j at block
// slot[j] when slot[j] ≥ 0) on entry, and their global statistics,
// zero outside each member's usable set, on return. The modeled cost of
// both exchanges is added to *cost.
func (v *voteRound) reduce(c *mp.Comm, frontier []tree.FrontierItem, lo, hi int, slot []int, red []int64, cost *float64) {
	s, o, statsLen := v.s, v.o, v.statsLen
	classes := s.NumClasses()
	numAttrs := len(s.Attrs)
	k := o.Vote.K
	elect := o.Vote.Candidates()
	n := hi - lo
	blk := func(j int) []int64 { return red[slot[j]*statsLen : (slot[j]+1)*statsLen] }

	// Election groups: vote families ∩ chunk, in frontier order.
	var groups []voteGroup
	for fi := v.fiStart; fi < len(v.fams) && v.fams[fi].lo < hi; fi++ {
		f := v.fams[fi]
		g := voteGroup{j0: max(f.lo, lo) - lo, j1: min(f.lo+f.n, hi) - lo, dv: -1, fam: fi}
		if dv := f.derVote(frontier); dv >= lo && dv < hi {
			g.dv = dv - lo
		}
		groups = append(groups, g)
		if f.lo+f.n <= hi {
			v.fiStart = fi + 1
		}
	}

	// Round 1: nomination and election.
	c.BeginPhase(PhaseVoteBallot)
	nG := len(groups)
	ballots := kernel.GetInt32(nG * k)
	scores := kernel.GetFloat64(nG * k)
	gains := kernel.GetFloat64(numAttrs)
	mg := kernel.GetFloat64(numAttrs)
	var scoreOps int64
	for gi := range groups {
		g := &groups[gi]
		for i := range gains {
			gains[i] = math.Inf(-1)
		}
		for j := g.j0; j < g.j1; j++ {
			if j == g.dv || slot[j] < 0 {
				continue // only the withheld member is ever derived
			}
			tree.AttrGains(v.view.Decode(blk(j), s, o), s, o, mg)
			for a, gv := range mg {
				if gv > gains[a] {
					gains[a] = gv
				}
			}
			scoreOps += int64(statsLen)
		}
		bal := ballots[gi*k : (gi+1)*k]
		m := kernel.VoteTopK(gains, k, o.MinGain, bal)
		for i := 0; i < k; i++ {
			if i < m {
				scores[gi*k+i] = gains[bal[i]]
			} else {
				scores[gi*k+i] = 0
			}
		}
	}
	chargeWordOps(c, scoreOps)
	elected := kernel.GetInt32(nG * elect)
	counts := kernel.GetInt32(nG)
	mp.VoteElect(c, ballots, scores, nG, k, elect, numAttrs, elected, counts)
	if c.Size() > 1 {
		// Ballot-exchange stand-in for the hybrid trigger: 12 modeled
		// bytes per (attr, score) slot through the collective estimate.
		*cost += c.AllreduceCostEstimate(12 * nG * k)
	}
	for gi := range groups {
		g := &groups[gi]
		if m := int(counts[gi]); m > 0 {
			g.sel = append([]int32(nil), elected[gi*elect:gi*elect+m]...)
		} else {
			// Nothing elected (no eligible nominators, or no local gain
			// anywhere): inherit the parent's candidate set.
			g.sel = v.fams[g.fam].pAttrs
		}
	}
	kernel.PutInt32(elected)
	kernel.PutInt32(counts)
	kernel.PutInt32(ballots)
	kernel.PutFloat64(scores)
	kernel.PutFloat64(gains)
	kernel.PutFloat64(mg)
	c.EndPhase()

	// Usable attribute set per chunk member: the group's elected set,
	// intersected with the parent's for the withheld member.
	v.usable = make([][]int32, n)
	for _, g := range groups {
		for j := g.j0; j < g.j1; j++ {
			if j == g.dv && !v.fams[g.fam].root {
				v.usable[j] = intersectAttrs(g.sel, v.fams[g.fam].pAttrs)
			} else {
				v.usable[j] = g.sel
			}
		}
	}

	// Round 2: pack [dist + elected blocks] per tabulated member, reduce,
	// scatter back into the member's zero-masked block.
	packLen := 0
	for j := 0; j < n; j++ {
		if slot[j] >= 0 {
			packLen += classes + setSpanLen(v.usable[j], v.spans, statsLen, classes)
		}
	}
	buf := kernel.GetInt64(packLen)
	c.BeginPhase(PhaseVoteHist)
	off := 0
	for j := 0; j < n; j++ {
		if slot[j] >= 0 {
			b := blk(j)
			off += copy(buf[off:off+classes], b[:classes])
			off += packSpans(buf[off:], b, v.spans, v.usable[j])
		}
	}
	if c.Size() > 1 && len(buf) > 0 {
		mp.AllreduceSum(c, buf, o.Reuse.SparseThreshold)
		*cost += c.AllreduceCostEstimate(8 * len(buf))
	}
	off = 0
	for j := 0; j < n; j++ {
		if slot[j] >= 0 {
			b := blk(j)
			clear(b)
			off += copy(b[:classes], buf[off:off+classes])
			off += scatterSpans(b, buf[off:], v.spans, v.usable[j])
		}
	}
	chargeWordOps(c, int64(2*off))
	c.EndPhase()
	kernel.PutInt64(buf)
}

// mask zeroes the derived block dst of chunk member j outside j's usable
// set, returning the words cleared — 0 under the exact reduction (nil v).
func (v *voteRound) mask(dst []int64, j int) int64 {
	if v == nil {
		return 0
	}
	return maskBlock(dst, v.spans, v.usable[j])
}

// record notes that chunk member j split into the n next-frontier items
// starting at lo; a no-op under the exact reduction (nil v).
func (v *voteRound) record(lo, n, j int) {
	if v != nil {
		v.next = append(v.next, voteFam{lo: lo, n: n, pAttrs: v.usable[j]})
	}
}
