// Package scalparc implements the two parallel formulations of
// SPRINT-style (pre-sorted attribute list) classifiers that §2.2 of the
// paper analyzes and compares against its own approaches:
//
//   - parallel SPRINT (Shafer, Agrawal & Mehta, VLDB 1996): the sorted
//     attribute lists are split contiguously across processors; the split
//     point of a node is found in parallel from per-section scans; but the
//     splitting phase requires the FULL record-id → child hash table on
//     every processor, built by an all-to-all broadcast — O(N) memory and
//     O(N) communication per processor per level, the unscalability the
//     paper calls out;
//
//   - ScalParC (Joshi, Karypis & Kumar, IPPS 1998): the hash table is
//     itself distributed by record id, and the splitting phase becomes two
//     rounds of personalized communication (update the owners, then query
//     them), bringing memory and communication down to O(N/P) per
//     processor per level.
//
// Both modes grow exactly the tree of the serial SPRINT builder
// (internal/sprint) — asserted by the tests — and both run on the same
// modeled machine as the paper's own formulations, so their communication
// volume and peak hash-table sizes can be compared head-to-head
// (BenchmarkHashSplit in the root harness).
package scalparc

import (
	"fmt"
	"math"

	"partree/internal/core"
	"partree/internal/criteria"
	"partree/internal/dataset"
	"partree/internal/kernel"
	"partree/internal/mp"
	"partree/internal/sprint"
	"partree/internal/tree"
)

// Mode selects the splitting-phase implementation.
type Mode int

const (
	// FullHash is parallel SPRINT: every processor materializes the whole
	// rid → child table via an all-to-all broadcast.
	FullHash Mode = iota
	// DistributedHash is ScalParC: the table is sharded by rid and
	// consulted with personalized communication.
	DistributedHash
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case FullHash:
		return "parallel-sprint"
	case DistributedHash:
		return "scalparc"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Options configures a build.
type Options struct {
	Tree tree.Options
	Mode Mode
}

// Result carries the tree and the scalability metrics of the run.
type Result struct {
	Tree *tree.Tree
	// MaxHashEntries is the peak number of rid → child entries this rank
	// ever held at once — θ(N) for FullHash, θ(N/P) for DistributedHash.
	MaxHashEntries int
	// HashBytes is the payload volume this rank exchanged in the
	// splitting phase's hash construction and probing — the quantity
	// §2.2's O(N) vs O(N/P) communication claim is about, isolated from
	// the histogram reductions both variants share.
	HashBytes int64
}

// nodeSlice is this rank's section of one frontier node's attribute
// lists. Continuous sections are globally sorted: rank r's section
// precedes rank r+1's.
type nodeSlice struct {
	node  *tree.Node
	lists [][]sprint.Entry
}

// scalFam is one sibling family for the statistics-reuse layer
// (tree.Options.Reuse.Subtraction): the globally non-empty children of one
// node split at the previous level. members index the current frontier;
// members[der] — the child with the most training cases, chosen from the
// previous level's reduced child counts so the plan is identical on every
// rank — is derived instead of tabulated: its class distribution from the
// parent node's (global) Dist, its categorical histogram blocks from the
// parent's retained blocks, both as exact int64 subtractions.
type scalFam struct {
	parentNi int        // parent's index in the previous frontier (retained flats)
	parent   *tree.Node // parent node: .Dist is its reduced global distribution
	members  []int
	der      int
}

// builder carries per-rank build state.
type builder struct {
	c    *mp.Comm
	s    *dataset.Schema
	o    Options
	ids  *tree.IDGen
	p    int
	rank int

	maxHash   int
	hashBytes int64

	// statistics-reuse state (nil / unused when Reuse.Subtraction is off)
	fams      []scalFam // families born at the previous split phase
	derived   []bool    // per current-frontier node: derive, don't tabulate
	prevFlats [][]int64 // per-attr retained histogram blocks, previous level
	curFlats  [][]int64 // per-attr blocks being retained this level
}

// Build grows a decision tree over the block-distributed training set
// with the selected parallel SPRINT variant: BuildTable over the local
// block as one chunk, a zero-copy view whose reads cost nothing. Every
// rank returns the complete (replicated) tree and its own peak hash size.
func Build(c *mp.Comm, local *dataset.Dataset, o Options) Result {
	r, _ := BuildTable(c, local.Chunked(0), o) // a resident view reads without error
	return r
}

// BuildTable grows the tree from this rank's chunked section of the
// training set. ScalParC's only whole-column access is the one-time
// pre-sorting pass; it streams chunk by chunk with the encoded read
// volume charged to the modeled disk cost class, then the sample-sort
// exchanges run on the entries in row order — so the tree and (at the
// default TD = 0) the modeled clock depend only on the rows, never on
// the chunking or the backing store.
func BuildTable(c *mp.Comm, local dataset.Table, o Options) (Result, error) {
	o.Tree = o.Tree.WithDefaults()
	b := &builder{c: c, s: local.Schema(), o: o, ids: tree.NewIDGen(1), p: c.Size(), rank: c.Rank()}
	// SPRINT's pre-sort: one stream over the section's chunks (its read
	// volume charged to the disk cost class) fills every attribute's
	// entries in row order, then the continuous attributes are parallel-
	// sample-sorted into globally ordered sections; categorical attributes
	// keep the local records' entries.
	lists, err := sprint.ReadLists(local, func(nb int64) { c.ChargeDisk(int(nb)) })
	if err != nil {
		return Result{}, err
	}
	for a, attr := range b.s.Attrs {
		if attr.Kind == dataset.Continuous {
			lists[a] = sampleSort(c, lists[a], a)
		}
	}
	return b.run(lists), nil
}

// run grows the tree from the presorted root lists.
func (b *builder) run(lists [][]sprint.Entry) Result {
	root := &tree.Node{Kind: tree.Leaf, Dist: make([]int64, b.s.NumClasses())}
	frontier := []nodeSlice{{node: root, lists: lists}}
	for len(frontier) > 0 {
		frontier = b.level(frontier)
	}
	b.releaseFlats(b.prevFlats)
	b.prevFlats = nil
	return Result{
		Tree:           &tree.Tree{Schema: b.s, Root: root},
		MaxHashEntries: b.maxHash,
		HashBytes:      b.hashBytes,
	}
}

// voteActive reports whether voted split selection applies to this
// build: a meaningful K (0 < K < A_d) and more than one rank. At P = 1
// (and at K ≥ A_d) the exact path runs verbatim, so voted builds are
// bit-identical to exact there by construction.
func (b *builder) voteActive() bool {
	return b.o.Tree.Vote.Active(b.s.NumAttrs()) && b.p > 1
}

// subActive reports whether sibling-subtraction reuse applies. Under an
// active vote the retained parent blocks are only exact on the parent's
// elected attribute set while every level elects fresh candidates, so
// the two features compose poorly on ScalParC's per-attribute reduction
// structure; voted builds simply disable reuse here (core's synchronous
// frontier composes them instead via family-coherent elections).
func (b *builder) subActive() bool {
	return b.o.Tree.Reuse.Subtraction && !b.voteActive()
}

// releaseFlats recycles retained per-attribute histogram blocks.
func (b *builder) releaseFlats(flats [][]int64) {
	for _, f := range flats {
		if f != nil {
			kernel.PutInt64(f)
		}
	}
}

// level expands every frontier node once, synchronously across ranks.
func (b *builder) level(frontier []nodeSlice) []nodeSlice {
	nClasses := b.s.NumClasses()
	sub := b.subActive()
	if sub {
		// The derivation plan of this level, fixed by the previous split
		// phase from globally reduced child counts — identical on all ranks.
		b.derived = make([]bool, len(frontier))
		for _, f := range b.fams {
			b.derived[f.members[f.der]] = true
		}
		b.curFlats = make([][]int64, b.s.NumAttrs())
	}

	// 1. Global class distribution per node (reduce local counts of the
	// first attribute's sections, which partition the node's records).
	// Derived nodes skip the scan and reduce as zero blocks (which also
	// feed the sparse encoding); their distributions are reconstructed
	// below as parent − Σ siblings on the reduced values.
	dists := make([]int64, len(frontier)*nClasses)
	var ops int64
	for ni, ns := range frontier {
		if sub && b.derived[ni] {
			continue
		}
		for _, e := range ns.lists[0] {
			dists[ni*nClasses+int(e.Class)]++
		}
		ops += int64(len(ns.lists[0]))
	}
	b.c.Compute(float64(ops))
	if b.p > 1 {
		mp.AllreduceSum(b.c, dists, b.o.Tree.Reuse.SparseThreshold)
	}
	for _, f := range b.fams {
		dni := f.members[f.der]
		dst := dists[dni*nClasses : (dni+1)*nClasses]
		kernel.DeriveFrom(dst, f.parent.Dist)
		for _, ni := range f.members {
			if ni != dni {
				kernel.Subtract(dst, dists[ni*nClasses:(ni+1)*nClasses])
			}
		}
	}

	// 2. Choose the best split of every node (replicated decision).
	splits := b.chooseSplits(frontier, dists)
	if sub {
		b.releaseFlats(b.prevFlats) // consumed by this level's derivations
		b.prevFlats, b.curFlats = b.curFlats, nil
	}

	// 3. Apply splits; route records; partition all lists via the hash
	// table (full or distributed); build the next frontier.
	return b.splitPhase(frontier, dists, splits)
}

// chooseSplits evaluates every (node, attribute) pair and returns the
// winning split per node (a Leaf kind for leaves). Identical on all
// ranks.
func (b *builder) chooseSplits(frontier []nodeSlice, dists []int64) []tree.Split {
	nClasses := b.s.NumClasses()
	best := make([]tree.Split, len(frontier))
	for i := range best {
		best[i] = tree.Split{Gain: b.o.Tree.MinGain}
	}

	// Leaf pre-checks from the global distribution.
	parent := make([]float64, len(frontier))
	totals := make([]int64, len(frontier))
	for ni := range frontier {
		dist := dists[ni*nClasses : (ni+1)*nClasses]
		var n int64
		for _, v := range dist {
			n += v
		}
		totals[ni] = n
		imp, ok := b.o.Tree.MaySplit(dist, n, frontier[ni].node.Depth)
		if !ok {
			imp = -1 // forced leaf
		}
		parent[ni] = imp
	}

	// Voted split selection: the nomination/election round restricts the
	// (node, attribute) pairs the full scoring round below may evaluate.
	var allow []bool
	voting := b.voteActive()
	if voting {
		allow = b.voteAllow(frontier, parent)
		b.c.BeginPhase(core.PhaseVoteHist)
	}
	nA := b.s.NumAttrs()
	for a, attr := range b.s.Attrs {
		var nodeAllow []bool
		if allow != nil {
			nodeAllow = make([]bool, len(frontier))
			any := false
			for ni := range frontier {
				if allow[ni*nA+a] {
					nodeAllow[ni] = true
					any = true
				}
			}
			if !any {
				continue // no node elected this attribute: skip it entirely
			}
		}
		if attr.Kind == dataset.Categorical {
			b.scoreCategorical(frontier, a, parent, best, nodeAllow)
		} else {
			b.scoreContinuous(frontier, a, dists, totals, parent, best, nodeAllow)
		}
	}
	if voting {
		b.c.EndPhase()
	}
	return best
}

// voteAllow runs the nomination round of voted split selection over the
// attribute-list layout: every rank scores each frontier node's
// attributes on its local list sections only, nominates its top-k per
// node, and the vote collective elects ≤2k global candidates per node.
// The returned nf×nA flag matrix marks the (node, attribute) pairs the
// full scoring round may evaluate; all other pairs are withheld from
// tabulation, reduction, and the allgather exchanges. Forced leaves
// allow nothing. A node whose election produced no candidates (no rank
// could nominate) allows every attribute, falling back to the exact
// reduction for that node.
//
// Nomination gains are a local heuristic: each attribute's section is
// scored against its own class distribution (the sections of different
// attributes hold different records after the continuous sample-sort,
// so there is no shared local baseline), and continuous sections scan
// standalone without cross-rank boundary candidates.
func (b *builder) voteAllow(frontier []nodeSlice, parent []float64) []bool {
	b.c.BeginPhase(core.PhaseVoteBallot)
	defer b.c.EndPhase()
	nClasses := b.s.NumClasses()
	nA := b.s.NumAttrs()
	nf := len(frontier)
	k := b.o.Tree.Vote.K
	elect := b.o.Tree.Vote.Candidates()
	crit := b.o.Tree.Criterion

	ballots := kernel.GetInt32(nf * k)
	scores := kernel.GetFloat64(nf * k)
	gains := kernel.GetFloat64(nA)
	secDist := kernel.GetInt64(nClasses)
	maxBlk := 0
	for _, attr := range b.s.Attrs {
		if attr.Kind == dataset.Categorical {
			if blk := attr.Cardinality() * nClasses; blk > maxBlk {
				maxBlk = blk
			}
		}
	}
	var hist []int64
	if maxBlk > 0 {
		hist = kernel.GetInt64(maxBlk)
	}
	var sc kernel.ContScanner
	var ops int64
	for ni, ns := range frontier {
		if parent[ni] < 0 {
			// Forced leaf: nominate nothing (pooled buffers arrive zeroed,
			// and attribute 0 must not be mistaken for a nomination).
			for i := 0; i < k; i++ {
				ballots[ni*k+i] = -1
			}
			continue
		}
		for a, attr := range b.s.Attrs {
			gains[a] = math.Inf(-1)
			sec := ns.lists[a]
			if len(sec) == 0 {
				continue
			}
			clear(secDist)
			for _, e := range sec {
				secDist[e.Class]++
			}
			ln := int64(len(sec))
			imp := crit.Impurity(secDist, ln)
			if imp == 0 {
				continue
			}
			if attr.Kind == dataset.Categorical {
				m := attr.Cardinality()
				blk := m * nClasses
				h := hist[:blk]
				clear(h)
				for _, e := range sec {
					h[int(e.Value)*nClasses+int(e.Class)]++
				}
				ops += 2*int64(len(sec)) + int64(blk)
				_, score, ok := criteria.ScoreHist(&criteria.Hist{M: m, C: nClasses, Counts: h}, crit, b.o.Tree.Binary)
				if ok {
					gains[a] = imp - score
				}
			} else {
				sc.Reset(secDist, ln, crit)
				for _, e := range sec {
					sc.Add(e.Value, e.Class)
				}
				sc.Finish(math.NaN(), false)
				_, score, ok := sc.Best()
				ops += 2 * int64(len(sec)) * int64(nClasses)
				if ok {
					gains[a] = imp - score
				}
			}
		}
		n := kernel.VoteTopK(gains, k, b.o.Tree.MinGain, ballots[ni*k:(ni+1)*k])
		for i := 0; i < n; i++ {
			scores[ni*k+i] = gains[ballots[ni*k+i]]
		}
	}
	b.c.Compute(float64(ops))

	elected := kernel.GetInt32(nf * elect)
	counts := kernel.GetInt32(nf)
	mp.VoteElect(b.c, ballots, scores, nf, k, elect, nA, elected, counts)
	allow := make([]bool, nf*nA)
	for ni := range frontier {
		if parent[ni] < 0 {
			continue // forced leaf: nothing allowed
		}
		if counts[ni] == 0 {
			for a := 0; a < nA; a++ {
				allow[ni*nA+a] = true
			}
			continue
		}
		for i := 0; i < int(counts[ni]); i++ {
			allow[ni*nA+int(elected[ni*elect+i])] = true
		}
	}
	kernel.PutInt32(counts)
	kernel.PutInt32(elected)
	if hist != nil {
		kernel.PutInt64(hist)
	}
	kernel.PutInt64(secDist)
	kernel.PutFloat64(gains)
	kernel.PutFloat64(scores)
	kernel.PutInt32(ballots)
	return allow
}

// scoreCategorical reduces the per-node histograms of attribute a and
// evaluates the subset/multiway split on every rank.
//
// With sibling subtraction, the blocks of derived nodes are withheld from
// both the tabulation and the reduction — the packed payload holds only
// the non-derived blocks, shrinking the collective — and are reconstructed
// afterwards from the previous level's retained parent blocks. The full
// per-node array is then itself retained for the next level.
//
// With voted split selection, allow marks the nodes that elected this
// attribute; the blocks of all other nodes are likewise withheld from
// tabulation, reduction, and scoring (they stay zero and are never
// consulted). allow is nil on the exact path.
func (b *builder) scoreCategorical(frontier []nodeSlice, a int, parent []float64, best []tree.Split, allow []bool) {
	nClasses := b.s.NumClasses()
	m := b.s.Attrs[a].Cardinality()
	blk := m * nClasses
	sub := b.subActive()
	withheld := func(ni int) bool {
		return (sub && b.derived[ni]) || (allow != nil && !allow[ni])
	}
	flat := kernel.GetInt64(len(frontier) * blk)
	if sub {
		b.curFlats[a] = flat // retained; released after the next level
	} else {
		defer kernel.PutInt64(flat)
	}
	var ops, cells int64
	for ni, ns := range frontier {
		if withheld(ni) {
			continue
		}
		base := ni * blk
		for _, e := range ns.lists[a] {
			flat[base+int(e.Value)*nClasses+int(e.Class)]++
		}
		ops += int64(len(ns.lists[a]))
		cells += int64(blk)
	}
	b.c.Compute(float64(ops) + float64(cells))
	if b.p > 1 {
		if (sub && len(b.fams) > 0) || allow != nil {
			// Packed reduction: only tabulated blocks go on the wire.
			nTab := 0
			for ni := range frontier {
				if !withheld(ni) {
					nTab++
				}
			}
			if nTab > 0 {
				red := kernel.GetInt64(nTab * blk)
				pos := 0
				for ni := range frontier {
					if withheld(ni) {
						continue
					}
					copy(red[pos*blk:(pos+1)*blk], flat[ni*blk:(ni+1)*blk])
					pos++
				}
				mp.AllreduceSum(b.c, red, b.o.Tree.Reuse.SparseThreshold)
				pos = 0
				for ni := range frontier {
					if withheld(ni) {
						continue
					}
					copy(flat[ni*blk:(ni+1)*blk], red[pos*blk:(pos+1)*blk])
					pos++
				}
				kernel.PutInt64(red)
			}
		} else {
			mp.AllreduceSum(b.c, flat, b.o.Tree.Reuse.SparseThreshold)
		}
	}
	var dops int64
	for _, f := range b.fams {
		dni := f.members[f.der]
		dst := flat[dni*blk : (dni+1)*blk]
		dops += kernel.DeriveFrom(dst, b.prevFlats[a][f.parentNi*blk:(f.parentNi+1)*blk])
		for _, ni := range f.members {
			if ni != dni {
				dops += kernel.Subtract(dst, flat[ni*blk:(ni+1)*blk])
			}
		}
	}
	if dops > 0 {
		// Derivation is pure in-memory word arithmetic — the reduction-
		// combine class of work — so it is charged at t_op, not the disk-
		// scan-amortizing t_c the tabulation above pays.
		b.c.AdvanceClock(float64(dops) * b.c.Machine().TOp)
	}
	for ni := range frontier {
		if parent[ni] < 0 || (allow != nil && !allow[ni]) {
			continue
		}
		h := &criteria.Hist{M: m, C: nClasses, Counts: flat[ni*m*nClasses : (ni+1)*m*nClasses]}
		if mask, score, ok := criteria.ScoreHist(h, b.o.Tree.Criterion, b.o.Tree.Binary); ok {
			best[ni].Consider(tree.Split{Attr: a, Kind: b.o.Tree.CatKind(), Mask: mask}, parent[ni]-score)
		}
	}
}

// scoreContinuous finds the best global threshold of attribute a for
// every node: each rank scans its sorted section with the class counts of
// the preceding sections as a starting prefix, candidates cross section
// boundaries via the first value of the following non-empty section, and
// the per-rank winners are allgathered so all ranks select the same one.
//
// With voted split selection, allow marks the nodes that elected this
// attribute; only their sections participate — the exchanged arrays pack
// down to the allowed nodes, shrinking all three allgathers. allow is
// nil on the exact path, where idxs is the identity and every exchange
// is byte-identical to the unrestricted code.
func (b *builder) scoreContinuous(frontier []nodeSlice, a int, dists, totals []int64, parent []float64, best []tree.Split, allow []bool) {
	nClasses := b.s.NumClasses()
	idxs := make([]int, 0, len(frontier))
	for ni := range frontier {
		if allow != nil && !allow[ni] {
			continue
		}
		idxs = append(idxs, ni)
	}
	nf := len(idxs)
	if nf == 0 {
		return
	}

	// Exchange per-(rank, node) section class counts and first values.
	counts := make([]int64, nf*nClasses)
	firsts := make([]float64, nf) // NaN when section empty
	var ops int64
	for i, ni := range idxs {
		sec := frontier[ni].lists[a]
		for _, e := range sec {
			counts[i*nClasses+int(e.Class)]++
		}
		ops += int64(len(sec))
		if len(sec) > 0 {
			firsts[i] = sec[0].Value
		} else {
			firsts[i] = math.NaN()
		}
	}
	b.c.Compute(float64(ops))
	allCounts := counts
	allFirsts := firsts
	if b.p > 1 {
		allCounts = mp.Allgatherv(b.c, 11, counts)
		allFirsts = mp.Allgatherv(b.c, 12, firsts)
	}

	// Per-rank local best candidates, then a deterministic global pick.
	local := make([]float64, nf*3) // (score, thresh, validFlag) per node
	var sc kernel.ContScanner      // reused across the frontier
	for i, ni := range idxs {
		local[i*3] = math.Inf(1)
		if parent[ni] < 0 {
			continue
		}
		sec := frontier[ni].lists[a]
		if len(sec) == 0 {
			continue
		}
		// Prefix: class counts of all preceding ranks' sections.
		below := make([]int64, nClasses)
		for r := 0; r < b.rank; r++ {
			for cl := 0; cl < nClasses; cl++ {
				below[cl] += allCounts[(r*nf+i)*nClasses+cl]
			}
		}
		// The value right after my section: first value of the next
		// non-empty section (NaN if none → my last entry is the global
		// maximum and cannot be a threshold).
		next := math.NaN()
		for r := b.rank + 1; r < b.p; r++ {
			v := allFirsts[r*nf+i]
			if !math.IsNaN(v) {
				next = v
				break
			}
		}
		total := totals[ni]
		dist := dists[ni*nClasses : (ni+1)*nClasses]
		sc.Reset(dist, total, b.o.Tree.Criterion)
		sc.Seed(below)
		for _, e := range sec {
			sc.Add(e.Value, e.Class)
		}
		sc.Finish(next, !math.IsNaN(next))
		bestThresh, bestScore, found := sc.Best()
		b.c.Compute(float64(len(sec)) * float64(nClasses))
		if found {
			local[i*3], local[i*3+1], local[i*3+2] = bestScore, bestThresh, 1
		}
	}
	allLocal := local
	if b.p > 1 {
		allLocal = mp.Allgatherv(b.c, 13, local)
	}
	for i, ni := range idxs {
		if parent[ni] < 0 {
			continue
		}
		bestScore, bestThresh, found := math.Inf(1), 0.0, false
		for r := 0; r < b.p; r++ {
			off := (r*nf + i) * 3
			if allLocal[off+2] != 1 {
				continue
			}
			s, th := allLocal[off], allLocal[off+1]
			// Serial SPRINT's ascending scan keeps the first (lowest-
			// threshold) test among equal scores.
			if s < bestScore || (s == bestScore && th < bestThresh) {
				bestScore, bestThresh, found = s, th, true
			}
		}
		if found {
			best[ni].Consider(tree.Split{Attr: a, Kind: tree.ContBinary, Thresh: bestThresh}, parent[ni]-bestScore)
		}
	}
}
