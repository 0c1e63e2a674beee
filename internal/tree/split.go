package tree

import (
	"fmt"
	"sync"

	"partree/internal/criteria"
	"partree/internal/dataset"
	"partree/internal/discretize"
	"partree/internal/kernel"
)

// Options configures tree induction. The zero value is not usable; call
// WithDefaults.
type Options struct {
	// Criterion is the impurity measure (default Entropy, as in C4.5).
	Criterion criteria.Criterion
	// Binary requests binary splits for categorical (and per-node binned
	// continuous) attributes, the setting of the paper's experiments.
	// False gives classic multiway C4.5 splits.
	Binary bool
	// MaxDepth limits tree depth (root = 0); 0 means unlimited.
	MaxDepth int
	// MinSplit is the minimum number of records required to attempt a
	// split (default 2: grow to purity, as the paper's initial tree does).
	MinSplit int
	// MinGain is the minimum impurity gain for a split to be accepted
	// (default 1e-9, i.e. any strictly positive gain).
	MinGain float64
	// Binner enables per-node discretization of continuous attributes
	// (required by the breadth-first and parallel builders whenever the
	// schema has continuous attributes).
	Binner *discretize.NodeBinner
	// Reuse gates the statistics-reuse layer (sibling subtraction and
	// sparse reduction encoding). The zero value disables it, keeping the
	// build path bit-identical to a build predating the layer; enabling it
	// changes modeled costs and wire traffic but never the tree.
	Reuse kernel.Options
	// Vote gates voting-based (two-round top-k) split selection in the
	// parallel builders: ranks nominate their top-K attributes from local
	// statistics and only the ≤2K elected candidates' histograms are
	// reduced in full. The zero value (and any K ≥ the attribute count)
	// keeps the exact path, bit-identical trees and breakdowns included;
	// small K trades a bounded accuracy epsilon for reduction volume
	// independent of the attribute count.
	Vote kernel.VoteOptions
}

// WithDefaults fills unset fields with their defaults.
func (o Options) WithDefaults() Options {
	if o.MinSplit == 0 {
		o.MinSplit = 2
	}
	if o.MinGain == 0 {
		o.MinGain = 1e-9
	}
	return o
}

// StatsLen returns the length of the flattened int64 statistics vector of
// one frontier node under the schema and options: the class distribution
// followed by one class-histogram block per attribute (cardinality×C for
// categorical, MicroBins×C for continuous). This is the unit of the
// synchronous formulation's global reduction.
func StatsLen(s *dataset.Schema, o Options) int {
	c := s.NumClasses()
	n := c
	for _, a := range s.Attrs {
		if a.Kind == dataset.Categorical {
			n += a.Cardinality() * c
		} else {
			if o.Binner == nil {
				panic(fmt.Sprintf("tree: schema has continuous attribute %q but Options.Binner is nil", a.Name))
			}
			n += o.Binner.MicroBins * c
		}
	}
	return n
}

// NewStatsSpec builds the kernel tabulation spec of the dataset under the
// options: the column, bin-count and micro-edge description the statistics
// kernel consumes. The spec is immutable and safe for concurrent use;
// builders construct it once per build (or per level) and reuse it across
// every node, so the per-node hot path does no schema walking and no edge
// recomputation.
func NewStatsSpec(d *dataset.Dataset, o Options) *kernel.Spec {
	sp := newSpec(d.Schema, o)
	bind(sp, d.Class, d.Cat, d.Cont)
	return sp
}

// NodeStats is the decoded view of one node's flattened statistics. Hists
// alias the flat buffer (no copies).
type NodeStats struct {
	Dist  []int64
	Hists []*criteria.Hist // per attribute; micro-histogram for continuous
}

// DecodeStats wraps a flattened statistics vector (as produced by
// kernel.TabulateInto, possibly after reduction) in a NodeStats view.
func DecodeStats(flat []int64, s *dataset.Schema, o Options) *NodeStats {
	return new(NodeStats).Decode(flat, s, o)
}

// Decode re-points the view ns at flat and returns it. A view decoded
// before under the same schema keeps its histograms, so a level loop
// that decodes node after node into one view allocates nothing; the
// previous decoding is gone, so nothing may hold it past its use.
func (ns *NodeStats) Decode(flat []int64, s *dataset.Schema, o Options) *NodeStats {
	c := s.NumClasses()
	ns.Dist = flat[:c]
	if len(ns.Hists) != len(s.Attrs) {
		hs := make([]criteria.Hist, len(s.Attrs))
		ns.Hists = make([]*criteria.Hist, len(s.Attrs))
		for a := range hs {
			ns.Hists[a] = &hs[a]
		}
	}
	off := c
	for a, attr := range s.Attrs {
		m := attr.Cardinality()
		if attr.Kind == dataset.Continuous {
			m = o.Binner.MicroBins
		}
		*ns.Hists[a] = criteria.Hist{M: m, C: c, Counts: flat[off : off+m*c]}
		off += m * c
	}
	return ns
}

// MaySplit is the leaf pre-check every builder runs on a node of n
// training cases with class distribution dist at depth: it returns the
// node's impurity and whether the node may split at all. A node too small
// (MinSplit), at MaxDepth, or pure (Case 1 of Hunt's method) may not.
func (o Options) MaySplit(dist []int64, n int64, depth int) (parent float64, ok bool) {
	if n < int64(o.MinSplit) || (o.MaxDepth > 0 && depth >= o.MaxDepth) {
		return 0, false
	}
	parent = o.Criterion.Impurity(dist, n)
	return parent, parent != 0
}

// CatKind is the test a categorical attribute gets: a binary subset test
// under Binary, one child per value otherwise.
func (o Options) CatKind() SplitKind {
	if o.Binary {
		return CatBinary
	}
	return CatMultiway
}

// Split is a chosen node test, produced by ChooseSplit and the baseline
// builders and applied identically by every processor. The zero Kind
// (Leaf) means no test has been chosen.
type Split struct {
	Attr   int
	Kind   SplitKind
	Thresh float64 // ContBinary threshold
	Mask   uint64
	Edges  []float64
	Gain   float64
}

// IsLeaf reports whether no test has been chosen.
func (sp Split) IsLeaf() bool { return sp.Kind == Leaf }

// Consider makes cand, with gain, the running best split when gain is
// strictly greater than the best gain so far, and reports whether it did.
// Every builder starts from Split{Gain: MinGain} and visits attributes in
// ascending order, so ties go to the lowest attribute index.
func (sp *Split) Consider(cand Split, gain float64) bool {
	if gain > sp.Gain {
		cand.Gain = gain
		*sp = cand
		return true
	}
	return false
}

// NumChildren returns the branching factor of the split given the schema.
func (sp Split) NumChildren(s *dataset.Schema) int {
	switch sp.Kind {
	case CatBinary, ContBinary:
		return 2
	case CatMultiway:
		return s.Attrs[sp.Attr].Cardinality()
	case ContBinned:
		if sp.Mask != 0 {
			return 2
		}
		return len(sp.Edges) + 1
	default:
		panic(fmt.Sprintf("tree: NumChildren on %v split", sp.Kind))
	}
}

// ChooseSplit evaluates every attribute on the (global) node statistics
// and returns the best split, or ok=false when the node must become a
// leaf (pure, too small, at max depth, or no attribute achieves MinGain).
// The decision is a pure function of (stats, depth, options) — every
// processor holding the same reduced statistics reaches the same decision,
// with ties broken by ascending attribute index.
func ChooseSplit(stats *NodeStats, s *dataset.Schema, o Options, depth int) (Split, bool) {
	var n int64
	for _, v := range stats.Dist {
		n += v
	}
	parent, ok := o.MaySplit(stats.Dist, n, depth)
	if !ok {
		return Split{}, false
	}
	best := Split{Gain: o.MinGain}
	for a, attr := range s.Attrs {
		h := stats.Hists[a]
		cand := Split{Attr: a, Kind: o.CatKind()}
		if attr.Kind == dataset.Continuous {
			edges, assign := o.Binner.Edges(h, a)
			if len(edges) == 0 {
				continue // attribute constant at this node
			}
			h = discretize.Aggregate(h, assign)
			cand.Kind, cand.Edges = ContBinned, edges
		}
		var score float64
		var valid bool
		cand.Mask, score, valid = criteria.ScoreHist(h, o.Criterion, o.Binary)
		if valid {
			best.Consider(cand, parent-score)
		}
	}
	return best, !best.IsLeaf()
}

// ScoreAttr scores attribute a on the rows idx of d the way Hunt's method
// does (§2.1): a categorical attribute from its class-distribution table,
// a continuous one by sorting the rows' values and scanning every
// distinct binary cut, for a native "value ≤ t" test. It returns the
// candidate test (Gain unset), its expected impurity, and ok=false when
// the attribute offers no valid split.
func ScoreAttr(d *dataset.Dataset, idx []int32, a int, o Options) (Split, float64, bool) {
	s := d.Schema
	attr := s.Attrs[a]
	if attr.Kind == dataset.Categorical {
		h := criteria.GetHist(attr.Cardinality(), s.NumClasses())
		criteria.HistInto(h, d.Cat[a], d.Class, idx)
		mask, score, ok := criteria.ScoreHist(h, o.Criterion, o.Binary)
		criteria.PutHist(h)
		return Split{Attr: a, Kind: o.CatKind(), Mask: mask}, score, ok
	}
	values := make([]float64, len(idx))
	classes := make([]int32, len(idx))
	for j, i := range idx {
		values[j] = d.Cont[a][i]
		classes[j] = d.Class[i]
	}
	criteria.SortPairs(values, classes)
	cs, ok := criteria.BestContinuousSplit(values, classes, s.NumClasses(), o.Criterion)
	return Split{Attr: a, Kind: ContBinary, Thresh: cs.Thresh}, cs.Score, ok
}

// Apply attaches the split to node n and creates its children as
// placeholder nodes (filled in by the builder when their statistics
// arrive). Children start as leaves carrying the parent's majority class
// so that empty partitions classify per Case 3.
func (sp Split) Apply(n *Node, s *dataset.Schema, nextID func() int64) {
	n.Kind = sp.Kind
	n.Attr = sp.Attr
	n.Thresh = sp.Thresh
	n.Mask = sp.Mask
	n.Edges = sp.Edges
	k := sp.NumChildren(s)
	n.Children = make([]*Node, k)
	for i := range n.Children {
		n.Children[i] = &Node{
			ID:    nextID(),
			Kind:  Leaf,
			Class: n.Class,
			Depth: n.Depth + 1,
			Dist:  make([]int64, s.NumClasses()),
		}
	}
}

// PartitionRows distributes the rows idx of node n among its children
// according to the attached split, returning one index slice per child
// (nil for a child that receives no row). Order within each child
// preserves the input order. The children are carved from one exact-size
// array, each capped at its own length, so an append to one child
// reallocates it instead of overwriting its neighbour. The returned op
// count (one test per row) feeds the modeled computation cost.
func PartitionRows(n *Node, d *dataset.Dataset, idx []int32) ([][]int32, int64) {
	parts := make([][]int32, len(n.Children))
	sc := partScratchPool.Get().(*partScratch)
	sc.counts = grow(sc.counts, len(parts))
	clear(sc.counts)
	if len(parts) <= 1<<8 {
		sc.codes8 = grow(sc.codes8, len(idx))
		partitionInto(parts, n, d, idx, sc.codes8, sc.counts)
	} else {
		sc.codes32 = grow(sc.codes32, len(idx))
		partitionInto(parts, n, d, idx, sc.codes32, sc.counts)
	}
	partScratchPool.Put(sc)
	return parts, int64(len(idx))
}

// partScratch is PartitionRows' per-call working memory: every row's
// child code — one byte each when the children fit — and the per-child
// counts.
type partScratch struct {
	codes8  []uint8
	codes32 []int32
	counts  []int
}

var partScratchPool = sync.Pool{New: func() any { return new(partScratch) }}

// grow returns s resized to n, reallocating only when it is too small.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// partitionInto routes every row of idx once, recording its child in
// codes and counting it in the zeroed counts, then carves the children
// of parts from one backing array and fills them in input order.
func partitionInto[C uint8 | int32](parts [][]int32, n *Node, d *dataset.Dataset, idx []int32, codes []C, counts []int) {
	for j, i := range idx {
		c := n.RouteRow(d, int(i))
		codes[j] = C(c)
		counts[c]++
	}
	all := make([]int32, len(idx))
	off := 0
	for c, m := range counts {
		if m > 0 {
			parts[c] = all[off : off : off+m]
			off += m
		}
	}
	for j, i := range idx {
		c := codes[j]
		parts[c] = append(parts[c], i)
	}
}
