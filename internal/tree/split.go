package tree

import (
	"fmt"

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

// ComputeStatsInto tabulates the class distribution and per-attribute
// histograms of the rows idx into the flattened vector flat (length
// StatsLen), accumulating on top of existing counts, through the shared
// statistics kernel (which parallelizes large nodes across a bounded
// intra-rank worker set). Returns the modeled operation count: one op per
// record-attribute touch (the per-level data scan) plus one op per
// histogram-table cell (the "initialization and update of all the class
// histogram tables" term of the paper's Equation 1, C·A_d·M per node —
// every cooperating processor pays it for every frontier node whether or
// not it holds that node's records, which is exactly why the synchronous
// formulation degrades on bushy levels). Callers expanding many nodes
// should build a NewStatsSpec once and call kernel.TabulateInto directly.
func ComputeStatsInto(flat []int64, d *dataset.Dataset, idx []int32, o Options) int64 {
	return kernel.TabulateInto(flat, idx, NewStatsSpec(d, o))
}

// NodeStats is the decoded view of one node's flattened statistics. Hists
// alias the flat buffer (no copies).
type NodeStats struct {
	Dist  []int64
	Hists []*criteria.Hist // per attribute; micro-histogram for continuous
}

// DecodeStats wraps a flattened statistics vector (as produced by
// ComputeStatsInto, possibly after reduction) in a NodeStats view.
func DecodeStats(flat []int64, s *dataset.Schema, o Options) *NodeStats {
	c := s.NumClasses()
	ns := &NodeStats{Dist: flat[:c], Hists: make([]*criteria.Hist, len(s.Attrs))}
	off := c
	for a, attr := range s.Attrs {
		m := attr.Cardinality()
		if attr.Kind == dataset.Continuous {
			m = o.Binner.MicroBins
		}
		ns.Hists[a] = &criteria.Hist{M: m, C: c, Counts: flat[off : off+m*c]}
		off += m * c
	}
	return ns
}

// Split is a chosen node test, produced by ChooseSplit and applied
// identically by every processor.
type Split struct {
	Attr  int
	Kind  SplitKind
	Mask  uint64
	Edges []float64
	Gain  float64
}

// NumChildren returns the branching factor of the split given the schema.
func (sp Split) NumChildren(s *dataset.Schema) int {
	switch sp.Kind {
	case CatBinary:
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
	if n < int64(o.MinSplit) || (o.MaxDepth > 0 && depth >= o.MaxDepth) {
		return Split{}, false
	}
	parent := o.Criterion.Impurity(stats.Dist, n)
	if parent == 0 {
		return Split{}, false // pure node, Case 1 of Hunt's method
	}
	best := Split{Gain: o.MinGain}
	found := false
	for a, attr := range s.Attrs {
		h := stats.Hists[a]
		var cand Split
		var score float64
		var valid bool
		if attr.Kind == dataset.Categorical {
			cand.Attr, cand.Kind = a, CatMultiway
			if o.Binary {
				cand.Kind = CatBinary
			}
			cand.Mask, score, valid = criteria.ScoreHist(h, o.Criterion, o.Binary)
		} else {
			edges, assign := o.Binner.Edges(h, a)
			if len(edges) == 0 {
				continue // attribute constant at this node
			}
			agg := discretize.Aggregate(h, assign)
			cand.Attr, cand.Kind, cand.Edges = a, ContBinned, edges
			cand.Mask, score, valid = criteria.ScoreHist(agg, o.Criterion, o.Binary)
		}
		if !valid {
			continue
		}
		gain := parent - score
		if gain > best.Gain {
			cand.Gain = gain
			best = cand
			found = true
		}
	}
	return best, found
}

// Apply attaches the split to node n and creates its children as
// placeholder nodes (filled in by the builder when their statistics
// arrive). Children start as leaves carrying the parent's majority class
// so that empty partitions classify per Case 3.
func (sp Split) Apply(n *Node, s *dataset.Schema, nextID func() int64) {
	n.Kind = sp.Kind
	n.Attr = sp.Attr
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
// according to the attached split, returning one index slice per child.
// Order within each child preserves the input order. The returned op
// count (one test per row) feeds the modeled computation cost.
func PartitionRows(n *Node, d *dataset.Dataset, idx []int32) ([][]int32, int64) {
	k := len(n.Children)
	parts := make([][]int32, k)
	for _, i := range idx {
		c := n.RouteRow(d, int(i))
		parts[c] = append(parts[c], i)
	}
	return parts, int64(len(idx))
}
