// Package tree implements the classification-tree model and the serial
// induction algorithms: Hunt's method grown depth-first with native
// continuous-attribute handling (the C4.5 baseline of §2.1) and the
// breadth-first level-synchronous builder that is the P=1 reference — and
// shared split-selection core — for every parallel formulation in
// internal/core.
package tree

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"partree/internal/criteria"
	"partree/internal/dataset"
)

// SplitKind enumerates the test attached to an internal node.
type SplitKind uint8

const (
	// Leaf nodes carry only a class label.
	Leaf SplitKind = iota
	// CatMultiway: one child per categorical value (classic C4.5).
	CatMultiway
	// CatBinary: binary test "value ∈ subset" on a categorical attribute;
	// Mask bit v set means value v routes to child 0.
	CatBinary
	// ContBinary: binary test "value ≤ Thresh" on a continuous attribute.
	ContBinary
	// ContBinned: a continuous attribute discretized at this node into
	// len(Edges)+1 bins (per-node clustering, the SPEC approach referenced
	// by the paper). With a zero Mask it is multiway over bins; with a
	// non-zero Mask it is the binary test "bin ∈ subset".
	ContBinned
)

// String names the split kind.
func (k SplitKind) String() string {
	switch k {
	case Leaf:
		return "leaf"
	case CatMultiway:
		return "cat-multiway"
	case CatBinary:
		return "cat-binary"
	case ContBinary:
		return "cont-binary"
	case ContBinned:
		return "cont-binned"
	default:
		return fmt.Sprintf("SplitKind(%d)", uint8(k))
	}
}

// Node is one decision-tree node. Leaves have Kind == Leaf and no
// children; internal nodes carry the test parameters for their kind. A nil
// or zero-count child corresponds to Case 3 of Hunt's method: records
// routed there are classified with the parent's majority class.
type Node struct {
	ID     int64 // deterministic breadth-first id (0 = root)
	Kind   SplitKind
	Attr   int       // attribute tested (internal nodes)
	Thresh float64   // ContBinary threshold
	Mask   uint64    // CatBinary / binary ContBinned left-subset mask
	Edges  []float64 // ContBinned bin boundaries (ascending)

	Children []*Node
	Class    int32   // majority class of the training cases at this node
	N        int64   // training cases at this node
	Dist     []int64 // class distribution at this node
	Depth    int
}

// IsLeaf reports whether the node is a leaf.
func (n *Node) IsLeaf() bool { return n.Kind == Leaf }

// NumChildren returns the branching factor implied by the split kind.
func (n *Node) NumChildren() int {
	switch n.Kind {
	case Leaf:
		return 0
	case CatBinary, ContBinary:
		return 2
	case ContBinned:
		if n.Mask != 0 {
			return 2
		}
		return len(n.Edges) + 1
	case CatMultiway:
		return len(n.Children)
	default:
		panic("tree: unknown split kind")
	}
}

// binOf locates the ContBinned bin of v; bins follow the shared half-open
// convention of criteria.BinOf: (-inf, e0], (e0, e1], ..., (ek-1, +inf).
func binOf(edges []float64, v float64) int { return criteria.BinOf(edges, v) }

// MaxMaskValues is the largest cardinality (categorical values, or bins
// of a binary ContBinned test) a subset mask can represent. Split
// construction never emits a masked test above it and ReadJSON rejects
// models that carry one: an index ≥ 64 would shift past the mask width
// and silently route to child 1.
const MaxMaskValues = 64

// maskHas reports whether mask routes index v to child 0, treating any
// index outside the representable 0..63 range as not in the subset.
func maskHas(mask uint64, v int) bool {
	return v >= 0 && v < MaxMaskValues && mask&(1<<uint(v)) != 0
}

// routeValue computes the child index for a raw attribute value
// (categorical code in cat, continuous value in cont; only the one
// matching the split kind is read).
func (n *Node) routeValue(cat int32, cont float64) int {
	switch n.Kind {
	case CatMultiway:
		return int(cat)
	case CatBinary:
		if maskHas(n.Mask, int(cat)) {
			return 0
		}
		return 1
	case ContBinary:
		if cont <= n.Thresh {
			return 0
		}
		return 1
	case ContBinned:
		b := binOf(n.Edges, cont)
		if n.Mask != 0 {
			if maskHas(n.Mask, b) {
				return 0
			}
			return 1
		}
		return b
	default:
		panic("tree: routing on a leaf")
	}
}

// RouteValue returns the child index that an attribute-list value
// follows: a categorical code stored as a float64, or a continuous value.
// The list builders (SLIQ, SPRINT, ScalParC) route their entries with it.
func (n *Node) RouteValue(v float64) int { return n.routeValue(int32(v), v) }

// RouteRow returns the child index that row i of d follows.
func (n *Node) RouteRow(d *dataset.Dataset, i int) int {
	if d.Cat[n.Attr] != nil {
		return n.routeValue(d.Cat[n.Attr][i], 0)
	}
	return n.routeValue(0, d.Cont[n.Attr][i])
}

// RouteRecord returns the child index that a record follows.
func (n *Node) RouteRecord(r *dataset.Record) int {
	return n.routeValue(r.Cat[n.Attr], r.Cont[n.Attr])
}

// SetDist records the node's training cases: a copy of the class
// distribution dist, the case count and, when the node holds any case,
// the majority class (an empty node keeps the class it inherited, Case 3
// of Hunt's method).
func (n *Node) SetDist(dist []int64) {
	n.Dist = append(n.Dist[:0], dist...)
	n.N = 0
	for _, v := range dist {
		n.N += v
	}
	if n.N > 0 {
		n.Class = MajorityClass(dist)
	}
}

// Tree pairs a root node with its schema.
type Tree struct {
	Schema *dataset.Schema
	Root   *Node
}

// Classify returns the predicted class of a record.
func (t *Tree) Classify(r *dataset.Record) int32 {
	return t.classify(func(n *Node) int { return n.RouteRecord(r) })
}

// ClassifyRow classifies row i of a dataset (which must share the schema).
func (t *Tree) ClassifyRow(d *dataset.Dataset, i int) int32 {
	return t.classify(func(n *Node) int { return n.RouteRow(d, i) })
}

// classify routes from the root to a leaf, taking at each internal node
// the child index route returns; empty children (Case 3 of Hunt's
// method) and out-of-range indexes predict the most frequent class of
// the nearest ancestor with data.
func (t *Tree) classify(route func(*Node) int) int32 {
	n := t.Root
	class := n.Class
	for n != nil && !n.IsLeaf() {
		if n.N > 0 {
			class = n.Class
		}
		c := route(n)
		if c < 0 || c >= len(n.Children) {
			return class
		}
		n = n.Children[c]
	}
	if n != nil && n.N > 0 {
		class = n.Class
	}
	return class
}

// Accuracy returns the fraction of rows of d the tree classifies
// correctly.
func (t *Tree) Accuracy(d *dataset.Dataset) float64 {
	acc, _ := t.AccuracyTable(d.Chunked(0)) // an in-RAM table never fails a read
	return acc
}

// Stats summarizes a tree's shape.
type Stats struct {
	Nodes    int
	Leaves   int
	MaxDepth int
}

// Stats computes node/leaf counts and depth.
func (t *Tree) Stats() Stats {
	var s Stats
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil {
			return
		}
		s.Nodes++
		if n.Depth > s.MaxDepth {
			s.MaxDepth = n.Depth
		}
		if n.IsLeaf() {
			s.Leaves++
			return
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t.Root)
	return s
}

// LevelWidths returns, per depth, how many nodes carried training cases —
// the frontier widths the breadth-first builders processed level by
// level. This is the workload profile the analytic cost model
// (internal/model) consumes.
func (t *Tree) LevelWidths() []int {
	var widths []int
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil || n.N == 0 {
			return
		}
		for len(widths) <= n.Depth {
			widths = append(widths, 0)
		}
		widths[n.Depth]++
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t.Root)
	return widths
}

// LevelRecords returns, per depth, how many training cases sat at the
// frontier nodes of that depth — the per-level scan volume of the
// breadth-first builders, consumed by the analytic model alongside
// LevelWidths.
func (t *Tree) LevelRecords() []int {
	var recs []int
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil || n.N == 0 {
			return
		}
		for len(recs) <= n.Depth {
			recs = append(recs, 0)
		}
		recs[n.Depth] += int(n.N)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t.Root)
	return recs
}

// Equal reports whether two trees are structurally identical: same kinds,
// attributes, test parameters, distributions and children. This is the
// invariant checked between the serial builder and every parallel
// formulation.
func Equal(a, b *Tree) bool { return nodeEqual(a.Root, b.Root) }

func nodeEqual(a, b *Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Kind != b.Kind || a.N != b.N || a.Class != b.Class || a.Depth != b.Depth || !slices.Equal(a.Dist, b.Dist) {
		return false
	}
	if a.Kind == Leaf {
		return true
	}
	if a.Attr != b.Attr || a.Thresh != b.Thresh || a.Mask != b.Mask ||
		!slices.Equal(a.Edges, b.Edges) || len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Children {
		if !nodeEqual(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// Diff returns a short description of the first structural difference
// between two trees, or "" when they are equal. Used by tests to produce
// actionable failures.
func Diff(a, b *Tree) string { return nodeDiff(a.Root, b.Root, "root") }

func nodeDiff(a, b *Node, path string) string {
	switch {
	case a == nil && b == nil:
		return ""
	case a == nil || b == nil:
		return fmt.Sprintf("%s: one side nil", path)
	case a.Kind != b.Kind:
		return fmt.Sprintf("%s: kind %v vs %v", path, a.Kind, b.Kind)
	case a.N != b.N:
		return fmt.Sprintf("%s: N %d vs %d", path, a.N, b.N)
	case a.Class != b.Class:
		return fmt.Sprintf("%s: class %d vs %d", path, a.Class, b.Class)
	case a.Depth != b.Depth:
		return fmt.Sprintf("%s: depth %d vs %d", path, a.Depth, b.Depth)
	case !slices.Equal(a.Dist, b.Dist):
		return fmt.Sprintf("%s: dist %v vs %v", path, a.Dist, b.Dist)
	case a.Kind == Leaf:
		return ""
	case a.Attr != b.Attr:
		return fmt.Sprintf("%s: attr %d vs %d", path, a.Attr, b.Attr)
	case a.Thresh != b.Thresh || a.Mask != b.Mask:
		return fmt.Sprintf("%s: test params differ (thresh %g vs %g, mask %x vs %x)", path, a.Thresh, b.Thresh, a.Mask, b.Mask)
	case !slices.Equal(a.Edges, b.Edges):
		return fmt.Sprintf("%s: edges %v vs %v", path, a.Edges, b.Edges)
	case len(a.Children) != len(b.Children):
		return fmt.Sprintf("%s: %d vs %d children", path, len(a.Children), len(b.Children))
	}
	for i := range a.Children {
		if d := nodeDiff(a.Children[i], b.Children[i], fmt.Sprintf("%s.%d", path, i)); d != "" {
			return d
		}
	}
	return ""
}

// String renders the tree in indented form for debugging and the examples.
func (t *Tree) String() string {
	var b strings.Builder
	t.write(&b, t.Root, 0)
	return b.String()
}

func (t *Tree) write(b *strings.Builder, n *Node, depth int) {
	if n == nil {
		fmt.Fprintf(b, "%s<empty>\n", strings.Repeat("  ", depth))
		return
	}
	ind := strings.Repeat("  ", depth)
	if n.IsLeaf() {
		fmt.Fprintf(b, "%sleaf class=%s n=%d\n", ind, t.Schema.Classes[n.Class], n.N)
		return
	}
	attr := t.Schema.Attrs[n.Attr]
	switch n.Kind {
	case CatMultiway:
		fmt.Fprintf(b, "%ssplit %s (multiway, n=%d)\n", ind, attr.Name, n.N)
		for v, c := range n.Children {
			fmt.Fprintf(b, "%s= %s:\n", strings.Repeat("  ", depth+1), attr.Values[v])
			t.write(b, c, depth+2)
		}
	case CatBinary:
		var left []string
		for v := 0; v < attr.Cardinality(); v++ {
			if n.Mask&(1<<uint(v)) != 0 {
				left = append(left, attr.Values[v])
			}
		}
		fmt.Fprintf(b, "%ssplit %s in {%s}? (n=%d)\n", ind, attr.Name, strings.Join(left, ","), n.N)
		t.write(b, n.Children[0], depth+1)
		t.write(b, n.Children[1], depth+1)
	case ContBinary:
		fmt.Fprintf(b, "%ssplit %s <= %g? (n=%d)\n", ind, attr.Name, n.Thresh, n.N)
		t.write(b, n.Children[0], depth+1)
		t.write(b, n.Children[1], depth+1)
	case ContBinned:
		fmt.Fprintf(b, "%ssplit %s binned %v mask=%s (n=%d)\n", ind, attr.Name, n.Edges, maskString(n.Mask, len(n.Edges)+1), n.N)
		for _, c := range n.Children {
			t.write(b, c, depth+1)
		}
	}
}

func maskString(mask uint64, m int) string {
	if mask == 0 {
		return "-"
	}
	var b strings.Builder
	for v := 0; v < m; v++ {
		if mask&(1<<uint(v)) != 0 {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// SubtreeBytes estimates the wire size of a subtree when shipped between
// processors during tree assembly: a fixed header per node plus its edge
// list and class distribution.
func SubtreeBytes(n *Node) int {
	if n == nil {
		return 0
	}
	b := 40 + 8*len(n.Edges) + 8*len(n.Dist)
	for _, c := range n.Children {
		b += SubtreeBytes(c)
	}
	return b
}

// MajorityClass returns the smallest class index achieving the maximum
// count (the deterministic tie-break used everywhere).
func MajorityClass(dist []int64) int32 {
	best, bestN := 0, int64(-1)
	for c, n := range dist {
		if n > bestN {
			best, bestN = c, n
		}
	}
	return int32(best)
}

// maskBits counts the set bits of a mask (used in validation).
func maskBits(m uint64) int { return bits.OnesCount64(m) }
