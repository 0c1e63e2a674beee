// Package flat compiles a pointer-linked *tree.Tree into a contiguous
// struct-of-arrays node table for cache-friendly batched inference. The
// training-side representation (internal/tree) optimizes for growth —
// children hang off heap pointers, empty partitions are nil, and Case 3
// of Hunt's method (classify an empty branch with the nearest ancestor's
// majority class) is resolved by re-walking ancestors at classification
// time. The compiled form optimizes for serving: every node is a fixed
// set of scalar slots in parallel slices, children of one node are
// contiguous (one child base + offset instead of a pointer load), nil
// children become synthesized leaves, and the Case-3 fallback class is
// pre-resolved into every node so routing never looks back up the tree.
//
// The contract, checked by the differential tests, is bit-identical
// agreement with the pointer tree: for every dataset row,
// Model.PredictFrom(d, i, 0) == Tree.ClassifyRow(d, i). Serving walks the
// same table as a one-member forest.Fused, which embeds it.
package flat

import (
	"fmt"

	"partree/internal/criteria"
	"partree/internal/dataset"
	"partree/internal/tree"
)

// Model is the compiled struct-of-arrays form of one decision tree, or
// of several trees sharing one table (a fused forest roots member t at
// node t). All per-node slices share indexing: node i's split kind is
// Kind[i], its children (if any) are the NumChild[i] consecutive nodes
// starting at ChildBase[i] (-1 for leaves), and Class[i] is the class to
// predict if classification stops at node i — the node's own majority
// class when it saw training cases, otherwise the pre-resolved
// nearest-ancestor fallback.
type Model struct {
	Schema *dataset.Schema

	Kind      []tree.SplitKind
	Attr      []int32   // attribute tested (internal nodes)
	Thresh    []float64 // ContBinary threshold
	Mask      []uint64  // CatBinary / binary ContBinned left-subset mask
	ChildBase []int32   // index of first child; children are contiguous
	NumChild  []int32   // 0 for leaves
	Class     []int32   // fallback-resolved prediction class

	// ContBinned bin boundaries, concatenated; node i's edges are
	// Edges[EdgeBase[i] : EdgeBase[i]+EdgeLen[i]].
	EdgeBase []int32
	EdgeLen  []int32
	Edges    []float64
}

// Len returns the number of compiled nodes (synthesized leaves included).
func (m *Model) Len() int { return len(m.Kind) }

// Leaves returns the number of leaf slots in the compiled table.
func (m *Model) Leaves() int {
	n := 0
	for _, k := range m.Kind {
		if k == tree.Leaf {
			n++
		}
	}
	return n
}

// compileNode pairs a source pointer node with the fallback class in
// force when the walk reaches it (the class Tree.Classify would return if
// routing stopped there).
type compileNode struct {
	src      *tree.Node
	fallback int32
}

// Compile flattens t into a Model. Nil children (empty partitions, Case 3
// of Hunt's method) are materialized as leaves carrying the parent's
// effective class; every node's Class slot is the fully resolved
// prediction so the walk never consults ancestors.
func Compile(t *tree.Tree) (*Model, error) {
	if t == nil || t.Root == nil {
		return nil, fmt.Errorf("flat: nil tree")
	}
	if t.Schema == nil {
		return nil, fmt.Errorf("flat: tree has no schema")
	}
	m := &Model{Schema: t.Schema}

	// Breadth-first layout: a node's children are appended as one
	// contiguous run, so sibling lookups are a base + offset.
	queue := []compileNode{{src: t.Root, fallback: t.Root.Class}}
	emit := func(cn compileNode) error {
		n := cn.src
		eff := cn.fallback
		if n != nil && n.N > 0 {
			eff = n.Class
		}
		if n == nil || n.IsLeaf() {
			m.Kind = append(m.Kind, tree.Leaf)
			m.Attr = append(m.Attr, -1)
			m.Thresh = append(m.Thresh, 0)
			m.Mask = append(m.Mask, 0)
			m.ChildBase = append(m.ChildBase, -1)
			m.NumChild = append(m.NumChild, 0)
			m.Class = append(m.Class, eff)
			m.EdgeBase = append(m.EdgeBase, 0)
			m.EdgeLen = append(m.EdgeLen, 0)
			return nil
		}
		if n.Attr < 0 || n.Attr >= t.Schema.NumAttrs() {
			return fmt.Errorf("flat: node attribute %d out of schema range", n.Attr)
		}
		if k := n.NumChildren(); k != len(n.Children) {
			return fmt.Errorf("flat: %v node has %d children, kind implies %d", n.Kind, len(n.Children), k)
		}
		m.Kind = append(m.Kind, n.Kind)
		m.Attr = append(m.Attr, int32(n.Attr))
		m.Thresh = append(m.Thresh, n.Thresh)
		m.Mask = append(m.Mask, n.Mask)
		m.ChildBase = append(m.ChildBase, 0) // patched when children are queued
		m.NumChild = append(m.NumChild, int32(len(n.Children)))
		m.Class = append(m.Class, eff)
		m.EdgeBase = append(m.EdgeBase, int32(len(m.Edges)))
		m.EdgeLen = append(m.EdgeLen, int32(len(n.Edges)))
		m.Edges = append(m.Edges, n.Edges...)
		return nil
	}

	next := 0 // index of the next compiled node to expand
	if err := emit(queue[0]); err != nil {
		return nil, err
	}
	for len(queue) > 0 {
		cn := queue[0]
		queue = queue[1:]
		i := next
		next++
		if m.Kind[i] == tree.Leaf {
			continue
		}
		eff := m.Class[i]
		m.ChildBase[i] = int32(m.Len())
		for _, c := range cn.src.Children {
			child := compileNode{src: c, fallback: eff}
			if err := emit(child); err != nil {
				return nil, err
			}
			queue = append(queue, child)
		}
	}
	return m, nil
}

// PredictFrom classifies row of d (which must share the model's schema
// layout) by walking the table from node root; a table Compile built
// roots its tree at node 0. A table may hold several trees — a fused
// forest's merged table roots member t at node t — and this is the one
// bounds-checked walk over all of them. Out-of-range child indexes
// predict the current node's resolved class, exactly as the pointer walk
// does.
//
// The walk is hand-specialized per split kind: the split kind statically
// determines which column family (Cat/Cont) is read — no per-node nil
// probe as in the pointer walk — and binary kinds need no child-range
// check at all (the compiler laid out exactly two children). Only
// CatMultiway can route out of range. A category or bin index ≥ 64
// never matches a mask, so it routes to child 1, as in the pointer walk.
func (m *Model) PredictFrom(d *dataset.Dataset, row int, root int32) int32 {
	i := root
	for {
		switch m.Kind[i] {
		case tree.Leaf:
			return m.Class[i]
		case tree.ContBinary:
			var c int32
			if d.Cont[m.Attr[i]][row] > m.Thresh[i] {
				c = 1
			}
			i = m.ChildBase[i] + c
		case tree.CatBinary:
			v := d.Cat[m.Attr[i]][row]
			c := int32(1)
			if uint32(v) < 64 && m.Mask[i]&(1<<uint32(v)) != 0 {
				c = 0
			}
			i = m.ChildBase[i] + c
		case tree.CatMultiway:
			c := d.Cat[m.Attr[i]][row]
			if uint32(c) >= uint32(m.NumChild[i]) {
				return m.Class[i]
			}
			i = m.ChildBase[i] + c
		default: // ContBinned
			edges := m.Edges[m.EdgeBase[i] : m.EdgeBase[i]+m.EdgeLen[i]]
			b := criteria.BinOf(edges, d.Cont[m.Attr[i]][row])
			if mask := m.Mask[i]; mask != 0 {
				c := int32(1)
				if b < 64 && mask&(1<<uint(b)) != 0 {
					c = 0
				}
				i = m.ChildBase[i] + c
			} else {
				i = m.ChildBase[i] + int32(b) // b ≤ len(edges) < NumChild by construction
			}
		}
	}
}

// PredictInto classifies rows [lo, hi) of d into out[lo:hi], one
// PredictFrom walk per row. It is the per-tree baseline the fused walk is
// measured against (dtload -selfbench's single-tree column); serving
// goes through forest.Fused.
func (m *Model) PredictInto(d *dataset.Dataset, out []int32, lo, hi int) {
	for i := lo; i < hi; i++ {
		out[i] = m.PredictFrom(d, i, 0)
	}
}
