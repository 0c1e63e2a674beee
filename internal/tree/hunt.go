package tree

import "partree/internal/dataset"

// BuildHunt grows a tree depth-first with Hunt's method exactly as §2.1
// describes the C4.5 baseline: at every node each categorical attribute is
// evaluated from its class-distribution table (Table 2) and each
// continuous attribute by sorting the node's cases and scanning every
// distinct binary cut (Table 3). Continuous attributes produce native
// "value ≤ t" tests, with no discretization. It is the golden-reference
// implementation for Figure 1 and the accuracy baseline of the examples;
// the parallel formulations instead parallelize the breadth-first builder,
// as the paper does.
func BuildHunt(d *dataset.Dataset, o Options) *Tree {
	o = o.WithDefaults()
	root := &Node{ID: 0, Kind: Leaf, Dist: make([]int64, d.Schema.NumClasses())}
	ids := NewIDGen(1)
	huntExpand(d, FrontierItem{Node: root, Idx: d.AllIndex()}, o, ids)
	return &Tree{Schema: d.Schema, Root: root}
}

func huntExpand(d *dataset.Dataset, it FrontierItem, o Options, ids *IDGen) {
	n := it.Node
	s := d.Schema
	dist := make([]int64, s.NumClasses())
	for _, i := range it.Idx {
		dist[d.Class[i]]++
	}
	n.SetDist(dist)
	parent, ok := o.MaySplit(dist, n.N, n.Depth)
	if !ok {
		return
	}

	// Case 2: choose the attribute test with the best gain (ties broken by
	// ascending attribute index, as everywhere else).
	best := Split{Gain: o.MinGain}
	for a := range s.Attrs {
		if cand, score, ok := ScoreAttr(d, it.Idx, a, o); ok {
			best.Consider(cand, parent-score)
		}
	}
	if best.IsLeaf() {
		return
	}
	// Attach the chosen test and recurse depth-first.
	best.Apply(n, s, ids.Next)
	parts, _ := PartitionRows(n, d, it.Idx)
	for ci, part := range parts {
		if len(part) > 0 {
			huntExpand(d, FrontierItem{Node: n.Children[ci], Idx: part}, o, ids)
		}
	}
}
