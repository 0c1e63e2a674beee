// Package sprint implements the serial SPRINT classifier of Shafer,
// Agrawal & Mehta (VLDB 1996), the related-work baseline §2.1–2.2 of the
// paper builds on: continuous attributes are pre-sorted exactly once into
// attribute lists of (value, record id, class) entries; the best binary
// split of a node is found in one scan of each sorted list (no per-node
// re-sorting, unlike C4.5); and after a split every attribute list is
// partitioned among the children by probing a hash table from record id to
// child, which preserves the sorted order.
//
// Given the same criterion and options it grows exactly the tree of
// tree.BuildHunt — the equivalence is asserted by the test suite — while
// trading the O(n log n) per-node sorts for one up-front sort plus an
// O(n) hash-probe partition per level, the efficiency argument of the
// SLIQ/SPRINT line of work.
package sprint

import (
	"sort"

	"partree/internal/criteria"
	"partree/internal/dataset"
	"partree/internal/kernel"
	"partree/internal/tree"
)

// entry is one attribute-list element.
type entry struct {
	value float64 // continuous value, or categorical code
	rid   int64
	class int32
}

// nodeLists holds one node's attribute lists, index-aligned with the
// schema (continuous lists stay sorted; categorical lists are in arrival
// order, which is irrelevant for histograms).
type nodeLists struct {
	node  *tree.Node
	lists [][]entry
}

// Build grows a decision tree with the SPRINT algorithm: BuildTable over
// the rows as one chunk, a zero-copy view whose reads cost nothing.
// Continuous attributes get native binary threshold tests; categorical
// attributes get binary subset tests when o.Binary is set, multiway tests
// otherwise.
func Build(d *dataset.Dataset, o tree.Options) *tree.Tree {
	tr, _ := BuildTable(d.Chunked(0), o) // a resident view reads without error
	return tr
}

// BuildTable grows a SPRINT tree from a chunked table. SPRINT's only
// whole-column access is the one-time pre-sorting pass, streamed chunk by
// chunk; the attribute lists it builds are SPRINT's own resident working
// set. The tree depends only on the rows, never on the chunking: entries
// arrive in row order and the (value, rid) comparator is a total order
// (rids are unique).
func BuildTable(t dataset.Table, o tree.Options) (*tree.Tree, error) {
	s := t.Schema()
	rootLists := make([][]entry, s.NumAttrs())
	for a := range s.Attrs {
		rootLists[a] = make([]entry, t.Len())
	}
	var ch dataset.Chunk
	for k := 0; k < t.NumChunks(); k++ {
		if _, err := t.ReadChunk(k, &ch); err != nil {
			return nil, err
		}
		for a := range s.Attrs {
			list := rootLists[a][ch.Lo:ch.Hi]
			if ch.Cont[a] != nil {
				for i, v := range ch.Cont[a] {
					list[i] = entry{value: v, rid: ch.RID[i], class: ch.Class[i]}
				}
			} else {
				for i, code := range ch.Cat[a] {
					list[i] = entry{value: float64(code), rid: ch.RID[i], class: ch.Class[i]}
				}
			}
		}
	}
	return grow(s, rootLists, o), nil
}

// grow is the SPRINT queue loop: continuous root lists are sorted by
// (value, rid), then nodes expand in breadth-first order.
func grow(s *dataset.Schema, rootLists [][]entry, o tree.Options) *tree.Tree {
	o = o.WithDefaults()
	root := &tree.Node{Kind: tree.Leaf, Dist: make([]int64, s.NumClasses())}
	ids := tree.NewIDGen(1)
	for a, attr := range s.Attrs {
		if attr.Kind != dataset.Continuous {
			continue
		}
		list := rootLists[a]
		sort.Slice(list, func(x, y int) bool {
			if list[x].value != list[y].value {
				return list[x].value < list[y].value
			}
			return list[x].rid < list[y].rid
		})
	}

	queue := []nodeLists{{node: root, lists: rootLists}}
	for len(queue) > 0 {
		nl := queue[0]
		queue = queue[1:]
		queue = append(queue, expand(nl, s, o, ids)...)
	}
	return &tree.Tree{Schema: s, Root: root}
}

// expand decides one node from its attribute lists and, if it splits,
// partitions the lists among the children via the rid hash table.
func expand(nl nodeLists, s *dataset.Schema, o tree.Options, ids *tree.IDGen) []nodeLists {
	n := nl.node
	c := s.NumClasses()

	// Class distribution from any one list (all lists hold the same rids).
	dist := make([]int64, c)
	for _, e := range nl.lists[0] {
		dist[e.class]++
	}
	n.Dist = dist
	n.N = int64(len(nl.lists[0]))
	if n.N > 0 {
		n.Class = tree.MajorityClass(dist)
	}
	if n.N < int64(o.MinSplit) || (o.MaxDepth > 0 && n.Depth >= o.MaxDepth) {
		return nil
	}
	parent := o.Criterion.Impurity(dist, n.N)
	if parent == 0 {
		return nil
	}

	// One scan per attribute list to find the best test. The kernel
	// scanner is shared across attributes, so the per-node scan is
	// allocation-free apart from its first use.
	bestGain := o.MinGain
	bestAttr := -1
	var bestKind tree.SplitKind
	var bestThresh float64
	var bestMask uint64
	var sc kernel.ContScanner
	for a, attr := range s.Attrs {
		if attr.Kind == dataset.Continuous {
			sc.Reset(dist, n.N, o.Criterion)
			for _, e := range nl.lists[a] {
				sc.Add(e.value, e.class)
			}
			thresh, score, ok := sc.Best()
			if !ok {
				continue
			}
			if gain := parent - score; gain > bestGain {
				bestGain, bestAttr, bestKind, bestThresh = gain, a, tree.ContBinary, thresh
				bestMask = 0
			}
		} else {
			h := criteria.GetHist(attr.Cardinality(), c)
			for _, e := range nl.lists[a] {
				h.Add(int32(e.value), e.class)
			}
			mask, score, ok := criteria.ScoreHist(h, o.Criterion, o.Binary)
			criteria.PutHist(h)
			if !ok {
				continue
			}
			kind := tree.CatMultiway
			if o.Binary {
				kind = tree.CatBinary
			}
			if gain := parent - score; gain > bestGain {
				bestGain, bestAttr, bestKind, bestMask = gain, a, kind, mask
				bestThresh = 0
			}
		}
	}
	if bestAttr < 0 {
		return nil
	}

	// Attach the split.
	n.Kind = bestKind
	n.Attr = bestAttr
	n.Thresh = bestThresh
	n.Mask = bestMask
	numChildren := 2
	if bestKind == tree.CatMultiway {
		numChildren = s.Attrs[bestAttr].Cardinality()
	}
	n.Children = make([]*tree.Node, numChildren)
	for i := range n.Children {
		n.Children[i] = &tree.Node{
			ID:    ids.Next(),
			Kind:  tree.Leaf,
			Class: n.Class,
			Depth: n.Depth + 1,
			Dist:  make([]int64, c),
		}
	}

	// The SPRINT splitting phase: route the winning attribute's list
	// through the test, recording rid → child in the hash table, then
	// partition every list by probing it. Order within each child is
	// preserved, so continuous lists remain sorted with no re-sort.
	hash := make(map[int64]int32, len(nl.lists[bestAttr]))
	for _, e := range nl.lists[bestAttr] {
		hash[e.rid] = int32(route(n, e.value))
	}
	childLists := make([][][]entry, numChildren)
	for ci := range childLists {
		childLists[ci] = make([][]entry, s.NumAttrs())
	}
	for a := range s.Attrs {
		for _, e := range nl.lists[a] {
			ci := hash[e.rid]
			childLists[ci][a] = append(childLists[ci][a], e)
		}
	}
	var out []nodeLists
	for ci := range childLists {
		if len(childLists[ci][0]) > 0 {
			out = append(out, nodeLists{node: n.Children[ci], lists: childLists[ci]})
		}
	}
	return out
}

// route applies the node's test to one raw attribute value.
func route(n *tree.Node, value float64) int {
	switch n.Kind {
	case tree.ContBinary:
		if value <= n.Thresh {
			return 0
		}
		return 1
	case tree.CatBinary:
		if n.Mask&(1<<uint(int32(value))) != 0 {
			return 0
		}
		return 1
	case tree.CatMultiway:
		return int(int32(value))
	default:
		panic("sprint: routing through a leaf")
	}
}
