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
	"cmp"
	"slices"

	"partree/internal/criteria"
	"partree/internal/dataset"
	"partree/internal/kernel"
	"partree/internal/tree"
)

// Entry is one attribute-list element. ScalParC's parallel lists hold
// the same entries.
type Entry struct {
	Value float64 // continuous value, or categorical code
	RID   int64
	Class int32
}

// nodeLists holds one node's attribute lists, index-aligned with the
// schema (continuous lists stay sorted; categorical lists are in arrival
// order, which is irrelevant for histograms).
type nodeLists struct {
	node  *tree.Node
	lists [][]Entry
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
	lists, err := ReadLists(t, nil)
	if err != nil {
		return nil, err
	}
	for a, attr := range s.Attrs {
		if attr.Kind == dataset.Continuous {
			SortEntries(lists[a])
		}
	}
	o = o.WithDefaults()
	root := &tree.Node{Kind: tree.Leaf, Dist: make([]int64, s.NumClasses())}
	ids := tree.NewIDGen(1)
	queue := []nodeLists{{node: root, lists: lists}}
	for len(queue) > 0 {
		nl := queue[0]
		queue = queue[1:]
		queue = append(queue, expand(nl, s, o, ids)...)
	}
	return &tree.Tree{Schema: s, Root: root}, nil
}

// ReadLists builds one attribute list per schema attribute from one
// stream over t's chunks, with the entries in row order: the chunk-fed
// half of SPRINT's pre-sort, shared with ScalParC. read, if not nil, is
// called with each chunk's encoded byte count as it is read.
func ReadLists(t dataset.Table, read func(bytes int64)) ([][]Entry, error) {
	s := t.Schema()
	lists := make([][]Entry, s.NumAttrs())
	for a := range s.Attrs {
		lists[a] = make([]Entry, t.Len())
	}
	var ch dataset.Chunk
	for k := 0; k < t.NumChunks(); k++ {
		nb, err := t.ReadChunk(k, &ch)
		if err != nil {
			return nil, err
		}
		if read != nil {
			read(nb)
		}
		for a := range s.Attrs {
			list := lists[a][ch.Lo:ch.Hi]
			if ch.Cont[a] != nil {
				for i, v := range ch.Cont[a] {
					list[i] = Entry{Value: v, RID: ch.RID[i], Class: ch.Class[i]}
				}
			} else {
				for i, code := range ch.Cat[a] {
					list[i] = Entry{Value: float64(code), RID: ch.RID[i], Class: ch.Class[i]}
				}
			}
		}
	}
	return lists, nil
}

// SortEntries sorts an attribute list by (value, rid), SPRINT's pre-sort
// order: a total order, since rids are unique.
func SortEntries(list []Entry) {
	slices.SortFunc(list, func(x, y Entry) int {
		if c := cmp.Compare(x.Value, y.Value); c != 0 {
			return c
		}
		return cmp.Compare(x.RID, y.RID)
	})
}

// expand decides one node from its attribute lists and, if it splits,
// partitions the lists among the children via the rid hash table.
func expand(nl nodeLists, s *dataset.Schema, o tree.Options, ids *tree.IDGen) []nodeLists {
	n := nl.node

	// Class distribution from any one list (all lists hold the same rids).
	dist := make([]int64, s.NumClasses())
	for _, e := range nl.lists[0] {
		dist[e.Class]++
	}
	n.SetDist(dist)
	parent, ok := o.MaySplit(dist, n.N, n.Depth)
	if !ok {
		return nil
	}

	// One scan per attribute list to find the best test. The kernel
	// scanner is shared across attributes, so the per-node scan is
	// allocation-free apart from its first use.
	best := tree.Split{Gain: o.MinGain}
	var sc kernel.ContScanner
	for a, attr := range s.Attrs {
		if attr.Kind == dataset.Continuous {
			sc.Reset(dist, n.N, o.Criterion)
			for _, e := range nl.lists[a] {
				sc.Add(e.Value, e.Class)
			}
			if thresh, score, ok := sc.Best(); ok {
				best.Consider(tree.Split{Attr: a, Kind: tree.ContBinary, Thresh: thresh}, parent-score)
			}
		} else {
			h := criteria.GetHist(attr.Cardinality(), s.NumClasses())
			for _, e := range nl.lists[a] {
				h.Add(int32(e.Value), e.Class)
			}
			mask, score, ok := criteria.ScoreHist(h, o.Criterion, o.Binary)
			criteria.PutHist(h)
			if ok {
				best.Consider(tree.Split{Attr: a, Kind: o.CatKind(), Mask: mask}, parent-score)
			}
		}
	}
	if best.IsLeaf() {
		return nil
	}
	best.Apply(n, s, ids.Next)

	// The SPRINT splitting phase: route the winning attribute's list
	// through the test, recording rid → child in the hash table, then
	// partition every list by probing it. Order within each child is
	// preserved, so continuous lists remain sorted with no re-sort.
	hash := make(map[int64]int32, len(nl.lists[best.Attr]))
	for _, e := range nl.lists[best.Attr] {
		hash[e.RID] = int32(n.RouteValue(e.Value))
	}
	childLists := make([][][]Entry, len(n.Children))
	for ci := range childLists {
		childLists[ci] = make([][]Entry, s.NumAttrs())
	}
	for a := range s.Attrs {
		for _, e := range nl.lists[a] {
			ci := hash[e.RID]
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
