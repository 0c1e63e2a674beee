// Package sliq implements the serial SLIQ classifier of Mehta, Agrawal &
// Rissanen (EDBT 1996) — the algorithm whose synthetic dataset and
// pre-sorting technique the paper's experiments build on (§2.1, §5).
//
// SLIQ differs from both C4.5 and SPRINT in its data structures: each
// continuous attribute is pre-sorted once into a global attribute list of
// (value, record id) entries that is NEVER re-partitioned; a memory-
// resident *class list* maps every record id to its current leaf. The
// tree grows breadth-first, and one scan of each attribute list per level
// evaluates the candidate splits of EVERY leaf simultaneously — each
// entry looks up its leaf through the class list and advances that leaf's
// running class counts. After the best splits are chosen, one more pass
// updates the class list's leaf pointers in place.
//
// Given the same options it grows exactly the tree of tree.BuildHunt and
// sprint.Build (asserted by the tests): three different data-structure
// strategies, one decision procedure.
package sliq

import (
	"sort"

	"partree/internal/criteria"
	"partree/internal/dataset"
	"partree/internal/kernel"
	"partree/internal/tree"
)

// listEntry is one attribute-list element: the record's value and its id.
// The class is looked up through the class list, not stored per attribute
// — SLIQ's memory argument.
type listEntry struct {
	value float64
	rid   int32 // index into the class list (rids are densified on entry)
}

// classEntry is one class-list element.
type classEntry struct {
	class int32
	leaf  int32 // index into the current leaves slice, -1 when settled
}

// leafState tracks one growing leaf during a level.
type leafState struct {
	node *tree.Node

	best      tree.Split // running best test of this level
	parentImp float64
	frozen    bool // no further splitting (pure / too small / too deep)

	// Continuous-scan state, reset per attribute. The shared kernel
	// scanner holds the running below-counts and evaluates each
	// distinct-value boundary exactly as the per-node sorted scan does.
	scan kernel.ContScanner

	// Sibling-subtraction state (tree.Options.Reuse.Subtraction). A leaf
	// that splits retains its per-attribute categorical histograms for one
	// level; at the next level its largest child derives each categorical
	// histogram exactly as parent − Σ(tabulated siblings), and that child's
	// entries are skipped by the categorical list passes. Continuous
	// attributes stream through the scanner and have no block to subtract,
	// so they are always scanned in full.
	idx      int32            // position in the current leaves slice
	catHists []*criteria.Hist // retained per-attribute categorical hists
	fam      *sliqFam         // family this leaf was born into
	derive   bool             // derive this level's categorical hists

}

// sliqFam links a split leaf (whose categorical histograms are retained)
// to its globally non-empty children of the next level.
type sliqFam struct {
	parent  *leafState
	members []*leafState
}

// Build grows a decision tree with the SLIQ algorithm: BuildTable over
// the rows as one chunk, a zero-copy view whose reads cost nothing.
func Build(d *dataset.Dataset, o tree.Options) *tree.Tree {
	tr, _ := BuildTable(d.Chunked(0), o) // a resident view reads without error
	return tr
}

// BuildTable grows a SLIQ tree from a chunked table. The only whole-
// column access SLIQ ever makes is the one-time pre-sorting pass, and it
// streams chunk by chunk; everything after runs on SLIQ's own resident
// structures (class list + attribute lists). The tree depends only on
// the rows, never on the chunking: the pre-sort sees entries in row
// order, and the (value, rid) comparator is a total order.
func BuildTable(t dataset.Table, o tree.Options) (*tree.Tree, error) {
	s := t.Schema()
	classList := make([]classEntry, t.Len())
	lists := make([][]listEntry, s.NumAttrs())
	for a := range s.Attrs {
		lists[a] = make([]listEntry, t.Len())
	}
	var ch dataset.Chunk
	for k := 0; k < t.NumChunks(); k++ {
		if _, err := t.ReadChunk(k, &ch); err != nil {
			return nil, err
		}
		for i := 0; i < ch.Rows(); i++ {
			classList[ch.Lo+i] = classEntry{class: ch.Class[i], leaf: 0}
		}
		for a := range s.Attrs {
			list := lists[a][ch.Lo:ch.Hi]
			if ch.Cont[a] != nil {
				for i, v := range ch.Cont[a] {
					list[i] = listEntry{value: v, rid: int32(ch.Lo + i)}
				}
			} else {
				for i, code := range ch.Cat[a] {
					list[i] = listEntry{value: float64(code), rid: int32(ch.Lo + i)}
				}
			}
		}
	}
	return grow(s, classList, lists, o), nil
}

// grow is the SLIQ level loop: continuous lists are sorted by
// (value, rid), then each level runs one scan of every list against the
// class list.
func grow(s *dataset.Schema, classList []classEntry, lists [][]listEntry, o tree.Options) *tree.Tree {
	o = o.WithDefaults()
	nClasses := s.NumClasses()
	root := &tree.Node{Kind: tree.Leaf, Dist: make([]int64, nClasses)}
	ids := tree.NewIDGen(1)
	for a, attr := range s.Attrs {
		if attr.Kind != dataset.Continuous {
			continue
		}
		list := lists[a]
		sort.Slice(list, func(x, y int) bool {
			if list[x].value != list[y].value {
				return list[x].value < list[y].value
			}
			return list[x].rid < list[y].rid
		})
	}

	leaves := []*leafState{{node: root}}
	var prev []*leafState // previous level: its retained hists feed this level's derivations
	for len(leaves) > 0 {
		prepareLevel(leaves, classList, nClasses, o)
		if !anyActive(leaves) {
			break
		}
		scanLevel(leaves, lists, classList, s, o)
		releaseRetained(prev) // grandparent histograms are dead now
		prev = leaves
		leaves = applySplits(leaves, lists, classList, s, o, ids)
	}
	releaseRetained(prev)
	return &tree.Tree{Schema: s, Root: root}
}

// prepareLevel computes every leaf's distribution from the class list and
// freezes leaves that must not split.
func prepareLevel(leaves []*leafState, classList []classEntry, nClasses int, o tree.Options) {
	dists := make([]int64, len(leaves)*nClasses)
	for _, ce := range classList {
		if ce.leaf >= 0 {
			dists[int(ce.leaf)*nClasses+int(ce.class)]++
		}
	}
	for li, ls := range leaves {
		n := ls.node
		n.SetDist(dists[li*nClasses : (li+1)*nClasses])
		var ok bool
		ls.parentImp, ok = o.MaySplit(n.Dist, n.N, n.Depth)
		ls.frozen = !ok
		ls.best = tree.Split{Gain: o.MinGain}
		ls.idx = int32(li)
		ls.derive = false
	}
	if !o.Reuse.Subtraction {
		return
	}
	// Plan the level's derivations: within each family whose members are
	// all active (a frozen sibling builds no histograms, leaving nothing to
	// subtract), the largest member (ties: first) derives its categorical
	// histograms from the retained parent instead of being tabulated. A
	// single-member family derives entirely from its parent — the missing
	// siblings were globally empty and contributed nothing.
	seen := make(map[*sliqFam]bool)
	for _, ls := range leaves {
		f := ls.fam
		if f == nil || seen[f] {
			continue
		}
		seen[f] = true
		if f.parent.catHists == nil {
			continue
		}
		active := true
		for _, m := range f.members {
			if m.frozen {
				active = false
				break
			}
		}
		if !active {
			continue
		}
		der := 0
		for i := 1; i < len(f.members); i++ {
			if f.members[i].node.N > f.members[der].node.N {
				der = i
			}
		}
		f.members[der].derive = true
	}
}

// releaseRetained recycles the histograms a finished level retained.
func releaseRetained(leaves []*leafState) {
	for _, ls := range leaves {
		for a, h := range ls.catHists {
			if h != nil {
				criteria.PutHist(h)
				ls.catHists[a] = nil
			}
		}
	}
}

func anyActive(leaves []*leafState) bool {
	for _, ls := range leaves {
		if !ls.frozen {
			return true
		}
	}
	return false
}

// scanLevel makes one pass over each attribute list, evaluating candidate
// splits for all active leaves at once.
func scanLevel(leaves []*leafState, lists [][]listEntry, classList []classEntry, s *dataset.Schema, o tree.Options) {
	nClasses := s.NumClasses()
	if o.Reuse.Subtraction {
		for _, ls := range leaves {
			if !ls.frozen && ls.catHists == nil {
				ls.catHists = make([]*criteria.Hist, len(s.Attrs))
			}
		}
	}
	for a, attr := range s.Attrs {
		if attr.Kind == dataset.Continuous {
			scanContinuousAttr(leaves, lists[a], classList, a, o)
		} else {
			scanCategoricalAttr(leaves, lists[a], classList, a, attr.Cardinality(), nClasses, o)
		}
	}
}

// scanContinuousAttr walks one globally sorted attribute list; each entry
// feeds its own leaf's kernel scanner, which evaluates the boundary
// candidate just before the leaf's value changes — identical thresholds
// and scores to the per-node sorted scan of C4.5/SPRINT.
func scanContinuousAttr(leaves []*leafState, list []listEntry, classList []classEntry, a int, o tree.Options) {
	for _, ls := range leaves {
		if !ls.frozen {
			ls.scan.Reset(ls.node.Dist, ls.node.N, o.Criterion)
		}
	}
	for _, e := range list {
		ce := classList[e.rid]
		if ce.leaf < 0 {
			continue
		}
		ls := leaves[ce.leaf]
		if ls.frozen {
			continue
		}
		ls.scan.Add(e.value, ce.class)
	}
	for _, ls := range leaves {
		if ls.frozen {
			continue
		}
		if thresh, score, ok := ls.scan.Best(); ok {
			ls.best.Consider(tree.Split{Attr: a, Kind: tree.ContBinary, Thresh: thresh}, ls.parentImp-score)
		}
	}
}

// scanCategoricalAttr builds per-leaf histograms in one pass, then scores
// the subset or multiway split per leaf.
func scanCategoricalAttr(leaves []*leafState, list []listEntry, classList []classEntry, a, m, nClasses int, o tree.Options) {
	hists := make([]*criteria.Hist, len(leaves))
	for li, ls := range leaves {
		if !ls.frozen && !ls.derive {
			hists[li] = criteria.GetHist(m, nClasses)
		}
	}
	for _, e := range list {
		ce := classList[e.rid]
		if ce.leaf < 0 || hists[ce.leaf] == nil {
			continue
		}
		hists[ce.leaf].Add(int32(e.value), ce.class)
	}
	// Sibling subtraction: the withheld member of each family (skipped by
	// the list pass above) reconstructs its histogram exactly as the
	// retained parent histogram minus its tabulated siblings'.
	for li, ls := range leaves {
		if !ls.derive {
			continue
		}
		h := criteria.GetHist(m, nClasses)
		kernel.DeriveFrom(h.Counts, ls.fam.parent.catHists[a].Counts)
		for _, sib := range ls.fam.members {
			if sib != ls {
				kernel.Subtract(h.Counts, hists[sib.idx].Counts)
			}
		}
		hists[li] = h
	}
	for li, ls := range leaves {
		h := hists[li]
		if h == nil {
			continue
		}
		mask, score, valid := criteria.ScoreHist(h, o.Criterion, o.Binary)
		if ls.catHists != nil {
			ls.catHists[a] = h // retained for next level's derivations
		} else {
			criteria.PutHist(h)
		}
		if valid {
			ls.best.Consider(tree.Split{Attr: a, Kind: o.CatKind(), Mask: mask}, ls.parentImp-score)
		}
	}
}

// applySplits attaches the chosen tests, updates the class list's leaf
// pointers in one pass per attribute, and returns the next level's leaf
// states.
func applySplits(leaves []*leafState, lists [][]listEntry, classList []classEntry, s *dataset.Schema, o tree.Options, ids *tree.IDGen) []*leafState {
	// Attach splits; record the next-level slot of each child.
	type pending struct {
		childBase int32 // index of first child in the next leaves slice
	}
	pend := make([]pending, len(leaves))
	var next []*leafState
	for li, ls := range leaves {
		n := ls.node
		if ls.best.IsLeaf() { // frozen leaves never consider a test
			n.Kind = tree.Leaf
			n.Children = nil
			pend[li] = pending{childBase: -1}
			continue
		}
		ls.best.Apply(n, s, ids.Next)
		pend[li] = pending{childBase: int32(len(next))}
		for _, child := range n.Children {
			next = append(next, &leafState{node: child})
		}
	}

	// Update the class list: for each attribute, route the entries whose
	// leaf split on that attribute. Settled records point at -1.
	newLeaf := make([]int32, len(classList))
	for i := range newLeaf {
		newLeaf[i] = -1
	}
	for a := range s.Attrs {
		for _, e := range lists[a] {
			ce := classList[e.rid]
			if ce.leaf < 0 {
				continue
			}
			ls := leaves[ce.leaf]
			if pend[ce.leaf].childBase < 0 || ls.node.Attr != a || ls.node.IsLeaf() {
				continue
			}
			newLeaf[e.rid] = pend[ce.leaf].childBase + int32(ls.node.RouteValue(e.value))
		}
	}
	for i := range classList {
		classList[i].leaf = newLeaf[i]
	}

	// Drop children that received no records (they stay Case 3 leaves).
	counts := make([]int64, len(next))
	for _, ce := range classList {
		if ce.leaf >= 0 {
			counts[ce.leaf]++
		}
	}
	kept := make([]*leafState, 0, len(next))
	remap := make([]int32, len(next))
	for i, ls := range next {
		if counts[i] > 0 {
			remap[i] = int32(len(kept))
			kept = append(kept, ls)
		} else {
			remap[i] = -1
		}
	}
	for i := range classList {
		if classList[i].leaf >= 0 {
			classList[i].leaf = remap[classList[i].leaf]
		}
	}

	// Record families for next level's sibling subtraction: each split
	// leaf's globally non-empty children, after the empty-drop remap, in
	// leaf order. The parent's retained histograms equal the sum of exactly
	// these members' histograms (dropped children hold no records).
	if o.Reuse.Subtraction {
		for li, ls := range leaves {
			base := pend[li].childBase
			if base < 0 {
				continue
			}
			var members []*leafState
			for i := range ls.node.Children {
				if r := remap[base+int32(i)]; r >= 0 {
					members = append(members, kept[r])
				}
			}
			if len(members) == 0 {
				continue
			}
			f := &sliqFam{parent: ls, members: members}
			for _, m := range members {
				m.fam = f
			}
		}
	}
	return kept
}
