package tree

import (
	"fmt"

	"partree/internal/dataset"
	"partree/internal/kernel"
)

// Out-of-core breadth-first induction: the levelwise builder re-expressed
// over the chunked Table interface. Instead of per-node row-index vectors
// (which are Θ(N) resident), the builder keeps one int32 slot per row —
// which frontier node the row currently sits at, -1 once settled — and
// makes two sequential passes over the chunks per level: one to tabulate
// every frontier node's statistics, one to advance each row's slot
// through its node's freshly chosen split. Statistics, split decisions
// and routing are the exact functions of the in-RAM path, so the tree is
// bit-identical to BuildBFS on the same rows; only the access pattern
// (and the resident footprint, 4 bytes per row) changes. Slots holds that
// per-row state and both passes, for this package's serial builder and
// the synchronous-parallel one in core.

// newSpec builds a kernel tabulation spec with no columns bound: bin
// counts and micro edges are resolved from the schema and binner once;
// columns are bound with bind.
func newSpec(s *dataset.Schema, o Options) *kernel.Spec {
	sp := &kernel.Spec{
		Classes: s.NumClasses(),
		Attrs:   make([]kernel.AttrColumn, len(s.Attrs)),
	}
	for a, attr := range s.Attrs {
		if attr.Kind == dataset.Categorical {
			sp.Attrs[a] = kernel.AttrColumn{Bins: attr.Cardinality()}
		} else {
			if o.Binner == nil {
				panic(fmt.Sprintf("tree: schema has continuous attribute %q but Options.Binner is nil", attr.Name))
			}
			sp.Attrs[a] = kernel.AttrColumn{Bins: o.Binner.MicroBins, Edges: o.Binner.MicroEdges(a)}
		}
	}
	return sp
}

// bind points the spec's columns at one column set — a dataset's, or a
// decoded chunk's, whose spec row ids are then chunk-local (0..Rows-1).
func bind(sp *kernel.Spec, class []int32, cat [][]int32, cont [][]float64) {
	sp.Class = class
	for a := range sp.Attrs {
		sp.Attrs[a].Cat, sp.Attrs[a].Cont = cat[a], cont[a]
	}
}

// ExpandNodeOOC finalizes one frontier node from its (global) statistics
// without routing any rows: the node's distribution is recorded, a split
// chosen and applied, and the globally non-empty children returned as
// frontier items (Idx nil) exactly as ExpandNode would keep them.
// childSlot maps each child index of the split to its position in the
// returned items, or -1 for a globally empty child — the routing table
// the caller's streaming pass (or ExpandNode's PartitionRows) uses to
// advance rows. split is false when the node became a leaf.
func ExpandNodeOOC(it FrontierItem, stats *NodeStats, s *dataset.Schema, o Options, ids *IDGen) (kids []FrontierItem, childSlot []int32, split bool) {
	n := it.Node
	n.Dist = append(n.Dist[:0], stats.Dist...)
	n.N = 0
	for _, v := range n.Dist {
		n.N += v
	}
	if n.N > 0 {
		n.Class = MajorityClass(n.Dist)
	}
	sp, ok := ChooseSplit(stats, s, o, n.Depth)
	if !ok {
		n.Kind = Leaf
		n.Children = nil
		return nil, nil, false
	}
	sp.Apply(n, s, ids.Next)
	global := GlobalChildCounts(sp, stats, s, o)
	childSlot = make([]int32, len(n.Children))
	for ci := range n.Children {
		if global[ci] > 0 {
			childSlot[ci] = int32(len(kids))
			kids = append(kids, FrontierItem{Node: n.Children[ci], GlobalN: global[ci]})
		} else {
			childSlot[ci] = -1
		}
	}
	return kids, childSlot, true
}

// Slots is the per-row state of a levelwise build over a chunked table:
// the slot vector, plus the local statistics blocks and the routing
// table of the level being expanded. A level is Tabulate, one Expand per
// frontier node in frontier order (the caller appends the returned
// children to the next frontier in that order), then Reroute. A chunk
// read error stops every later pass and is reported by Err.
type Slots struct {
	t      dataset.Table
	o      Options
	slot   []int32
	spec   *kernel.Spec
	ch     dataset.Chunk
	stride int
	blocks []int64
	routes [][]int32 // per frontier node: child index → next-level slot; nil for a leaf
	kids   int32     // next-frontier items handed out by Expand this level
	read   func(bytes int64)
	err    error
}

// NewSlots starts every row of t at the root (slot 0). read, if not nil,
// is called with the encoded size of every chunk either pass reads.
func NewSlots(t dataset.Table, o Options, read func(bytes int64)) *Slots {
	s := t.Schema()
	return &Slots{t: t, o: o, slot: make([]int32, t.Len()), spec: newSpec(s, o), stride: StatsLen(s, o), read: read}
}

// Err returns the first chunk read error, if any.
func (sl *Slots) Err() error { return sl.err }

// Tabulate is a level's statistics pass over a frontier of n nodes: every
// live row is tabulated into its slot's Block.
func (sl *Slots) Tabulate(n int) {
	sl.blocks = append(sl.blocks[:0], make([]int64, n*sl.stride)...)
	sl.routes = append(sl.routes[:0], make([][]int32, n)...)
	sl.kids = 0
	sl.pass(func(rows []int32) {
		bind(sl.spec, sl.ch.Class, sl.ch.Cat, sl.ch.Cont)
		kernel.TabulateAssigned(sl.blocks, sl.stride, rows, sl.spec)
	})
}

// Block is frontier node j's local statistics from the last Tabulate.
func (sl *Slots) Block(j int) []int64 { return sl.blocks[j*sl.stride : (j+1)*sl.stride] }

// Expand finalizes frontier node j from its global statistics with
// ExpandNodeOOC, returning its kept children, and records its routing
// table for Reroute. split is false when the node became a leaf.
func (sl *Slots) Expand(j int, it FrontierItem, stats *NodeStats, ids *IDGen) (kids []FrontierItem, split bool) {
	kids, cs, split := ExpandNodeOOC(it, stats, sl.t.Schema(), sl.o, ids)
	if !split {
		return nil, false
	}
	for ci := range cs {
		if cs[ci] >= 0 {
			cs[ci] += sl.kids
		}
	}
	sl.routes[j] = cs
	sl.kids += int32(len(kids))
	return kids, true
}

// Reroute is a level's routing pass: rows at leaf nodes settle (-1), rows
// at split nodes move to their child's next-level slot. It reads nothing
// when the next frontier is empty.
func (sl *Slots) Reroute(frontier []FrontierItem) {
	if sl.kids == 0 {
		return
	}
	sl.pass(func(rows []int32) {
		for i, sv := range rows {
			if sv < 0 {
				continue
			}
			cs := sl.routes[sv]
			if cs == nil {
				rows[i] = -1
				continue
			}
			rows[i] = cs[frontier[sv].Node.RouteChunkRow(&sl.ch, i)]
		}
	})
}

// pass reads every chunk in order and hands f the chunk's window of the
// slot vector.
func (sl *Slots) pass(f func(rows []int32)) {
	for k := 0; k < sl.t.NumChunks() && sl.err == nil; k++ {
		nb, err := sl.t.ReadChunk(k, &sl.ch)
		if err != nil {
			sl.err = err
			return
		}
		if sl.read != nil {
			sl.read(nb)
		}
		f(sl.slot[sl.ch.Lo:sl.ch.Hi])
	}
}

// BuildBFSOOC grows a tree breadth-first over a chunked table with
// bounded resident memory: the only per-row state is the slot vector.
// The result is bit-identical to BuildBFS over the same rows (gated by
// the differential tests). o.Reuse is ignored — sibling subtraction is a
// cost-model transform of the in-RAM path and never changes the tree.
func BuildBFSOOC(t dataset.Table, o Options) (*Tree, error) {
	o = o.WithDefaults()
	s := t.Schema()
	root := &Node{ID: 0, Kind: Leaf, Dist: make([]int64, s.NumClasses())}
	ids := NewIDGen(1)
	frontier := []FrontierItem{{Node: root}}
	sl := NewSlots(t, o, nil)
	for len(frontier) > 0 && sl.Err() == nil {
		sl.Tabulate(len(frontier))
		var next []FrontierItem
		for j, it := range frontier {
			kids, _ := sl.Expand(j, it, DecodeStats(sl.Block(j), s, o), ids)
			next = append(next, kids...)
		}
		sl.Reroute(frontier)
		frontier = next
	}
	if err := sl.Err(); err != nil {
		return nil, err
	}
	return &Tree{Schema: s, Root: root}, nil
}

// RouteChunkRow returns the child index that row i of a decoded chunk
// follows — the chunk-fed twin of RouteRow.
func (n *Node) RouteChunkRow(ch *dataset.Chunk, i int) int {
	if ch.Cat[n.Attr] != nil {
		return n.routeValue(ch.Cat[n.Attr][i], 0)
	}
	return n.routeValue(0, ch.Cont[n.Attr][i])
}

// ClassifyChunkRow classifies row i of a decoded chunk, mirroring
// ClassifyRow's Case 3 handling.
func (t *Tree) ClassifyChunkRow(ch *dataset.Chunk, i int) int32 {
	n := t.Root
	class := n.Class
	for n != nil && !n.IsLeaf() {
		if n.N > 0 {
			class = n.Class
		}
		c := n.RouteChunkRow(ch, i)
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

// AccuracyTable returns the fraction of the table's rows the tree
// classifies correctly, streaming chunk by chunk — the bounded-RAM twin
// of Accuracy.
func (t *Tree) AccuracyTable(tab dataset.Table) (float64, error) {
	if tab.Len() == 0 {
		return 0, nil
	}
	ok := 0
	var ch dataset.Chunk
	for k := 0; k < tab.NumChunks(); k++ {
		if _, err := tab.ReadChunk(k, &ch); err != nil {
			return 0, err
		}
		for i := 0; i < ch.Rows(); i++ {
			if t.ClassifyChunkRow(&ch, i) == ch.Class[i] {
				ok++
			}
		}
	}
	return float64(ok) / float64(tab.Len()), nil
}
