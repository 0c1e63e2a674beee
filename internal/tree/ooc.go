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
// makes one sequential pass over the chunks per level: each decoded chunk
// first advances its rows' slots through the previous level's freshly
// chosen splits, then tabulates every frontier node's statistics from the
// same rows. Statistics, split decisions and routing are the exact
// functions of the in-RAM path, so the tree is bit-identical to BuildBFS
// on the same rows; only the access pattern (and the resident footprint,
// 4 bytes per row) changes. Slots holds that per-row state and the pass
// as a RowSource, for this package's serial level loop and the
// synchronous-parallel one in core.

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
// frontier items (Idx nil). childSlot maps each child index of the split
// to its position in the returned items, or -1 for a globally empty
// child — the routing table the caller's row pass (Slots' streaming one,
// the level layout's partition, or PartitionRows) uses to advance rows.
// split is false when the node became a leaf. The filter reads the
// global counts because a child can hold no local row on one rank yet
// must take part in the next reduction there; every rank derives them
// identically, and globally empty children stay Case 3 leaves. It is
// the one decision path every level-wise builder shares.
func ExpandNodeOOC(it FrontierItem, stats *NodeStats, s *dataset.Schema, o Options, ids *IDGen) (kids []FrontierItem, childSlot []int32, split bool) {
	n := it.Node
	n.SetDist(stats.Dist)
	sp, ok := ChooseSplit(stats, s, o, n.Depth)
	if !ok {
		n.Kind = Leaf
		n.Children = nil
		return nil, nil, false
	}
	sp.Apply(n, s, ids.Next)
	global := GlobalChildCounts(sp, stats, s, o)
	childSlot = make([]int32, len(n.Children))
	nonEmpty := 0
	for ci := range n.Children {
		if global[ci] > 0 {
			nonEmpty++
		}
	}
	kids = make([]FrontierItem, 0, nonEmpty)
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

// Slots is the RowSource of a chunked table: the per-row slot vector,
// plus the local statistics blocks of the level being expanded and the
// routing tables of the level just expanded. Begin reads every chunk
// once, routing its rows through the previous level's splits and then
// tabulating every frontier node's block; TabulateInto hands a block out
// with the ops kernel.TabulateInto would bill for the node's local rows,
// Expand bills PartitionRows' ops and records the node's routing table,
// and End reads nothing: the next Begin's pass does the routing. A chunk
// read error stops every later pass and is reported by Err.
type Slots struct {
	t      dataset.Table
	o      Options
	slot   []int32
	spec   *kernel.Spec
	ch     dataset.Chunk
	stride int
	blocks []int64
	// Per frontier node of the level last expanded: the split node, and
	// its child index → next-level slot table; both nil for a leaf. The
	// nodes are kept here because the caller may reuse the frontier's
	// backing array before the next Begin routes through them.
	nodes  []*Node
	routes [][]int32
	kids   int32 // next-frontier items handed out by Expand this level
	read   func(bytes int64)
	err    error
}

// NewSlots starts every row of t at the root (slot 0). read, if not nil,
// is called with the encoded size of every chunk the pass reads.
func NewSlots(t dataset.Table, o Options, read func(bytes int64)) *Slots {
	s := t.Schema()
	return &Slots{t: t, o: o, slot: make([]int32, t.Len()), spec: newSpec(s, o), stride: StatsLen(s, o), read: read}
}

// Schema returns the table's schema.
func (sl *Slots) Schema() *dataset.Schema { return sl.t.Schema() }

// Err returns the first chunk read error, if any.
func (sl *Slots) Err() error { return sl.err }

// Begin is a level's one chunk pass: every live row first moves through
// the previous level's split of its node — rows at leaf nodes settle
// (-1), rows at split nodes move to their child's slot in frontier — and
// is then tabulated into its frontier node's block.
func (sl *Slots) Begin(frontier []FrontierItem) {
	n := len(frontier)
	sl.blocks = grow(sl.blocks, n*sl.stride)
	clear(sl.blocks)
	for k := 0; k < sl.t.NumChunks() && sl.err == nil; k++ {
		nb, err := sl.t.ReadChunk(k, &sl.ch)
		if err != nil {
			sl.err = err
			break
		}
		if sl.read != nil {
			sl.read(nb)
		}
		rows := sl.slot[sl.ch.Lo:sl.ch.Hi]
		if sl.kids > 0 {
			sl.route(rows)
		}
		bind(sl.spec, sl.ch.Class, sl.ch.Cat, sl.ch.Cont)
		kernel.TabulateAssigned(sl.blocks, sl.stride, rows, sl.spec)
	}
	sl.nodes = grow(sl.nodes, n)
	clear(sl.nodes)
	sl.routes = grow(sl.routes, n)
	clear(sl.routes)
	sl.kids = 0
}

// route advances the current chunk's window of the slot vector through
// the routing tables Expand recorded.
func (sl *Slots) route(rows []int32) {
	for i, sv := range rows {
		if sv < 0 {
			continue
		}
		cs := sl.routes[sv]
		if cs == nil {
			rows[i] = -1
			continue
		}
		rows[i] = cs[sl.nodes[sv].RouteChunkRow(&sl.ch, i)]
	}
}

// localRows is frontier node j's local row count, its block's class total.
func (sl *Slots) localRows(j int) int64 {
	var n int64
	for _, v := range sl.blocks[j*sl.stride : j*sl.stride+sl.spec.Classes] {
		n += v
	}
	return n
}

// TabulateInto copies frontier node j's block from Begin's pass into blk
// and bills what kernel.TabulateInto would for j's local rows.
func (sl *Slots) TabulateInto(j int, _ FrontierItem, blk []int64) int64 {
	return sl.localRows(j)*int64(1+len(sl.spec.Attrs)) + int64(copy(blk, sl.blocks[j*sl.stride:(j+1)*sl.stride]))
}

// Expand finalizes frontier node j with ExpandNodeOOC and records its
// split node and routing table for the next Begin. The routing ops are
// billed here, at the level that chose the split.
func (sl *Slots) Expand(j int, it FrontierItem, stats *NodeStats, ids *IDGen, ops *int64) []FrontierItem {
	kids, cs, split := ExpandNodeOOC(it, stats, sl.t.Schema(), sl.o, ids)
	if !split {
		return nil
	}
	*ops += sl.localRows(j)
	for ci := range cs {
		if cs[ci] >= 0 {
			cs[ci] += sl.kids
		}
	}
	sl.nodes[j] = it.Node
	sl.routes[j] = cs
	sl.kids += int32(len(kids))
	return kids
}

// End reads nothing: the level's routing is done by the next Begin, on
// the same chunk read as that level's tabulation.
func (sl *Slots) End([]FrontierItem) {}

// BuildBFSOOC grows a tree breadth-first over a chunked table with
// bounded resident memory: the only per-row state is the slot vector. It
// is growLevels over the table's Slots, so the result is bit-identical to
// BuildBFS over the same rows (gated by the differential tests).
func BuildBFSOOC(t dataset.Table, o Options) (*Tree, error) {
	o = o.WithDefaults()
	s := t.Schema()
	root := &Node{ID: 0, Kind: Leaf, Dist: make([]int64, s.NumClasses())}
	sl := NewSlots(t, o, nil)
	growLevels(sl, []FrontierItem{{Node: root}}, o, NewIDGen(1))
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

// ClassifyChunkRow classifies row i of a decoded chunk.
func (t *Tree) ClassifyChunkRow(ch *dataset.Chunk, i int) int32 {
	return t.classify(func(n *Node) int { return n.RouteChunkRow(ch, i) })
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
