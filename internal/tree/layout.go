package tree

import (
	"partree/internal/dataset"
	"partree/internal/kernel"
)

// indexRows is the RowSource of a resident dataset. It owns the build's
// level layout: the rows of the level being expanded in frontier-node
// order (kernel.Packed), with the class and every narrow categorical
// attribute as one byte per row. Frontier item j owns the positions
// [start[j], start[j]+len(Idx)), and the Idx the level step hands out
// are cap-limited sub-slices of the layout's id array, so an append to
// one reallocates it instead of overwriting its neighbour.
//
// Tabulating a node reads its byte ranges in sequence
// (kernel.TabulateRange). Expanding a node routes its range on the split
// attribute's bytes and moves the range into its kept children with a
// stable counting partition, so each child keeps its parent's row order,
// exactly as PartitionRows does: the ids go to the other half of a
// ping-pong pair, the byte columns through one spare column back into
// place. A child's range never starts after its parent's, so moving a
// parent in place leaves every later parent's range unread and intact.
// Leaves' rows drop out.
//
// Begin accepts the frontier the previous level step produced as is. Any
// other frontier — a build's first, one rebuilt by a hybrid split or a
// partitioned step, a rolled-back one — is repacked from its Idx with one
// gather. The Idx a level step returns stay valid until the source
// expands the level after it; a caller that keeps a frontier longer (a
// checkpoint history) copies it.
type indexRows struct {
	d    *dataset.Dataset
	o    Options
	spec *kernel.Spec
	pk   kernel.Packed // the level being expanded
	next []int32       // the next level's ids, written by Expand
	// start[j] is frontier item j's first position in pk.
	start []int
	// made lists the nodes of the frontier Expand produced, in order; done
	// says End completed it, fill counts its positions.
	made []*Node
	fill int
	done bool
	// Expand's scratch: the spare byte column, every row's child code,
	// each child's first position and its cursor.
	stage   []uint8
	codes8  []uint8
	codes32 []int32
	starts  []int
	pos     []int
}

// NewIndexRows returns the RowSource of d's rows under o. One source
// serves a whole level loop: it keeps its layout from level to level.
func NewIndexRows(d *dataset.Dataset, o Options) RowSource {
	return &indexRows{d: d, o: o, spec: NewStatsSpec(d, o)}
}

func (r *indexRows) Schema() *dataset.Schema { return r.d.Schema }
func (r *indexRows) Err() error              { return nil }

// Begin lays out the frontier's rows: kept from the last level step when
// the frontier is the one it produced, repacked otherwise.
func (r *indexRows) Begin(frontier []FrontierItem) {
	if !r.produced(frontier) {
		r.repack(frontier)
	}
	r.start = grow(r.start, len(frontier))
	p := 0
	for j, it := range frontier {
		r.start[j] = p
		p += len(it.Idx)
	}
	r.next = grow(r.next, p)
	r.made, r.fill, r.done = r.made[:0], 0, false
}

// produced reports whether frontier is, item for item, the frontier the
// last completed level step handed out: the same nodes, each Idx still
// the sub-slice of the layout at its position, covering every row.
func (r *indexRows) produced(frontier []FrontierItem) bool {
	if !r.done || len(frontier) != len(r.made) {
		return false
	}
	p := 0
	for j, it := range frontier {
		if it.Node != r.made[j] {
			return false
		}
		if len(it.Idx) > 0 {
			if p+len(it.Idx) > len(r.pk.IDs) || &it.Idx[0] != &r.pk.IDs[p] {
				return false
			}
		}
		p += len(it.Idx)
	}
	return p == len(r.pk.IDs)
}

// repack gathers the frontier's rows into a fresh id array, in frontier
// order, and their bytes into the layout. The id array is fresh because a
// foreign frontier's Idx may alias the old one.
func (r *indexRows) repack(frontier []FrontierItem) {
	n := 0
	for _, it := range frontier {
		n += len(it.Idx)
	}
	ids := make([]int32, 0, n)
	for _, it := range frontier {
		ids = append(ids, it.Idx...)
	}
	r.pk.IDs = ids
	r.pk.Pack(r.spec)
}

func (r *indexRows) TabulateInto(j int, it FrontierItem, blk []int64) int64 {
	lo := r.start[j]
	return kernel.TabulateRange(blk, r.spec, &r.pk, lo, lo+len(it.Idx))
}

// Expand finalizes frontier item j and moves its rows into its kept
// children's ranges of the next level; it bills PartitionRows' ops.
func (r *indexRows) Expand(j int, it FrontierItem, stats *NodeStats, ids *IDGen, ops *int64) []FrontierItem {
	kids, childSlot, split := ExpandNodeOOC(it, stats, r.d.Schema, r.o, ids)
	if !split {
		return nil
	}
	n := len(it.Idx)
	*ops += int64(n)
	if len(it.Node.Children) <= kernel.MaxNarrow {
		r.codes8 = grow(r.codes8, n)
		move(r, it.Node, r.start[j], r.codes8)
	} else {
		r.codes32 = grow(r.codes32, n)
		move(r, it.Node, r.start[j], r.codes32)
	}
	for ci, sl := range childSlot {
		if sl >= 0 {
			lo, hi := r.fill+r.starts[ci], r.fill+r.pos[ci]
			kids[sl].Idx = r.next[lo:hi:hi]
			r.made = append(r.made, kids[sl].Node)
		}
	}
	r.fill += n
	return kids
}

// End makes the positions Expand filled the layout of the next level.
func (r *indexRows) End([]FrontierItem) {
	r.pk.IDs, r.next = r.next[:r.fill], r.pk.IDs
	if r.pk.Class != nil {
		r.pk.Class = r.pk.Class[:r.fill]
	}
	for a, col := range r.pk.Cols {
		if col != nil {
			r.pk.Cols[a] = col[:r.fill]
		}
	}
	r.done = true
}

// move routes the len(codes) rows at positions lo… of node nd, then
// stably partitions them by child into the next level's positions
// fill…: the ids into r.next, every byte column in place through the
// spare column. On return r.starts[c] and r.pos[c] bound child c's
// positions, relative to fill.
func move[C uint8 | int32](r *indexRows, nd *Node, lo int, codes []C) {
	n := len(codes)
	k := len(nd.Children)
	r.starts = grow(r.starts, k)
	r.pos = grow(r.pos, k)
	clear(r.pos)
	if col := r.pk.Cols[nd.Attr]; col != nil {
		// A byte-coded attribute has at most MaxNarrow values, so one table
		// lookup per row routes it.
		var lut [kernel.MaxNarrow]C
		for v := range r.spec.Attrs[nd.Attr].Bins {
			lut[v] = C(nd.routeValue(int32(v), 0))
		}
		for p, v := range col[lo : lo+n] {
			c := lut[v]
			codes[p] = c
			r.pos[c]++
		}
	} else {
		for p, i := range r.pk.IDs[lo : lo+n] {
			c := nd.RouteRow(r.d, int(i))
			codes[p] = C(c)
			r.pos[c]++
		}
	}
	off := 0
	for c, m := range r.pos {
		r.starts[c] = off
		off += m
	}
	scatter(r.next[r.fill:r.fill+n], r.pk.IDs[lo:lo+n], codes, r.starts, r.pos)
	if r.pk.Class == nil {
		return
	}
	r.stage = grow(r.stage, n)
	moveBytes(r, r.pk.Class, lo, codes)
	for _, col := range r.pk.Cols {
		if col != nil {
			moveBytes(r, col, lo, codes)
		}
	}
}

// moveBytes moves one byte column's rows at positions lo… to fill… in
// the order scatter gives them, through the spare column.
func moveBytes[C uint8 | int32](r *indexRows, col []uint8, lo int, codes []C) {
	scatter(r.stage, col[lo:lo+len(codes)], codes, r.starts, r.pos)
	copy(col[r.fill:], r.stage)
}

// scatter writes src[p] to dst at its child's next position, children in
// code order and rows in input order within each; pos ends at each
// child's end.
func scatter[T any, C uint8 | int32](dst, src []T, codes []C, starts, pos []int) {
	copy(pos, starts)
	for p, c := range codes {
		dst[pos[c]] = src[p]
		pos[c]++
	}
}
