package kernel

// Node-contiguous byte layout: the in-RAM level step's copy of its
// frontier's rows. A Spec's columns are full-length and indexed by row id,
// so tabulating a node below the root gathers its sorted row ids out of
// int32 columns — one cache miss per row per column once nodes are small.
// A Packed layout holds the same rows in frontier-node order instead: each
// node owns one position range [lo, hi), the class and every narrow
// categorical attribute are one byte per position, and IDs names the row
// at each position. Tabulating a node is then one sequential pass over
// byte ranges.
//
// Identity with TabulateInto is the merge argument of the package
// documentation: each position adds the same +1s to the same cells as its
// row does through the id gather. The modeled op count is TabulateInto's
// formula over the range's row count, so a build's clock does not move.

// MaxNarrow is the largest cardinality a byte column holds: attributes
// with more values, continuous attributes, and every column of a spec with
// more classes keep the int32 gather.
const MaxNarrow = 256

// Packed is a node-contiguous layout of rows of a Spec. IDs[p] is the row
// at position p; Class[p] and Cols[a][p] are that row's class and its
// value of attribute a as bytes. Class is nil when the spec has more than
// MaxNarrow classes, and Cols[a] is nil for every attribute that is not
// narrow (Narrow): those values are gathered through IDs.
type Packed struct {
	IDs   []int32
	Class []uint8
	Cols  [][]uint8
}

// Narrow reports whether attribute a of sp packs into a byte column: a
// categorical attribute of at most MaxNarrow values, under a spec of at
// most MaxNarrow classes.
func (sp *Spec) Narrow(a int) bool {
	at := sp.Attrs[a]
	return sp.Classes <= MaxNarrow && at.Cat != nil && at.Bins <= MaxNarrow
}

// Pack fills pk's byte columns for the rows pk.IDs from sp's columns,
// reusing the buffers pk already holds: the repack that turns any row-id
// order into a layout.
func (pk *Packed) Pack(sp *Spec) {
	if len(pk.Cols) != len(sp.Attrs) {
		pk.Cols = make([][]uint8, len(sp.Attrs))
	}
	if sp.Classes > MaxNarrow {
		pk.Class = nil
		clear(pk.Cols)
		return
	}
	pk.Class = gatherBytes(pk.Class, sp.Class, pk.IDs)
	for a := range sp.Attrs {
		if sp.Narrow(a) {
			pk.Cols[a] = gatherBytes(pk.Cols[a], sp.Attrs[a].Cat, pk.IDs)
		} else {
			pk.Cols[a] = nil
		}
	}
}

// gatherBytes stores col[id] for every id of ids into dst, resized to
// len(ids) and reallocated only when too small; never nil, so an empty
// layout still says its class is packed.
func gatherBytes(dst []uint8, col []int32, ids []int32) []uint8 {
	if dst == nil || cap(dst) < len(ids) {
		dst = make([]uint8, len(ids))
	}
	dst = dst[:len(ids)]
	for p, i := range ids {
		dst[p] = uint8(col[i])
	}
	return dst
}

// TabulateRange is TabulateInto over the rows at positions [lo, hi) of
// the layout pk of sp: the same counts added into flat and the same
// modeled op count as TabulateInto(flat, pk.IDs[lo:hi], sp). Byte columns
// are read as sequential ranges; the attributes without one gather
// through the range's ids, as TabulateInto does.
func TabulateRange(flat []int64, sp *Spec, pk *Packed, lo, hi int) int64 {
	ids := pk.IDs[lo:hi]
	if pk.Class == nil {
		return TabulateInto(flat, ids, sp)
	}
	c := sp.Classes
	cls := pk.Class[lo:hi]
	for _, k := range cls {
		flat[k]++
	}
	off := c
	for a, at := range sp.Attrs {
		blk := flat[off : off+at.Bins*c]
		switch {
		case pk.Cols[a] != nil:
			col := pk.Cols[a][lo:hi]
			col = col[:len(cls)]
			for p, v := range col {
				blk[int(v)*c+int(cls[p])]++
			}
		case at.Cat != nil:
			col := at.Cat
			for p, i := range ids {
				blk[int(col[i])*c+int(cls[p])]++
			}
		default:
			col := at.Cont
			edges := at.Edges
			for p, i := range ids {
				blk[BinOf(edges, col[i])*c+int(cls[p])]++
			}
		}
		off += at.Bins * c
	}
	return int64(len(ids)) + int64(len(flat)) + int64(len(sp.Attrs))*int64(len(ids))
}
