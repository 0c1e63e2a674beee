package tree

import (
	"partree/internal/criteria"
	"partree/internal/dataset"
	"partree/internal/kernel"
)

// FrontierItem pairs a tree node awaiting expansion with the (local) rows
// that reached it. GlobalN is the node's global training-case count,
// derived from the reduced statistics of its parent's expansion (equal to
// len(Idx) in the serial setting); the hybrid's splitting criterion and
// the partitioned formulation's load balancing read it without extra
// communication.
type FrontierItem struct {
	Node    *Node
	Idx     []int32
	GlobalN int64
}

// IDGen hands out deterministic node ids.
type IDGen struct{ next int64 }

// NewIDGen starts a generator at the given first id.
func NewIDGen(first int64) *IDGen { return &IDGen{next: first} }

// Next returns the next id.
func (g *IDGen) Next() int64 { v := g.next; g.next++; return v }

// Snapshot returns the generator's position, for rollback by the
// fault-tolerant builders.
func (g *IDGen) Snapshot() int64 { return g.next }

// Restore rewinds the generator to a Snapshot, so a retried expansion
// hands out the same ids as the failed attempt.
func (g *IDGen) Restore(v int64) { g.next = v }

// BuildBFS grows a complete tree breadth-first on a single processor. It
// uses exactly the statistics, split decisions and routing the parallel
// formulations use, so it is the reference every parallel result is
// compared against — and the "sequential algorithm" a lone processor of
// the partitioned formulation runs. Schemas with continuous attributes
// require o.Binner.
func BuildBFS(d *dataset.Dataset, o Options) *Tree {
	o = o.WithDefaults()
	root := &Node{ID: 0, Kind: Leaf, Dist: make([]int64, d.Schema.NumClasses())}
	ids := NewIDGen(1)
	GrowFrontierBFS(d, []FrontierItem{{Node: root, Idx: d.AllIndex()}}, o, ids)
	return &Tree{Schema: d.Schema, Root: root}
}

// GrowFrontierBFS expands every frontier node to completion, level by
// level, in the order given (the deterministic frontier order shared by
// all builders). The nodes are mutated in place. Returns the modeled
// record-attribute operations performed (t_c class: every tabulation or
// routing touch amortizes the record scan) and, separately, the pure
// in-memory word-arithmetic operations (t_op class: sibling derivation
// and cache stores — the same operation class as a reduction's combine),
// for cost accounting by callers that track a clock.
//
// With o.Reuse.Subtraction set, each expanded node's statistics block is
// cached for one level and at the next level every family tabulates all
// children but its largest, deriving that one exactly as parent − Σ
// siblings — the trees are bit-identical either way (see kernel's reuse
// documentation); only the modeled op counts change.
func GrowFrontierBFS(d *dataset.Dataset, frontier []FrontierItem, o Options, ids *IDGen) (scanOps, wordOps int64) {
	o = o.WithDefaults()
	return growLevels(NewIndexRows(d, o), frontier, o, ids)
}

// RowSource is where a breadth-first level step takes the local rows of
// its frontier from: NewIndexRows for a resident dataset, *Slots for a
// chunked table. Begin and End bracket a level; in between, the step asks
// for the local statistics of the frontier nodes it tabulates and expands
// every node, in frontier order, from its (global) statistics.
type RowSource interface {
	Schema() *dataset.Schema
	Begin(frontier []FrontierItem)
	// TabulateInto adds frontier[j]'s local statistics into the zeroed blk
	// and returns the modeled ops, kernel.TabulateInto's charge.
	TabulateInto(j int, it FrontierItem, blk []int64) int64
	// Expand finalizes frontier[j], adds its routing ops to *ops and
	// returns its kept children.
	Expand(j int, it FrontierItem, stats *NodeStats, ids *IDGen, ops *int64) []FrontierItem
	End(frontier []FrontierItem)
	// Err reports a failed row read; the level loops stop at the first.
	Err() error
}

// Unit is one step of a breadth-first level: the N frontier items at the
// head of the remaining frontier. Der < 0 is a lone node, tabulated;
// otherwise the items are one cached family whose member Der is derived
// from the parent's block Parent instead of being tabulated.
type Unit struct {
	N, Der int
	Parent []int64
}

// PlanUnit plans the unit at the head of rest from the one-level reuse
// cache rc (nil with sibling subtraction off). A cache hit makes a family
// only if its kept children are exactly rest's first items, in order — so
// the whole family must lie in rest, which for the synchronous loop is
// one flush chunk. ExpandNodeOOC returns a family's children consecutively,
// no level loop reorders a frontier it caches, and the synchronous loop
// caches only families that land in one chunk, so a hit always aligns —
// the check keeps a stale cache loudly unusable rather than silently wrong. The derived
// member is the largest by GlobalN, or with smallest set (voting's choice,
// see core's voteFam.derVote) the smallest; ties go to the first.
func PlanUnit(rc *kernel.ReuseCache, rest []FrontierItem, smallest bool) Unit {
	lone := Unit{N: 1, Der: -1}
	fam, ok := rc.Lookup(rest[0].Node.ID)
	if !ok || len(fam.Kids) > len(rest) {
		return lone
	}
	for i, id := range fam.Kids {
		if rest[i].Node.ID != id {
			return lone
		}
	}
	der := 0
	for i := 1; i < len(fam.Kids); i++ {
		n, m := rest[i].GlobalN, rest[der].GlobalN
		if (!smallest && n > m) || (smallest && n < m) {
			der = i
		}
	}
	return Unit{N: len(fam.Kids), Der: der, Parent: fam.Parent}
}

// Derive fills the family's withheld block, block(u.Der), as the parent
// block minus every other member's block(i), and returns the modeled
// word ops. Exact on int64 counts: children partition their parent's rows.
func (u Unit) Derive(block func(i int) []int64) int64 {
	dst := block(u.Der)
	ops := kernel.DeriveFrom(dst, u.Parent)
	for i := 0; i < u.N; i++ {
		if i != u.Der {
			ops += kernel.Subtract(dst, block(i))
		}
	}
	return ops
}

// growLevels is the serial breadth-first loop: it expands every frontier
// node to completion, level by level, taking the local rows from rows.
// The synchronous formulation's level step (core's expandLevelSync) is
// the same walk with a global reduction between tabulate and expand.
// Each level is walked one PlanUnit at a time, so the working set is one
// statistics block per lone node or per family, never one per level.
// With o.Reuse.Subtraction a pair of one-level caches (read and write,
// swapped at each level boundary) feeds the planner. Returns the modeled
// ops as GrowFrontierBFS documents them.
func growLevels(rows RowSource, frontier []FrontierItem, o Options, ids *IDGen) (scanOps, wordOps int64) {
	s := rows.Schema()
	statsLen := StatsLen(s, o)
	var rd, wr *kernel.ReuseCache
	if o.Reuse.Subtraction {
		rd, wr = kernel.NewReuseCache(), kernel.NewReuseCache()
	}
	var blocks, kidIDs []int64 // blocks: the current unit's, grown on demand
	var view NodeStats         // every node's decoded statistics, in turn
	block := func(i int) []int64 { return blocks[i*statsLen : (i+1)*statsLen] }
	for len(frontier) > 0 && rows.Err() == nil {
		rows.Begin(frontier)
		var next []FrontierItem
		for j := 0; j < len(frontier); {
			u := PlanUnit(rd, frontier[j:], false)
			blocks = grow(blocks, u.N*statsLen)
			clear(blocks)
			for i := 0; i < u.N; i++ {
				if i != u.Der {
					scanOps += rows.TabulateInto(j+i, frontier[j+i], block(i))
				}
			}
			if u.Der >= 0 {
				wordOps += u.Derive(block)
			}
			for i := 0; i < u.N; i++ {
				kids := rows.Expand(j+i, frontier[j+i], view.Decode(block(i), s, o), ids, &scanOps)
				if len(kids) > 0 && wr != nil {
					kidIDs = kidIDs[:0]
					for _, kd := range kids {
						kidIDs = append(kidIDs, kd.Node.ID)
					}
					wordOps += wr.Store(block(i), kidIDs)
				}
				next = append(next, kids...)
			}
			j += u.N
		}
		rows.End(frontier)
		frontier = next
		if rd != nil {
			rd.Reset()
			rd, wr = wr, rd
		}
	}
	return scanOps, wordOps
}

// GlobalChildCounts derives, from the node's reduced statistics, how many
// training cases each child of the split receives globally. Every
// processor computes the same answer from the same statistics.
func GlobalChildCounts(sp Split, stats *NodeStats, s *dataset.Schema, o Options) []int64 {
	h := stats.Hists[sp.Attr]
	switch sp.Kind {
	case CatMultiway:
		out := make([]int64, h.M)
		for v := 0; v < h.M; v++ {
			out[v] = h.ValueTotal(v)
		}
		return out
	case CatBinary:
		out := make([]int64, 2)
		for v := 0; v < h.M; v++ {
			if sp.Mask&(1<<uint(v)) != 0 {
				out[0] += h.ValueTotal(v)
			} else {
				out[1] += h.ValueTotal(v)
			}
		}
		return out
	case ContBinned:
		centers := o.Binner.MicroCenters(sp.Attr)
		binTotals := make([]int64, len(sp.Edges)+1)
		for b := 0; b < h.M; b++ {
			binTotals[criteria.BinOf(sp.Edges, centers[b])] += h.ValueTotal(b)
		}
		if sp.Mask == 0 {
			return binTotals
		}
		out := make([]int64, 2)
		for b, n := range binTotals {
			if sp.Mask&(1<<uint(b)) != 0 {
				out[0] += n
			} else {
				out[1] += n
			}
		}
		return out
	default:
		panic("tree: GlobalChildCounts on a leaf split")
	}
}
