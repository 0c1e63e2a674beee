package forest

import (
	"fmt"
	"math"
	"sync"
	"unsafe"

	"partree/internal/dataset"
	"partree/internal/flat"
	"partree/internal/tree"
)

// Fused is the compiled serving form of a forest: every member's flat
// node table merged into one multi-root flat.Model, laid out level-major
// ACROSS trees — all roots first (member t's root is node t), then every
// member's depth-1 nodes, and so on. The interleaving matters:
// batched prediction walks all trees for a tile of rows, so the active
// working set at any moment is one cross-tree level band plus the tile's
// column segments, not T disjoint tables. Child indexes are absolute
// (ChildBase[i] already includes the member's offset) and leaves carry
// ChildBase -1, so the walk needs no per-tree base register and leaf
// detection is one sign test instead of a kind switch.
//
// A single tree serves as a one-member Fused: its table is flat.Compile's
// with the same node and leaf counts, and a binary tree takes the step
// walk below like any forest.
//
// Votes accumulate per row in ascending member order in every path —
// fused, naive, integer or weighted — so fused prediction is
// bit-identical to per-tree aggregation (the differential tests'
// contract), including float-sum order for weighted forests.
type Fused struct {
	// Model is the merged node table. Its PredictFrom walks one member
	// from that member's root; a forest's vote goes through Fused's
	// methods.
	flat.Model
	// Members keeps the per-tree compiled models; PredictNaiveInto — the
	// reference (and baseline) path — routes through them.
	Members []*flat.Model
	// Weights is nil for majority voting, per-member for weighted.
	Weights []float64

	// fast is true when stepWalkable verified the table: only leaves and
	// binary tests (ContBinary/CatBinary), every child and attribute
	// index in range — the shape of forests grown by the binary-split
	// builders — enabling the level-synchronous step walk below.
	fast bool

	// Depths[t] is member t's maximum leaf depth: the number of step-walk
	// iterations that provably land every row of that member on a leaf.
	Depths []int32

	// steps is the fast walk's self-looping reencoding of the node
	// table; see stepNode for the encoding. This removes the kind
	// switch, the mask range test and the leaf-exit branch from the
	// inner loop: a tile of rows advances one level per pass, every
	// row's chain independent of its neighbors', so the walk runs at
	// load-throughput instead of load-latency speed.
	steps []stepNode

	// scratch pools the batch walk's per-call buffers (*walkScratch), so
	// a warmed PredictInto allocates nothing. The pool is per table: a
	// tile's lanes that fillTile never writes must keep their zero, which
	// holds only among calls with one stride.
	scratch sync.Pool
}

// walkScratch is one PredictInto call's working memory: the fast walk's
// row tile and the tile's vote block, integer or weighted.
type walkScratch struct {
	tile   []uint64
	votes  []int64
	wvotes []float64
}

// getScratch returns a walkScratch sized for f, from the pool when one
// is free. Votes are cleared per tile by the walk, the tile is
// zero-initialized once and fillTile keeps its zero lanes zero.
func (f *Fused) getScratch() *walkScratch {
	ws, _ := f.scratch.Get().(*walkScratch)
	if ws == nil {
		classes := f.Schema.NumClasses()
		ws = &walkScratch{}
		if f.Weights == nil {
			ws.votes = make([]int64, voteTile*classes)
		} else {
			ws.wvotes = make([]float64, voteTile*classes)
		}
		if f.fast {
			ws.tile = make([]uint64, voteTile*2*(f.Schema.NumAttrs()+1))
		}
	}
	return ws
}

// stepNode packs one fast-walk node into 16 bytes under a single
// branchless child formula covering all three binary-walk kinds,
// engineered for the walk's real limits — load-port pressure and
// instruction count — rather than readability: both addresses the
// walk computes are byte offsets, both compares are integer ops.
//
// The tile stores each attribute as an adjacent pair of uint64 lanes:
// an order-preserving integer key of the continuous value (floatKey;
// zero for categorical slots, whose kinds never carry continuous
// tests), then a one-hot category selector 1<<code. ca packs the two
// address fields in one load — low 32 bits the child's BYTE offset
// into the step table (index*16), high 32 bits the attribute's BYTE
// offset into a tile row (lane pair 2*attr, prescaled by 8) — and
// payload is the threshold key AND the category mask, one word
// interpreted both ways:
//
//	next = child + 16*(tile[aoff] > payload) + 16*(payload & tile[aoff+8] == 0)
//
// with both comparisons unsigned. The two increments are mutually
// exclusive by encoding, each kind neutralizing the term it does not
// use through the lane values, not extra fields:
//
//   - ContBinary: payload = floatKey(thresh), NaN thresholds rejected
//     by stepWalkable, so payload is the key of a real number and
//     never zero. The selector lane of a continuous slot is ^0, so
//     payload & sel equals payload ≠ 0 and only the compare can
//     advance; the key compare decides exactly like > on the floats.
//   - CatBinary: payload = mask. The key lane of a categorical slot
//     is zero — the minimal key, exceeded by nothing — so the compare
//     contributes nothing regardless of how the mask reads as a key;
//     a clear mask bit, or a selector zeroed by an out-of-range code
//     (Go shifts past 63 vanish exactly like the guarded test in
//     flat.Model.PredictFrom), routes right.
//   - Leaf: self-loop — child = own byte offset, payload = ^0, aoff =
//     the tile's spare pair, whose key lane is zero (0 > ^0 is false
//     unsigned) and selector lane ^0 (^0 & ^0 ≠ 0), so neither term
//     ever fires.
type stepNode struct {
	ca      uint64
	payload uint64
}

// voteTile is the row-tile width of the fused batch walk. Small enough
// that the per-tile vote block and the tile's column segments stay
// cache-resident while every member walks the tile; large enough to
// amortize re-touching the upper level bands of the node table once per
// member per tile.
const voteTile = 256

// Trees returns the member count.
func (f *Fused) Trees() int { return len(f.Members) }

// Nodes returns the total fused node count across members.
func (f *Fused) Nodes() int { return f.Len() }

// Compile flattens a trained forest: each member through flat.Compile,
// then the members through CompileFlat.
func Compile(f *Forest) (*Fused, error) {
	if f == nil || len(f.Trees) == 0 {
		return nil, fmt.Errorf("forest: compiling an empty forest")
	}
	models := make([]*flat.Model, len(f.Trees))
	for i, t := range f.Trees {
		m, err := flat.Compile(t)
		if err != nil {
			return nil, fmt.Errorf("forest: member %d: %w", i, err)
		}
		models[i] = m
	}
	return CompileFlat(models, f.Weights)
}

// CompileFlat fuses already-compiled member models into the interleaved
// layout. weights nil selects majority voting; otherwise len(weights)
// must equal len(models). Every member must be compiled under a
// compatible schema (same attribute count and kinds, same class count);
// the forest reader guarantees full schema equality.
func CompileFlat(models []*flat.Model, weights []float64) (*Fused, error) {
	if len(models) == 0 {
		return nil, fmt.Errorf("forest: fusing zero models")
	}
	if weights != nil && len(weights) != len(models) {
		return nil, fmt.Errorf("forest: %d weights for %d members", len(weights), len(models))
	}
	s := models[0].Schema
	total := 0
	for i, m := range models {
		if err := compatibleSchemas(s, m.Schema); err != nil {
			return nil, fmt.Errorf("forest: member %d: %w", i, err)
		}
		total += m.Len()
	}
	f := &Fused{
		Model: flat.Model{
			Schema:    s,
			Kind:      make([]tree.SplitKind, 0, total),
			Attr:      make([]int32, 0, total),
			Thresh:    make([]float64, 0, total),
			Mask:      make([]uint64, 0, total),
			ChildBase: make([]int32, 0, total),
			NumChild:  make([]int32, 0, total),
			Class:     make([]int32, 0, total),
			EdgeBase:  make([]int32, 0, total),
			EdgeLen:   make([]int32, 0, total),
		},
		Members: models,
		Weights: weights,
	}

	// Breadth-first emission over ALL trees at once: the queue starts
	// with every root, so fused order is level-major across members and
	// children of one node stay contiguous. Emission order equals queue
	// order, so the node being expanded at queue position q sits at fused
	// index q.
	type ref struct {
		t int
		i int32
	}
	queue := make([]ref, 0, total)
	depths := make([]int32, 0, total)
	emit := func(r ref) {
		m := models[r.t]
		i := r.i
		f.Kind = append(f.Kind, m.Kind[i])
		f.Attr = append(f.Attr, m.Attr[i])
		f.Thresh = append(f.Thresh, m.Thresh[i])
		f.Mask = append(f.Mask, m.Mask[i])
		f.ChildBase = append(f.ChildBase, -1)
		f.NumChild = append(f.NumChild, m.NumChild[i])
		f.Class = append(f.Class, m.Class[i])
		f.EdgeBase = append(f.EdgeBase, int32(len(f.Edges)))
		f.EdgeLen = append(f.EdgeLen, m.EdgeLen[i])
		if n := m.EdgeLen[i]; n > 0 {
			f.Edges = append(f.Edges, m.Edges[m.EdgeBase[i]:m.EdgeBase[i]+n]...)
		}
		queue = append(queue, r)
	}
	for t := range models {
		emit(ref{t: t, i: 0})
		depths = append(depths, 0)
	}
	for q := 0; q < len(queue); q++ {
		if f.Kind[q] == tree.Leaf {
			continue
		}
		r := queue[q]
		m := models[r.t]
		f.ChildBase[q] = int32(len(f.Kind))
		cb := m.ChildBase[r.i]
		for c := int32(0); c < m.NumChild[r.i]; c++ {
			emit(ref{t: r.t, i: cb + c})
			depths = append(depths, depths[q]+1)
		}
	}

	f.Depths = make([]int32, len(models))
	for q := range queue {
		if t := queue[q].t; depths[q] > f.Depths[t] {
			f.Depths[t] = depths[q]
		}
	}

	f.fast = stepWalkable(f)
	if f.fast {
		f.buildStepArrays()
	}
	return f, nil
}

// stepWalkable reports whether the fused table qualifies for the
// unchecked step walk: only binary-walk node kinds, and — verified
// here rather than assumed — every child index and attribute in
// range, no NaN continuous threshold (the key encoding reserves key 0
// for NaN data), and the table small enough that byte offsets fit
// int32. The walk's pointer arithmetic therefore cannot leave its
// arrays no matter what model file produced the table; tables that
// fail take the generic bounds-checked walk instead.
func stepWalkable(f *Fused) bool {
	n := int32(len(f.Kind))
	if len(f.Kind) >= 1<<27 { // node byte offsets must fit int32
		return false
	}
	attrs := int32(f.Schema.NumAttrs())
	for i, k := range f.Kind {
		switch k {
		case tree.Leaf:
		case tree.ContBinary:
			if math.IsNaN(f.Thresh[i]) {
				return false
			}
			cb := f.ChildBase[i]
			if cb < 0 || cb+1 >= n || f.Attr[i] < 0 || f.Attr[i] >= attrs {
				return false
			}
		case tree.CatBinary:
			cb := f.ChildBase[i]
			if cb < 0 || cb+1 >= n || f.Attr[i] < 0 || f.Attr[i] >= attrs {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// floatKey maps a float64 to a uint64 whose unsigned order matches the
// float order: sign-magnitude bits become two's-complement-style by
// flipping all bits of negatives and the sign bit of non-negatives.
// Both zeros map to one key (they compare equal as floats) and NaN
// maps to key 0, below every real key, so key(x) > key(t) reproduces
// x > t exactly — including "NaN exceeds nothing" — for every real
// threshold t. No real number maps to key 0 (that preimage is a NaN
// pattern), which the leaf and mask encodings rely on.
func floatKey(v float64) uint64 {
	if v != v {
		return 0
	}
	if v == 0 {
		return 1 << 63
	}
	b := math.Float64bits(v)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// buildStepArrays reencodes the node table for the level-synchronous
// walk under the stepNode neutral-element encoding: each kind
// neutralizes the term it does not use, leaves become absorbing
// self-loops parked on the tile's spare always-zero slot.
func (f *Fused) buildStepArrays() {
	f.steps = make([]stepNode, len(f.Kind))
	// ca byte-offset packing: child index*16 (stepNode size) in the low
	// word, lane pair 2*attr*8 in the high word.
	pack := func(child, attr int32) uint64 {
		return uint64(uint32(16*attr))<<32 | uint64(uint32(16*child))
	}
	spareAttr := int32(f.Schema.NumAttrs())
	for i, k := range f.Kind {
		switch k {
		case tree.Leaf:
			f.steps[i] = stepNode{ca: pack(int32(i), spareAttr), payload: ^uint64(0)}
		case tree.ContBinary:
			f.steps[i] = stepNode{ca: pack(f.ChildBase[i], f.Attr[i]), payload: floatKey(f.Thresh[i])}
		default: // CatBinary
			f.steps[i] = stepNode{ca: pack(f.ChildBase[i], f.Attr[i]), payload: f.Mask[i]}
		}
	}
}

// compatibleSchemas checks the structural compatibility fusing requires.
func compatibleSchemas(want, got *dataset.Schema) error {
	if got == nil {
		return fmt.Errorf("model has no schema")
	}
	if want.NumAttrs() != got.NumAttrs() {
		return fmt.Errorf("schema has %d attributes, forest expects %d", got.NumAttrs(), want.NumAttrs())
	}
	if want.NumClasses() != got.NumClasses() {
		return fmt.Errorf("schema has %d classes, forest expects %d", got.NumClasses(), want.NumClasses())
	}
	for i := range want.Attrs {
		if want.Attrs[i].Kind != got.Attrs[i].Kind {
			return fmt.Errorf("attribute %d is %v, forest expects %v", i, got.Attrs[i].Kind, want.Attrs[i].Kind)
		}
	}
	return nil
}

// PredictInto classifies rows [lo, hi) of d into out[lo:hi] through the
// fused layout — the shard unit of the forest batch engine. Rows are
// processed in voteTile-sized tiles: all members vote on the tile, then
// the tile's rows resolve to classes, so the vote block never leaves
// cache and the output is written once per row.
func (f *Fused) PredictInto(d *dataset.Dataset, out []int32, lo, hi int) {
	if f.Weights == nil {
		f.predictMajority(d, out, lo, hi)
	} else {
		f.predictWeighted(d, out, lo, hi)
	}
}

// fillTile transposes rows [blo, bhi) into the row-major pair-lane
// tile: per row, attribute a occupies lanes 2a (floatKey of the
// continuous value) and 2a+1 (one-hot category selector), so a node's
// two reads land on one 16-byte pair and the walk chases no
// per-attribute slice headers. Selector lanes of continuous slots and
// of the spare pair that leaves park on are set to ^0; key lanes of
// categorical slots and of the spare pair keep the tile's zero
// initialization, the minimal key — the neutral elements of the
// stepNode formula's two terms.
func fillTile(tile []uint64, d *dataset.Dataset, blo, bhi, stride2 int) {
	for a, col := range d.Cont {
		if col == nil {
			continue
		}
		for k, v := range col[blo:bhi] {
			tile[k*stride2+2*a] = floatKey(v)
			tile[k*stride2+2*a+1] = ^uint64(0)
		}
	}
	for a, col := range d.Cat {
		if col == nil {
			continue
		}
		for k, v := range col[blo:bhi] {
			tile[k*stride2+2*a+1] = 1 << uint32(v)
		}
	}
	for k := 0; k < bhi-blo; k++ {
		tile[k*stride2+stride2-1] = ^uint64(0)
	}
}

// stepWalk advances every row of walk through `steps` levels of the
// self-looping step table — the fused fast path's hot loop, kept as a
// standalone function so the register allocator works on just these
// six values. walk holds node BYTE offsets (index*16), matching the ca
// packing. One pass moves all rows down one level: the chains are
// independent, so the loads pipeline across rows instead of
// serializing down one row's path, and both the key compare and the
// mask test lower to flag arithmetic (no data-dependent branch to
// mispredict). A row that reaches its leaf early self-loops until the
// pass count runs out; steps must be the member's maximum leaf depth,
// after which every row provably sits on a leaf.
// The walk reads nodes and tile through raw pointers: the loop is
// load-port- and instruction-throughput-bound, and the bounds checks
// Go cannot elide (node and tile offsets are data-dependent) would be
// a quarter of its body. Safety is established once per table, not
// per step: stepWalkable verified every child index and attribute of
// this table in range, buildStepArrays keeps leaves self-looping and
// both increments mutually exclusive, so the node offset stays within
// nodes and koff+(ca>>32)+8 stays within one tile row for every
// reachable input.
func stepWalk(walk []int32, nodes []stepNode, tile []uint64, stride2, steps int) {
	if len(walk) == 0 || len(nodes) == 0 || len(tile) == 0 {
		return
	}
	np := unsafe.Pointer(&nodes[0])
	tp := unsafe.Pointer(&tile[0])
	rowBytes := uintptr(stride2) * 8
	for s := 0; s < steps; s++ {
		koff := uintptr(0)
		for k, i := range walk {
			nd := (*stepNode)(unsafe.Add(np, uintptr(uint32(i))))
			ca := nd.ca
			p := nd.payload
			a := koff + uintptr(ca>>32)
			b := int32(uint32(ca))
			if *(*uint64)(unsafe.Add(tp, a)) > p {
				b += 16
			}
			if p&*(*uint64)(unsafe.Add(tp, a+8)) == 0 {
				b += 16
			}
			walk[k] = b
			koff += rowBytes
		}
	}
}

func (f *Fused) predictMajority(d *dataset.Dataset, out []int32, lo, hi int) {
	classes := f.Schema.NumClasses()
	stride2 := 2 * (f.Schema.NumAttrs() + 1)
	ws := f.getScratch()
	defer f.scratch.Put(ws)
	votes, tile := ws.votes, ws.tile
	var idx [voteTile]int32
	for blo := lo; blo < hi; blo += voteTile {
		bhi := blo + voteTile
		if bhi > hi {
			bhi = hi
		}
		clear(votes[:(bhi-blo)*classes])
		if f.fast {
			fillTile(tile, d, blo, bhi, stride2)
			nodes, class := f.steps, f.Class
			walk := idx[:bhi-blo]
			for t := range f.Members {
				root, steps := int32(t)*16, int(f.Depths[t])
				for k := range walk {
					walk[k] = root
				}
				stepWalk(walk, nodes, tile, stride2, steps)
				for k, i := range walk {
					votes[k*classes+int(class[i>>4])]++
				}
			}
		} else {
			for t := range f.Members {
				for r := blo; r < bhi; r++ {
					votes[(r-blo)*classes+int(f.PredictFrom(d, r, int32(t)))]++
				}
			}
		}
		for r := blo; r < bhi; r++ {
			out[r] = argmaxInt(votes[(r-blo)*classes : (r-blo+1)*classes])
		}
	}
}

func (f *Fused) predictWeighted(d *dataset.Dataset, out []int32, lo, hi int) {
	classes := f.Schema.NumClasses()
	stride2 := 2 * (f.Schema.NumAttrs() + 1)
	ws := f.getScratch()
	defer f.scratch.Put(ws)
	votes, tile := ws.wvotes, ws.tile
	var idx [voteTile]int32
	for blo := lo; blo < hi; blo += voteTile {
		bhi := blo + voteTile
		if bhi > hi {
			bhi = hi
		}
		clear(votes[:(bhi-blo)*classes])
		if f.fast {
			// Same step walk as the majority path; per-row weight sums
			// still accumulate in ascending member order, so weighted
			// fused prediction stays bit-identical to per-tree
			// aggregation (float addition order included).
			fillTile(tile, d, blo, bhi, stride2)
			nodes, class := f.steps, f.Class
			walk := idx[:bhi-blo]
			for t := range f.Members {
				root, steps, w := int32(t)*16, int(f.Depths[t]), f.Weights[t]
				for k := range walk {
					walk[k] = root
				}
				stepWalk(walk, nodes, tile, stride2, steps)
				for k, i := range walk {
					votes[k*classes+int(class[i>>4])] += w
				}
			}
		} else {
			for t, w := range f.Weights {
				for r := blo; r < bhi; r++ {
					votes[(r-blo)*classes+int(f.PredictFrom(d, r, int32(t)))] += w
				}
			}
		}
		for r := blo; r < bhi; r++ {
			out[r] = argmaxFloat(votes[(r-blo)*classes : (r-blo+1)*classes])
		}
	}
}

// PredictNaiveInto classifies rows [lo, hi) the way a forest without the
// fused layout would: member by member over the whole batch through the
// per-tree flat models, votes accumulated in a full row×class block. It
// is both the differential reference (bit-identical votes by
// construction) and the baseline the fused layout is benchmarked against
// in BENCH_serve.json.
func (f *Fused) PredictNaiveInto(d *dataset.Dataset, out []int32, lo, hi int) {
	classes := f.Schema.NumClasses()
	n := hi - lo
	if n <= 0 {
		return
	}
	if f.Weights == nil {
		votes := make([]int64, n*classes)
		for _, m := range f.Members {
			for r := lo; r < hi; r++ {
				votes[(r-lo)*classes+int(m.PredictFrom(d, r, 0))]++
			}
		}
		for r := lo; r < hi; r++ {
			out[r] = argmaxInt(votes[(r-lo)*classes : (r-lo+1)*classes])
		}
		return
	}
	votes := make([]float64, n*classes)
	for t, m := range f.Members {
		w := f.Weights[t]
		for r := lo; r < hi; r++ {
			votes[(r-lo)*classes+int(m.PredictFrom(d, r, 0))] += w
		}
	}
	for r := lo; r < hi; r++ {
		out[r] = argmaxFloat(votes[(r-lo)*classes : (r-lo+1)*classes])
	}
}

// Accuracy returns the fraction of rows of d the fused forest classifies
// correctly.
func (f *Fused) Accuracy(d *dataset.Dataset) float64 {
	if d.Len() == 0 {
		return 0
	}
	out := make([]int32, d.Len())
	f.PredictInto(d, out, 0, d.Len())
	ok := 0
	for i, c := range out {
		if c == d.Class[i] {
			ok++
		}
	}
	return float64(ok) / float64(d.Len())
}

// argmaxInt returns the smallest index holding the maximum count — the
// deterministic tie-break shared with tree.MajorityClass.
func argmaxInt(votes []int64) int32 {
	best, bestN := 0, int64(-1)
	for c, n := range votes {
		if n > bestN {
			best, bestN = c, n
		}
	}
	return int32(best)
}

// argmaxFloat is argmaxInt over float weights (ties to smallest index).
func argmaxFloat(votes []float64) int32 {
	best := 0
	bestW := votes[0]
	for c := 1; c < len(votes); c++ {
		if votes[c] > bestW {
			best, bestW = c, votes[c]
		}
	}
	return int32(best)
}
