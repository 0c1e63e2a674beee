package tree

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"partree/internal/dataset"
	"partree/internal/discretize"
	"partree/internal/kernel"
)

// gatherSource is the resident RowSource the level layout replaced, the
// oracle of these tests: every node gathers its Idx out of the int32
// columns and PartitionRows routes them.
type gatherSource struct {
	d    *dataset.Dataset
	o    Options
	spec *kernel.Spec
}

func (g *gatherSource) Schema() *dataset.Schema { return g.d.Schema }
func (g *gatherSource) Begin([]FrontierItem)    {}
func (g *gatherSource) End([]FrontierItem)      {}
func (g *gatherSource) Err() error              { return nil }
func (g *gatherSource) TabulateInto(_ int, it FrontierItem, blk []int64) int64 {
	return kernel.TabulateInto(blk, it.Idx, g.spec)
}
func (g *gatherSource) Expand(_ int, it FrontierItem, stats *NodeStats, ids *IDGen, ops *int64) []FrontierItem {
	kids, childSlot, split := ExpandNodeOOC(it, stats, g.d.Schema, g.o, ids)
	if !split {
		return nil
	}
	parts, routeOps := PartitionRows(it.Node, g.d, it.Idx)
	*ops += routeOps
	for ci, part := range parts {
		if sl := childSlot[ci]; sl >= 0 {
			kids[sl].Idx = part
		}
	}
	return kids
}

// mixedData has one continuous attribute, a narrow categorical one and a
// categorical one of 300 values, whose multiway splits have more
// children than a byte code names.
func mixedData(seed uint64, n int) (*dataset.Dataset, *discretize.NodeBinner) {
	wide := make([]string, 300)
	for v := range wide {
		wide[v] = fmt.Sprint(v)
	}
	s := &dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "x", Kind: dataset.Continuous},
			{Name: "small", Kind: dataset.Categorical, Values: []string{"a", "b", "c", "d", "e"}},
			{Name: "wide", Kind: dataset.Categorical, Values: wide},
		},
		Classes: []string{"p", "q", "r"},
	}
	rng := rand.New(rand.NewPCG(seed, 2))
	d := dataset.New(s, n)
	rec := dataset.NewRecord(s)
	for i := 0; i < n; i++ {
		rec.Cont[0] = rng.NormFloat64() * 10
		rec.Cat[1] = int32(rng.IntN(5))
		rec.Cat[2] = int32(rng.IntN(300))
		rec.Class = 0
		switch {
		case rec.Cat[2]%5 < 2 && rec.Cont[0] > -3:
			rec.Class = 1
		case rec.Cat[1] == 2 || rec.Cont[0] > 11:
			rec.Class = 2
		}
		if rng.IntN(15) == 0 {
			rec.Class = int32(rng.IntN(3))
		}
		d.Append(rec)
	}
	return d, &discretize.NodeBinner{MicroBins: 32, K: 5, Ranges: [][2]float64{{-45, 45}, {}, {}}}
}

// TestLevelLayoutMatchesGatherSerial: the serial level loop over the
// layout grows the gather loop's tree with the same modeled scan and word
// ops, on all-narrow data and on the fallback schema, binary and
// multiway, with and without sibling subtraction.
func TestLevelLayoutMatchesGatherSerial(t *testing.T) {
	mixed, binner := mixedData(3, 3000)
	for _, dt := range []struct {
		name string
		d    *dataset.Dataset
		o    Options
	}{
		{"categorical", randomCategorical(5, 3000), Options{}},
		{"mixed", mixed, Options{Binner: binner}},
	} {
		for _, binary := range []bool{true, false} {
			for _, sub := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/binary=%v/subtraction=%v", dt.name, binary, sub), func(t *testing.T) {
					o := dt.o
					o.Binary = binary
					o.Reuse.Subtraction = sub
					o = o.WithDefaults()
					grow := func(rows RowSource) (*Tree, int64, int64) {
						root := &Node{Kind: Leaf, Dist: make([]int64, dt.d.Schema.NumClasses())}
						scan, word := growLevels(rows, []FrontierItem{{Node: root, Idx: dt.d.AllIndex()}}, o, NewIDGen(1))
						return &Tree{Schema: dt.d.Schema, Root: root}, scan, word
					}
					got, gScan, gWord := grow(NewIndexRows(dt.d, o))
					want, wScan, wWord := grow(&gatherSource{d: dt.d, o: o, spec: NewStatsSpec(dt.d, o)})
					if !Equal(want, got) {
						t.Fatalf("tree differs from the gather loop's: %s", Diff(want, got))
					}
					if gScan != wScan || gWord != wWord {
						t.Fatalf("ops scan %d word %d, gather loop %d %d", gScan, gWord, wScan, wWord)
					}
					if st := got.Stats(); st.Nodes < 20 {
						t.Fatalf("only %d nodes: the case exercises nothing", st.Nodes)
					}
				})
			}
		}
	}
}

// TestLevelLayoutFrontier drives one level step by hand. Each kept
// child's Idx is PartitionRows' part (ascending, because the root's ids
// are) and a cap-limited sub-slice of the layout, so an append to one
// child — what core's adoptLevelRows does after a restore — reallocates
// it and leaves its neighbour's ids unchanged. The next Begin keeps the
// layout for the frontier it produced and repacks for any other.
func TestLevelLayoutFrontier(t *testing.T) {
	d, binner := mixedData(7, 2000)
	for _, multiway := range []bool{false, true} {
		o := Options{Binary: !multiway, Binner: binner}.WithDefaults()
		r := NewIndexRows(d, o).(*indexRows)
		root := FrontierItem{Node: &Node{Kind: Leaf, Dist: make([]int64, 3)}, Idx: d.AllIndex()}
		frontier := []FrontierItem{root}
		r.Begin(frontier)
		blk := make([]int64, StatsLen(d.Schema, o))
		r.TabulateInto(0, root, blk)
		var ops int64
		kids := r.Expand(0, root, DecodeStats(blk, d.Schema, o), NewIDGen(1), &ops)
		r.End(frontier)
		if len(kids) < 2 {
			t.Fatalf("multiway=%v: root split into %d kept children", multiway, len(kids))
		}
		if wide := len(root.Node.Children) > kernel.MaxNarrow; wide != multiway {
			t.Fatalf("multiway=%v: root splits into %d children; the case misses its routing path", multiway, len(root.Node.Children))
		}
		parts, _ := PartitionRows(root.Node, d, root.Idx)
		k := 0
		for _, part := range parts {
			if len(part) == 0 {
				continue
			}
			if got := kids[k].Idx; !slices.Equal(got, part) || cap(got) != len(got) {
				t.Fatalf("multiway=%v: child %d has %d ids (cap %d), PartitionRows %d", multiway, k, len(got), cap(got), len(part))
			}
			k++
		}
		if !r.produced(kids) {
			t.Fatalf("multiway=%v: the frontier the step produced is not recognized", multiway)
		}
		moved := slices.Clone(kids)
		moved[0].Idx = slices.Clone(moved[0].Idx)
		if r.produced(moved) || r.produced(kids[1:]) {
			t.Fatalf("multiway=%v: a foreign frontier passes as the produced one", multiway)
		}
		neighbour := slices.Clone(kids[1].Idx)
		kids[0].Idx = append(kids[0].Idx, 1, 2, 3)
		if !slices.Equal(kids[1].Idx, neighbour) {
			t.Fatalf("multiway=%v: append to child 0 overwrote child 1's ids", multiway)
		}
		if r.produced(kids) {
			t.Fatalf("multiway=%v: a frontier with a grown item passes as the produced one", multiway)
		}
	}
}
