package tree

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"partree/internal/dataset"
	"partree/internal/kernel"
)

// partitionRowsRef is the append-per-row partition PartitionRows must
// reproduce: children in input order, nil for a child with no row.
func partitionRowsRef(n *Node, d *dataset.Dataset, idx []int32) [][]int32 {
	parts := make([][]int32, len(n.Children))
	for _, i := range idx {
		c := n.RouteRow(d, int(i))
		parts[c] = append(parts[c], i)
	}
	return parts
}

// TestPartitionRowsMatchesReference checks PartitionRows against the
// reference on every split kind, over a shuffled row subset (so input
// order is not row order), with children that receive no row and with
// more children than one-byte codes can name. It also checks that the
// children, which share one backing array, cannot overrun each other.
func TestPartitionRowsMatchesReference(t *testing.T) {
	wide := make([]string, 300)
	for v := range wide {
		wide[v] = fmt.Sprint(v)
	}
	s := &dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "x", Kind: dataset.Continuous},
			{Name: "small", Kind: dataset.Categorical, Values: []string{"a", "b", "c", "d", "e", "f"}},
			{Name: "wide", Kind: dataset.Categorical, Values: wide},
		},
		Classes: []string{"p", "n"},
	}
	rng := rand.New(rand.NewSource(44))
	const rows = 5000
	d := dataset.New(s, rows)
	rec := dataset.NewRecord(s)
	used := []int32{0, 2, 3, 5} // values 1 and 4 of "small" never occur
	for i := 0; i < rows; i++ {
		rec.Cont[0] = rng.NormFloat64() * 10
		rec.Cat[1] = used[rng.Intn(len(used))]
		rec.Cat[2] = int32(rng.Intn(len(wide)))
		rec.Class = int32(rng.Intn(2))
		d.Append(rec)
	}
	idx := d.AllIndex()
	rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
	idx = idx[:rows*3/4]

	withKids := func(n *Node, k int) *Node {
		n.Children = make([]*Node, k)
		for i := range n.Children {
			n.Children[i] = &Node{}
		}
		return n
	}
	cases := []struct {
		name string
		node *Node
	}{
		{"cat-multiway", withKids(&Node{Kind: CatMultiway, Attr: 1}, 6)},
		{"cat-multiway-wide", withKids(&Node{Kind: CatMultiway, Attr: 2}, len(wide))},
		{"cat-binary", withKids(&Node{Kind: CatBinary, Attr: 1, Mask: 1<<2 | 1<<5}, 2)},
		{"cont-binary", withKids(&Node{Kind: ContBinary, Attr: 0, Thresh: 1.5}, 2)},
		{"cont-binned", withKids(&Node{Kind: ContBinned, Attr: 0, Edges: []float64{-10, -1, 0, 7}}, 5)},
		{"cont-binned-masked", withKids(&Node{Kind: ContBinned, Attr: 0, Edges: []float64{-10, -1, 0, 7}, Mask: 1<<1 | 1<<3}, 2)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := partitionRowsRef(tc.node, d, idx)
			got, ops := PartitionRows(tc.node, d, idx)
			if ops != int64(len(idx)) {
				t.Errorf("ops = %d, want %d", ops, len(idx))
			}
			if len(got) != len(want) {
				t.Fatalf("%d children, want %d", len(got), len(want))
			}
			empty := 0
			for c := range want {
				if (got[c] == nil) != (want[c] == nil) || !slices.Equal(got[c], want[c]) {
					t.Errorf("child %d: got %d rows (nil %v), want %d (nil %v)", c, len(got[c]), got[c] == nil, len(want[c]), want[c] == nil)
				}
				if want[c] == nil {
					empty++
				}
			}
			if tc.name == "cat-multiway" && empty != 2 {
				t.Errorf("%d empty children, want 2 (values 1 and 4 never occur)", empty)
			}
			// Appending to a child must never write into the next one.
			for c := 0; c+1 < len(got); c++ {
				if len(got[c]) == 0 || len(got[c+1]) == 0 {
					continue
				}
				next := slices.Clone(got[c+1])
				got[c] = append(got[c], -1, -2, -3)
				if !slices.Equal(got[c+1], next) {
					t.Fatalf("appending to child %d overwrote child %d", c, c+1)
				}
			}
		})
	}

	t.Run("no-rows", func(t *testing.T) {
		got, ops := PartitionRows(cases[0].node, d, nil)
		if ops != 0 || len(got) != 6 {
			t.Fatalf("ops %d, %d children; want 0 and 6", ops, len(got))
		}
		for c, p := range got {
			if p != nil {
				t.Errorf("child %d = %v, want nil", c, p)
			}
		}
	})
}

// TestNodeStatsDecodeReuses: decoding node after node into one view gives
// the view DecodeStats would, aliasing the latest block, and the second
// decoding under the same schema allocates nothing.
func TestNodeStatsDecodeReuses(t *testing.T) {
	d := randomCategorical(5, 400)
	o := Options{Binary: true}.WithDefaults()
	spec := NewStatsSpec(d, o)
	idx := d.AllIndex()
	a, b := make([]int64, StatsLen(d.Schema, o)), make([]int64, StatsLen(d.Schema, o))
	kernel.TabulateInto(a, idx[:150], spec)
	kernel.TabulateInto(b, idx[150:], spec)
	var view NodeStats
	view.Decode(a, d.Schema, o)
	hists := slices.Clone(view.Hists)
	for _, flat := range [][]int64{b, a} {
		got, want := view.Decode(flat, d.Schema, o), DecodeStats(flat, d.Schema, o)
		if got != &view || &got.Dist[0] != &flat[0] || !slices.Equal(got.Dist, want.Dist) {
			t.Fatalf("Dist %v does not alias the block, want %v", got.Dist, want.Dist)
		}
		for i, h := range got.Hists {
			w := want.Hists[i]
			if h != hists[i] {
				t.Errorf("attr %d: histogram reallocated", i)
			}
			if h.M != w.M || h.C != w.C || &h.Counts[0] != &w.Counts[0] || len(h.Counts) != len(w.Counts) {
				t.Errorf("attr %d: got %d×%d at %p, want %d×%d at %p", i, h.M, h.C, &h.Counts[0], w.M, w.C, &w.Counts[0])
			}
		}
	}
	if n := testing.AllocsPerRun(10, func() { view.Decode(b, d.Schema, o) }); n != 0 {
		t.Errorf("re-decoding allocates %v times, want 0", n)
	}
}
