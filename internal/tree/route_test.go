package tree

import (
	"fmt"
	"math"
	"testing"

	"partree/internal/dataset"
)

// TestRouteValueMatchesRouteRow checks the list builders' router against
// the row router: for every kind a list builder emits, an attribute-list
// value (a categorical code stored as a float64, or the continuous value)
// routes to the child its row does. A code past the 64-bit mask routes to
// child 1.
func TestRouteValueMatchesRouteRow(t *testing.T) {
	wide := make([]string, 70)
	for v := range wide {
		wide[v] = fmt.Sprint(v)
	}
	s := &dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "x", Kind: dataset.Continuous},
			{Name: "wide", Kind: dataset.Categorical, Values: wide},
			{Name: "small", Kind: dataset.Categorical, Values: []string{"a", "b", "c", "d"}},
		},
		Classes: []string{"p", "n"},
	}
	conts := []float64{math.Inf(-1), -1, math.Copysign(0, -1), 0, 2.5, math.Nextafter(2.5, 3), 1e9, math.Inf(1)}
	wides := []int32{0, 3, 62, 63, 64, 69}
	d := dataset.New(s, len(conts)*len(wides))
	rec := dataset.NewRecord(s)
	for i, x := range conts {
		for j, code := range wides {
			rec.Cont[0], rec.Cat[1], rec.Cat[2] = x, code, int32((i+j)%4)
			d.Append(rec)
		}
	}
	cases := []struct {
		name string
		node *Node
		// want fixes the child of a few values, so a router that agrees
		// with RouteRow by being wrong in the same way still fails.
		want map[float64]int
	}{
		{"cont-binary", &Node{Kind: ContBinary, Attr: 0, Thresh: 2.5},
			map[float64]int{-1: 0, 2.5: 0, math.Nextafter(2.5, 3): 1, math.Inf(1): 1}},
		{"cat-binary", &Node{Kind: CatBinary, Attr: 1, Mask: 1<<63 | 1<<3},
			map[float64]int{0: 1, 3: 0, 62: 1, 63: 0, 64: 1, 69: 1}},
		{"cat-multiway", &Node{Kind: CatMultiway, Attr: 2},
			map[float64]int{0: 0, 1: 1, 2: 2, 3: 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.node
			for i := 0; i < d.Len(); i++ {
				v := d.Cont[0][i]
				if d.Cat[n.Attr] != nil {
					v = float64(d.Cat[n.Attr][i])
				}
				if got, want := n.RouteValue(v), n.RouteRow(d, i); got != want {
					t.Errorf("row %d: RouteValue(%v) = %d, RouteRow = %d", i, v, got, want)
				}
			}
			for v, want := range tc.want {
				if got := n.RouteValue(v); got != want {
					t.Errorf("RouteValue(%v) = %d, want %d", v, got, want)
				}
			}
		})
	}
}

// TestApplyContBinary checks that Split.Apply attaches a native
// threshold test: the threshold is set and two placeholder children get
// the next ids and the parent's class.
func TestApplyContBinary(t *testing.T) {
	s := &dataset.Schema{
		Attrs:   []dataset.Attribute{{Name: "x", Kind: dataset.Continuous}},
		Classes: []string{"p", "n"},
	}
	n := &Node{ID: 4, Kind: Leaf, Class: 1, Depth: 2}
	sp := Split{Attr: 0, Kind: ContBinary, Thresh: 7.25}
	if k := sp.NumChildren(s); k != 2 {
		t.Fatalf("NumChildren = %d, want 2", k)
	}
	sp.Apply(n, s, NewIDGen(9).Next)
	if n.Kind != ContBinary || n.Attr != 0 || n.Thresh != 7.25 {
		t.Fatalf("applied test %v attr %d thresh %v", n.Kind, n.Attr, n.Thresh)
	}
	if len(n.Children) != 2 {
		t.Fatalf("%d children, want 2", len(n.Children))
	}
	for i, c := range n.Children {
		if c.ID != int64(9+i) || !c.IsLeaf() || c.Class != 1 || c.Depth != 3 || len(c.Dist) != 2 {
			t.Errorf("child %d: %+v", i, c)
		}
	}
}
