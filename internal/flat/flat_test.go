package flat_test

import (
	"testing"

	"partree/internal/core"
	"partree/internal/dataset"
	"partree/internal/flat"
	"partree/internal/mp"
	"partree/internal/quest"
	"partree/internal/scalparc"
	"partree/internal/sliq"
	"partree/internal/sprint"
	"partree/internal/tree"
)

// genData returns a function-2 Quest sample split into train/test halves.
func genData(t *testing.T, n int, seed uint64) (train, test *dataset.Dataset) {
	t.Helper()
	d, err := quest.Generate(quest.Config{Function: 2, Seed: seed}, n)
	if err != nil {
		t.Fatal(err)
	}
	cut := n * 3 / 4
	return d.Slice(0, cut), d.Slice(cut, n)
}

// buildScalparc grows the SPRINT-family tree on a modeled 2-processor
// machine (the serial algorithm set includes it because it exercises the
// hash-split path; both modes grow the identical tree).
func buildScalparc(train *dataset.Dataset, o tree.Options) *tree.Tree {
	const p = 2
	w := mp.NewWorld(p, mp.SP2())
	blocks := train.BlockPartition(p)
	trees := make([]*tree.Tree, p)
	w.Run(func(c *mp.Comm) {
		trees[c.Rank()] = scalparc.Build(c, blocks[c.Rank()],
			scalparc.Options{Tree: o, Mode: scalparc.DistributedHash}).Tree
	})
	return trees[0]
}

// TestCompileDifferential is the compiled-path contract: for trees grown
// by all four serial algorithms (hunt, sliq, sprint, scalparc) the flat
// model predicts bit-identically to the pointer tree on every row of
// generated function-2 data — train and held-out rows alike.
func TestCompileDifferential(t *testing.T) {
	train, test := genData(t, 4000, 42)
	o := tree.Options{Binary: true, MaxDepth: 12}
	builders := []struct {
		name  string
		build func(*dataset.Dataset, tree.Options) *tree.Tree
	}{
		{"hunt", tree.BuildHunt},
		{"sliq", sliq.Build},
		{"sprint", sprint.Build},
		{"scalparc", buildScalparc},
	}
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			tr := b.build(train, o)
			m, err := flat.Compile(tr)
			if err != nil {
				t.Fatal(err)
			}
			assertIdentical(t, tr, m, train)
			assertIdentical(t, tr, m, test)
		})
	}
}

// TestCompileMultiwayAndBinned covers the remaining split kinds: classic
// multiway categorical tests (Binary: false) and the breadth-first
// builder's per-node binned continuous tests.
func TestCompileMultiwayAndBinned(t *testing.T) {
	train, test := genData(t, 3000, 7)
	t.Run("multiway", func(t *testing.T) {
		tr := tree.BuildHunt(train, tree.Options{Binary: false, MaxDepth: 10})
		m, err := flat.Compile(tr)
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, tr, m, train)
		assertIdentical(t, tr, m, test)
	})
	t.Run("binned", func(t *testing.T) {
		o := core.Options{Tree: tree.Options{Binary: true, MaxDepth: 10}}
		tr := tree.BuildBFS(train, o.SerialOptions(train))
		m, err := flat.Compile(tr)
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, tr, m, train)
		assertIdentical(t, tr, m, test)
	})
}

func assertIdentical(t *testing.T, tr *tree.Tree, m *flat.Model, d *dataset.Dataset) {
	t.Helper()
	out := make([]int32, d.Len())
	m.PredictInto(d, out, 0, d.Len())
	for i := 0; i < d.Len(); i++ {
		want := tr.ClassifyRow(d, i)
		if got := m.PredictFrom(d, i, 0); got != want {
			t.Fatalf("row %d: flat predicts %d, pointer tree %d", i, got, want)
		}
		if out[i] != want {
			t.Fatalf("row %d: flat batch predicts %d, pointer tree %d", i, out[i], want)
		}
	}
}

// TestCompileFallbacks exercises the pre-resolved Case-3 machinery on a
// hand-built tree: nil children, an empty (N = 0) internal node in the
// middle of a path, and an out-of-range multiway branch must all predict
// exactly what the pointer walk predicts.
func TestCompileFallbacks(t *testing.T) {
	s := &dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "color", Kind: dataset.Categorical, Values: []string{"r", "g", "b"}},
			{Name: "x", Kind: dataset.Continuous},
		},
		Classes: []string{"no", "yes"},
	}
	// root: multiway on color. Child r: leaf with data (class 1).
	// Child g: nil (Case 3 → root's class 0). Child b: empty internal
	// node (N=0) splitting on x whose left child is a leaf with data
	// (class 1) and right child an empty leaf (falls back past the empty
	// internal node to the root's class 0).
	leafR := &tree.Node{Kind: tree.Leaf, Class: 1, N: 5, Dist: []int64{1, 4}, Depth: 1}
	leafBL := &tree.Node{Kind: tree.Leaf, Class: 1, N: 2, Dist: []int64{0, 2}, Depth: 2}
	leafBR := &tree.Node{Kind: tree.Leaf, Class: 1, N: 0, Dist: []int64{0, 0}, Depth: 2}
	emptyB := &tree.Node{
		Kind: tree.ContBinary, Attr: 1, Thresh: 10, Class: 1, N: 0,
		Dist: []int64{0, 0}, Depth: 1, Children: []*tree.Node{leafBL, leafBR},
	}
	root := &tree.Node{
		Kind: tree.CatMultiway, Attr: 0, Class: 0, N: 9,
		Dist: []int64{5, 4}, Children: []*tree.Node{leafR, nil, emptyB},
	}
	tr := &tree.Tree{Schema: s, Root: root}
	m, err := flat.Compile(tr)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		color int32
		x     float64
	}{
		{0, 0},  // leaf with data
		{1, 0},  // nil child → root fallback
		{2, 5},  // through empty internal to a leaf with data
		{2, 20}, // empty leaf under empty internal → root fallback
	}
	for _, c := range cases {
		row := dataset.New(s, 1)
		row.Append(dataset.Record{Cat: []int32{c.color, 0}, Cont: []float64{0, c.x}})
		want := tr.ClassifyRow(row, 0)
		if got := m.PredictFrom(row, 0, 0); got != want {
			t.Errorf("color=%d x=%g: flat %d, pointer %d", c.color, c.x, got, want)
		}
	}
}

// TestCompileRejectsMalformed checks the compiler's own validation.
func TestCompileRejectsMalformed(t *testing.T) {
	if _, err := flat.Compile(nil); err == nil {
		t.Error("Compile(nil) succeeded")
	}
	if _, err := flat.Compile(&tree.Tree{}); err == nil {
		t.Error("Compile of rootless tree succeeded")
	}
	s := &dataset.Schema{
		Attrs:   []dataset.Attribute{{Name: "x", Kind: dataset.Continuous}},
		Classes: []string{"a", "b"},
	}
	bad := &tree.Tree{Schema: s, Root: &tree.Node{
		Kind: tree.ContBinary, Attr: 5, Children: []*tree.Node{nil, nil},
	}}
	if _, err := flat.Compile(bad); err == nil {
		t.Error("Compile with out-of-range attribute succeeded")
	}
}

// TestCompileLayout pins the structural invariants the engine relies on:
// breadth-first order, contiguous children, and synthesized leaves for
// nil pointers.
func TestCompileLayout(t *testing.T) {
	train, _ := genData(t, 1500, 11)
	tr := tree.BuildHunt(train, tree.Options{Binary: true, MaxDepth: 8})
	m, err := flat.Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	st := tr.Stats()
	if m.Len() < st.Nodes {
		t.Fatalf("flat table has %d nodes, pointer tree %d", m.Len(), st.Nodes)
	}
	for i := 0; i < m.Len(); i++ {
		if m.Kind[i] == tree.Leaf {
			if m.NumChild[i] != 0 {
				t.Fatalf("leaf %d has %d children", i, m.NumChild[i])
			}
			continue
		}
		if m.NumChild[i] <= 0 {
			t.Fatalf("internal node %d has no children", i)
		}
		if m.ChildBase[i] <= int32(i) || int(m.ChildBase[i]+m.NumChild[i]) > m.Len() {
			t.Fatalf("node %d children [%d, %d) out of table bounds (len %d)",
				i, m.ChildBase[i], m.ChildBase[i]+m.NumChild[i], m.Len())
		}
	}
}
