package tree

import (
	"math/rand/v2"
	"testing"

	"partree/internal/criteria"
	"partree/internal/dataset"
	"partree/internal/discretize"
	"partree/internal/kernel"
)

// TestHuntWeatherGolden asserts the exact structure of Figure 1(c): the
// root splits on Outlook; the sunny branch splits on Humidity into pure
// Play/Don't-Play leaves; overcast is a pure Play leaf; rain splits on
// Windy.
func TestHuntWeatherGolden(t *testing.T) {
	w := dataset.Weather()
	tr := BuildHunt(w, Options{Criterion: criteria.Entropy})
	root := tr.Root
	if root.Kind != CatMultiway || w.Schema.Attrs[root.Attr].Name != "Outlook" {
		t.Fatalf("root is %v on %q, want multiway on Outlook", root.Kind, w.Schema.Attrs[root.Attr].Name)
	}
	if len(root.Children) != 3 {
		t.Fatalf("root has %d children", len(root.Children))
	}
	sunny, overcast, rain := root.Children[0], root.Children[1], root.Children[2]

	if sunny.Kind != ContBinary || w.Schema.Attrs[sunny.Attr].Name != "Humidity" {
		t.Fatalf("sunny branch splits %v on %q, want Humidity",
			sunny.Kind, w.Schema.Attrs[sunny.Attr].Name)
	}
	// ≤70 → 2 pure Play cases; >70 → 3 pure Don't Play cases.
	if sunny.Thresh != 70 {
		t.Errorf("sunny humidity threshold %g, want 70 (the best binary cut)", sunny.Thresh)
	}
	left, right := sunny.Children[0], sunny.Children[1]
	if !left.IsLeaf() || left.Class != 0 || left.N != 2 {
		t.Errorf("sunny/low-humidity leaf wrong: %+v", left)
	}
	if !right.IsLeaf() || right.Class != 1 || right.N != 3 {
		t.Errorf("sunny/high-humidity leaf wrong: %+v", right)
	}

	if !overcast.IsLeaf() || overcast.Class != 0 || overcast.N != 4 {
		t.Fatalf("overcast leaf wrong: %+v", overcast)
	}

	if rain.Kind != CatMultiway || w.Schema.Attrs[rain.Attr].Name != "Windy" {
		t.Fatalf("rain branch splits on %q, want Windy", w.Schema.Attrs[rain.Attr].Name)
	}
	calm, windy := rain.Children[0], rain.Children[1]
	if !calm.IsLeaf() || calm.Class != 0 || calm.N != 3 {
		t.Errorf("rain/calm leaf wrong: %+v", calm)
	}
	if !windy.IsLeaf() || windy.Class != 1 || windy.N != 2 {
		t.Errorf("rain/windy leaf wrong: %+v", windy)
	}

	if acc := tr.Accuracy(w); acc != 1.0 {
		t.Errorf("training accuracy %v, want 1.0", acc)
	}
	st := tr.Stats()
	if st.Nodes != 8 || st.Leaves != 5 || st.MaxDepth != 2 {
		t.Errorf("stats %+v, want 8 nodes / 5 leaves / depth 2", st)
	}
}

// TestCase3EmptyChildClassification: a record routed to a child that never
// received training cases is classified with the parent's majority class,
// Case 3 of Hunt's method.
func TestCase3EmptyChildClassification(t *testing.T) {
	s := &dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "x", Kind: dataset.Categorical, Values: []string{"a", "b", "c"}},
			{Name: "y", Kind: dataset.Categorical, Values: []string{"u", "v"}},
		},
		Classes: []string{"0", "1"},
	}
	d := dataset.New(s, 8)
	rec := dataset.NewRecord(s)
	// Value "c" of x never occurs; x=a → class 0 (3 cases), x=b → class 1 (2 cases).
	for i := 0; i < 3; i++ {
		rec.Cat[0], rec.Cat[1], rec.Class, rec.RID = 0, int32(i%2), 0, int64(i)
		d.Append(rec)
	}
	for i := 0; i < 2; i++ {
		rec.Cat[0], rec.Cat[1], rec.Class, rec.RID = 1, int32(i%2), 1, int64(3+i)
		d.Append(rec)
	}
	tr := BuildHunt(d, Options{})
	if tr.Root.Kind != CatMultiway || tr.Root.Attr != 0 {
		t.Fatalf("expected multiway root on x, got %v on attr %d", tr.Root.Kind, tr.Root.Attr)
	}
	rec.Cat[0] = 2 // the never-seen value
	if got := tr.Classify(&rec); got != 0 {
		t.Fatalf("empty child classified %d, want parent majority 0", got)
	}
}

func TestBFSMatchesHuntOnCategorical(t *testing.T) {
	// On all-categorical data the breadth-first builder and the
	// depth-first Hunt builder make identical decisions at every node.
	d := randomCategorical(77, 800)
	for _, binary := range []bool{false, true} {
		for _, crit := range []criteria.Criterion{criteria.Entropy, criteria.Gini} {
			o := Options{Binary: binary, Criterion: crit}
			a := BuildHunt(d, o)
			b := BuildBFS(d, o)
			if diff := Diff(a, b); diff != "" {
				t.Fatalf("binary=%v crit=%v: %s", binary, crit, diff)
			}
		}
	}
}

func randomCategorical(seed uint64, n int) *dataset.Dataset {
	s := &dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "a", Kind: dataset.Categorical, Values: []string{"0", "1", "2", "3"}},
			{Name: "b", Kind: dataset.Categorical, Values: []string{"0", "1", "2"}},
			{Name: "c", Kind: dataset.Categorical, Values: []string{"0", "1", "2", "3", "4"}},
			{Name: "d", Kind: dataset.Categorical, Values: []string{"0", "1"}},
		},
		Classes: []string{"x", "y", "z"},
	}
	rng := rand.New(rand.NewPCG(seed, 1))
	d := dataset.New(s, n)
	rec := dataset.NewRecord(s)
	for i := 0; i < n; i++ {
		for a, attr := range s.Attrs {
			rec.Cat[a] = int32(rng.IntN(attr.Cardinality()))
		}
		// Structured label with noise so trees are non-trivial.
		rec.Class = (rec.Cat[0] + rec.Cat[1]) % 3
		if rng.IntN(10) == 0 {
			rec.Class = int32(rng.IntN(3))
		}
		rec.RID = int64(i)
		d.Append(rec)
	}
	return d
}

func TestGlobalChildCountsMatchPartition(t *testing.T) {
	d := randomCategorical(5, 400)
	o := Options{Binary: true}.WithDefaults()
	flat := make([]int64, StatsLen(d.Schema, o))
	kernel.TabulateInto(flat, d.AllIndex(), NewStatsSpec(d, o))
	stats := DecodeStats(flat, d.Schema, o)
	sp, ok := ChooseSplit(stats, d.Schema, o, 0)
	if !ok {
		t.Fatal("no split at root of structured data")
	}
	n := &Node{Kind: Leaf, Dist: make([]int64, 3)}
	sp.Apply(n, d.Schema, NewIDGen(1).Next)
	parts, _ := PartitionRows(n, d, d.AllIndex())
	counts := GlobalChildCounts(sp, stats, d.Schema, o)
	if len(parts) != len(counts) {
		t.Fatalf("%d parts vs %d counts", len(parts), len(counts))
	}
	for ci := range parts {
		if int64(len(parts[ci])) != counts[ci] {
			t.Fatalf("child %d: derived count %d, actual rows %d", ci, counts[ci], len(parts[ci]))
		}
	}
}

func TestMaxDepthAndMinSplit(t *testing.T) {
	d := randomCategorical(9, 500)
	tr := BuildBFS(d, Options{MaxDepth: 2})
	if st := tr.Stats(); st.MaxDepth > 2 {
		t.Fatalf("depth %d exceeds MaxDepth 2", st.MaxDepth)
	}
	tr = BuildBFS(d, Options{MinSplit: 100})
	var walk func(n *Node)
	walk = func(n *Node) {
		if !n.IsLeaf() && n.N < 100 {
			t.Fatalf("node with %d < 100 cases was split", n.N)
		}
		for _, c := range n.Children {
			if c != nil {
				walk(c)
			}
		}
	}
	walk(tr.Root)
}

func TestMajorityClassTieBreak(t *testing.T) {
	if MajorityClass([]int64{3, 3, 1}) != 0 {
		t.Fatal("tie must resolve to the lowest class index")
	}
	if MajorityClass([]int64{0, 5, 5}) != 1 {
		t.Fatal("tie must resolve to the lowest class index")
	}
}

func TestEqualAndDiff(t *testing.T) {
	d := randomCategorical(21, 300)
	a := BuildBFS(d, Options{Binary: true})
	b := BuildBFS(d, Options{Binary: true})
	if !Equal(a, b) || Diff(a, b) != "" {
		t.Fatal("identical builds compare unequal")
	}
	b.Root.Children[0].Class ^= 1
	if Equal(a, b) || Diff(a, b) == "" {
		t.Fatal("mutation not detected")
	}
}

// TestDiffAgreesWithEqual: Diff reports a difference exactly when Equal
// reports inequality, over random trees of every split kind and
// single-field mutations of them — every field Equal compares (Depth,
// Dist and Edges included), one it ignores (ID), and Attr on leaves,
// which it ignores too.
func TestDiffAgreesWithEqual(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 46))
	var gen func(depth int) *Node
	gen = func(depth int) *Node {
		n := &Node{ID: r.Int64N(100), N: r.Int64N(50), Class: r.Int32N(3), Depth: depth, Dist: make([]int64, 1+r.IntN(3))}
		for i := range n.Dist {
			n.Dist[i] = r.Int64N(20)
		}
		if depth >= 3 || r.IntN(3) == 0 {
			return n
		}
		n.Kind = SplitKind(1 + r.IntN(4))
		n.Attr, n.Thresh, n.Mask = r.IntN(5), r.Float64(), r.Uint64()
		kids := 2
		switch n.Kind {
		case CatMultiway:
			kids = 1 + r.IntN(4)
		case ContBinned:
			n.Edges = make([]float64, 1+r.IntN(3))
			for i := range n.Edges {
				n.Edges[i] = float64(i) + r.Float64()
			}
		}
		n.Children = make([]*Node, kids)
		for i := range n.Children {
			if r.IntN(5) > 0 {
				n.Children[i] = gen(depth + 1)
			}
		}
		return n
	}
	var clone func(n *Node) *Node
	clone = func(n *Node) *Node {
		if n == nil {
			return nil
		}
		c := *n
		c.Dist = append([]int64(nil), n.Dist...)
		c.Edges = append([]float64(nil), n.Edges...)
		c.Children = make([]*Node, len(n.Children))
		for i, ch := range n.Children {
			c.Children[i] = clone(ch)
		}
		return &c
	}
	mutations := []func(n *Node){
		func(n *Node) { n.Kind = SplitKind((int(n.Kind) + 1) % 5) },
		func(n *Node) { n.N++ },
		func(n *Node) { n.Class++ },
		func(n *Node) { n.Depth++ },
		func(n *Node) { n.Dist[r.IntN(len(n.Dist))]++ },
		func(n *Node) { n.Dist = append(n.Dist, 0) },
		func(n *Node) { n.Attr++ },
		func(n *Node) { n.Thresh += 0.5 },
		func(n *Node) { n.Mask ^= 1 << r.IntN(64) },
		func(n *Node) {
			if len(n.Edges) > 0 {
				n.Edges[r.IntN(len(n.Edges))] += 0.25
			}
		},
		func(n *Node) { n.Edges = append(n.Edges, 9) },
		func(n *Node) { n.Children = append(n.Children, nil) },
		func(n *Node) {
			if len(n.Children) > 0 {
				i := r.IntN(len(n.Children))
				if n.Children[i] == nil {
					n.Children[i] = &Node{}
				} else {
					n.Children[i] = nil
				}
			}
		},
		func(n *Node) { n.ID++ },
	}
	for trial := 0; trial < 2000; trial++ {
		a := &Tree{Root: gen(0)}
		b := &Tree{Root: clone(a.Root)}
		if !Equal(a, b) || Diff(a, b) != "" {
			t.Fatalf("trial %d: a tree differs from its clone: %s", trial, Diff(a, b))
		}
		var nodes []*Node
		var walk func(n *Node)
		walk = func(n *Node) {
			if n != nil {
				nodes = append(nodes, n)
				for _, ch := range n.Children {
					walk(ch)
				}
			}
		}
		walk(b.Root)
		mi := r.IntN(len(mutations))
		mutations[mi](nodes[r.IntN(len(nodes))])
		if eq, diff := Equal(a, b), Diff(a, b); eq != (diff == "") {
			t.Fatalf("trial %d mutation %d: Equal = %v but Diff = %q", trial, mi, eq, diff)
		}
	}
}

func TestPruneRemovesNoiseSplits(t *testing.T) {
	// Labels depend only on attribute a; everything else the tree learns
	// is noise and should be pruned away.
	s := &dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "signal", Kind: dataset.Categorical, Values: []string{"0", "1"}},
			{Name: "noise1", Kind: dataset.Categorical, Values: []string{"0", "1", "2", "3", "4", "5"}},
			{Name: "noise2", Kind: dataset.Categorical, Values: []string{"0", "1", "2", "3"}},
		},
		Classes: []string{"neg", "pos"},
	}
	rng := rand.New(rand.NewPCG(31, 7))
	train := dataset.New(s, 2000)
	test := dataset.New(s, 1000)
	rec := dataset.NewRecord(s)
	fill := func(d *dataset.Dataset, n int, base int64) {
		for i := 0; i < n; i++ {
			rec.Cat[0] = int32(rng.IntN(2))
			rec.Cat[1] = int32(rng.IntN(6))
			rec.Cat[2] = int32(rng.IntN(4))
			rec.Class = rec.Cat[0]
			if rng.IntN(5) == 0 { // 20% label noise
				rec.Class ^= 1
			}
			rec.RID = base + int64(i)
			d.Append(rec)
		}
	}
	fill(train, 2000, 0)
	fill(test, 1000, 10000)

	tr := BuildBFS(train, Options{Binary: true})
	before := tr.Stats()
	accBefore := tr.Accuracy(test)
	removed := Prune(tr, DefaultPruneZ)
	after := tr.Stats()
	accAfter := tr.Accuracy(test)
	if removed == 0 {
		t.Fatal("pruning removed nothing from a noise-overfitted tree")
	}
	if after.Nodes >= before.Nodes {
		t.Fatalf("node count did not shrink: %d -> %d", before.Nodes, after.Nodes)
	}
	if accAfter < accBefore-0.02 {
		t.Fatalf("pruning hurt test accuracy: %.4f -> %.4f", accBefore, accAfter)
	}
	// The pruned tree must still open with the signal split.
	if tr.Root.IsLeaf() || tr.Root.Attr != 0 {
		t.Fatalf("root after pruning: %+v", tr.Root)
	}
}

func TestSubtreeBytes(t *testing.T) {
	w := dataset.Weather()
	tr := BuildHunt(w, Options{})
	if SubtreeBytes(tr.Root) <= 0 {
		t.Fatal("subtree bytes must be positive")
	}
	if SubtreeBytes(nil) != 0 {
		t.Fatal("nil subtree must be 0 bytes")
	}
	leaf := &Node{Kind: Leaf, Dist: make([]int64, 2)}
	if SubtreeBytes(tr.Root) <= SubtreeBytes(leaf) {
		t.Fatal("tree must outweigh single leaf")
	}
}

func TestTreeStringRendering(t *testing.T) {
	w := dataset.Weather()
	tr := BuildHunt(w, Options{})
	out := tr.String()
	for _, want := range []string{"Outlook", "Humidity", "Windy", "Play"} {
		if !contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestContBinnedRouting(t *testing.T) {
	n := &Node{
		Kind:  ContBinned,
		Attr:  0,
		Edges: []float64{10, 20},
	}
	n.Children = make([]*Node, 3)
	if got := n.routeValue(0, 5); got != 0 {
		t.Errorf("5 -> bin %d", got)
	}
	if got := n.routeValue(0, 10); got != 0 {
		t.Errorf("10 -> bin %d (boundary goes left)", got)
	}
	if got := n.routeValue(0, 15); got != 1 {
		t.Errorf("15 -> bin %d", got)
	}
	if got := n.routeValue(0, 25); got != 2 {
		t.Errorf("25 -> bin %d", got)
	}
	n.Mask = 0b101 // bins 0 and 2 left
	n.Children = make([]*Node, 2)
	if n.routeValue(0, 5) != 0 || n.routeValue(0, 15) != 1 || n.routeValue(0, 25) != 0 {
		t.Error("masked binned routing wrong")
	}
}

func TestBFSWithBinnerOnContinuous(t *testing.T) {
	// Smoke test: BFS building with per-node k-means discretization on a
	// learnable continuous problem reaches high training accuracy.
	s := &dataset.Schema{
		Attrs:   []dataset.Attribute{{Name: "v", Kind: dataset.Continuous}},
		Classes: []string{"lo", "hi"},
	}
	rng := rand.New(rand.NewPCG(8, 8))
	d := dataset.New(s, 1000)
	rec := dataset.NewRecord(s)
	for i := 0; i < 1000; i++ {
		rec.Cont[0] = rng.Float64() * 100
		rec.Class = 0
		if rec.Cont[0] > 50 {
			rec.Class = 1
		}
		rec.RID = int64(i)
		d.Append(rec)
	}
	o := Options{
		Binary: true,
		Binner: &discretize.NodeBinner{MicroBins: 32, K: 4, Ranges: [][2]float64{{0, 100}}},
	}
	tr := BuildBFS(d, o)
	if acc := tr.Accuracy(d); acc < 0.97 {
		t.Fatalf("accuracy %v on a trivially learnable boundary", acc)
	}
}

func TestStatsLenPanicsWithoutBinner(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for continuous schema without binner")
		}
	}()
	s := &dataset.Schema{
		Attrs:   []dataset.Attribute{{Name: "v", Kind: dataset.Continuous}},
		Classes: []string{"a", "b"},
	}
	StatsLen(s, Options{}.WithDefaults())
}
