package forest

import (
	"strings"
	"testing"

	"partree/internal/dataset"
	"partree/internal/flat"
	"partree/internal/quest"
	"partree/internal/tree"
)

func testData(t *testing.T, n int) *dataset.Dataset {
	t.Helper()
	d, err := quest.Generate(quest.Config{Function: 2, Seed: 77}, n)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return d
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string
	}{
		{Config{Trees: 0}, "Trees"},
		{Config{Trees: 3, Builder: "cart"}, "unknown builder"},
		{Config{Trees: 3, FeatureFraction: 1.5}, "FeatureFraction"},
		{Config{Trees: 3, FeatureFraction: -0.1}, "FeatureFraction"},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Validate(%+v) = %v, want error containing %q", c.cfg, err, c.want)
		}
	}
	if err := (Config{Trees: 1}).Validate(); err != nil {
		t.Errorf("minimal config rejected: %v", err)
	}
}

func TestBootstrapIndicesDeterministic(t *testing.T) {
	a := BootstrapIndices(9, 3, 500)
	b := BootstrapIndices(9, 3, 500)
	if len(a) != 500 {
		t.Fatalf("got %d draws, want 500", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs between identical calls: %d vs %d", i, a[i], b[i])
		}
		if a[i] < 0 || a[i] >= 500 {
			t.Fatalf("draw %d = %d out of range", i, a[i])
		}
	}
	c := BootstrapIndices(9, 4, 500)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("members 3 and 4 drew identical bootstrap samples")
	}
}

func TestSubspace(t *testing.T) {
	if got := subspace(1, 0, 10, 0); got != nil {
		t.Fatalf("frac 0 => full schema, got %v", got)
	}
	if got := subspace(1, 0, 10, 1); got != nil {
		t.Fatalf("frac 1 => full schema, got %v", got)
	}
	a := subspace(1, 2, 10, 0.5)
	b := subspace(1, 2, 10, 0.5)
	if len(a) != 5 {
		t.Fatalf("frac 0.5 of 10 attrs => 5, got %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("subspace is not deterministic")
		}
		if i > 0 && a[i] <= a[i-1] {
			t.Fatalf("subspace not sorted/unique: %v", a)
		}
	}
	if got := subspace(1, 0, 10, 0.01); len(got) != 1 {
		t.Fatalf("tiny fraction must keep one attribute, got %v", got)
	}
}

// TestTrainWorkerCountInvariance: the forest is bit-identical however many
// trainer goroutines schedule the member builds — the determinism contract
// of the package doc.
func TestTrainWorkerCountInvariance(t *testing.T) {
	d := testData(t, 1200)
	cfg := Config{
		Trees:           8,
		Builder:         "hunt",
		Seed:            42,
		Bootstrap:       true,
		FeatureFraction: 0.6,
		Tree:            tree.Options{Binary: true},
	}
	cfg.Workers = 1
	one, err := Train(d, cfg)
	if err != nil {
		t.Fatalf("train workers=1: %v", err)
	}
	cfg.Workers = 5
	many, err := Train(d, cfg)
	if err != nil {
		t.Fatalf("train workers=5: %v", err)
	}
	for m := range one.Trees {
		if diff := tree.Diff(one.Trees[m], many.Trees[m]); diff != "" {
			t.Fatalf("member %d differs between worker counts: %s", m, diff)
		}
	}
}

// TestTrainSeedSensitivity: a different master seed grows a different
// forest (bootstrap samples actually vary).
func TestTrainSeedSensitivity(t *testing.T) {
	d := testData(t, 800)
	cfg := Config{Trees: 4, Seed: 1, Bootstrap: true, Tree: tree.Options{Binary: true}}
	a, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 2
	b, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for m := range a.Trees {
		if tree.Diff(a.Trees[m], b.Trees[m]) != "" {
			return // at least one member differs: seeds matter
		}
	}
	t.Fatal("forests under different seeds are identical")
}

// TestTrainLeavesInputUntouched: training with bootstrap + subspace must
// not mutate the caller's dataset (projection views share columns).
func TestTrainLeavesInputUntouched(t *testing.T) {
	d := testData(t, 600)
	class := append([]int32(nil), d.Class...)
	rid := append([]int64(nil), d.RID...)
	col := append([]float64(nil), d.Cont[0]...)
	if _, err := Train(d, Config{Trees: 5, Seed: 7, Bootstrap: true, FeatureFraction: 0.5, Tree: tree.Options{Binary: true}}); err != nil {
		t.Fatal(err)
	}
	for i := range class {
		if d.Class[i] != class[i] || d.RID[i] != rid[i] || d.Cont[0][i] != col[i] {
			t.Fatalf("row %d of the training set was mutated", i)
		}
	}
}

// TestFusedMatchesNaive: the fused interleaved walk votes bit-identically
// to member-by-member aggregation over the per-tree flat models, under
// both vote modes.
func TestFusedMatchesNaive(t *testing.T) {
	train := testData(t, 1500)
	test := testData(t, 2000)
	f, err := Train(train, Config{
		Trees:           12,
		Seed:            5,
		Bootstrap:       true,
		FeatureFraction: 0.7,
		Tree:            tree.Options{Binary: true, MaxDepth: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []VoteMode{Majority, Weighted} {
		f.Vote = mode
		f.Weights = nil
		if mode == Weighted {
			f.Weights = make([]float64, len(f.Trees))
			for i := range f.Weights {
				// Distinct irrational-ish weights so float-sum order matters.
				f.Weights[i] = 0.31 + 0.173*float64(i)
			}
		}
		fz, err := Compile(f)
		if err != nil {
			t.Fatal(err)
		}
		fused := make([]int32, test.Len())
		naive := make([]int32, test.Len())
		fz.PredictInto(test, fused, 0, test.Len())
		fz.PredictNaiveInto(test, naive, 0, test.Len())
		for r := range fused {
			if fused[r] != naive[r] {
				t.Fatalf("%v: row %d fused=%d naive=%d", mode, r, fused[r], naive[r])
			}
		}
		// A one-row shard agrees with the full batch, tile edges included.
		one := make([]int32, test.Len())
		for _, r := range []int{0, 1, 255, 256, 257, test.Len() - 1} {
			if fz.PredictInto(test, one, r, r+1); one[r] != fused[r] {
				t.Fatalf("%v: row %d one-row shard=%d batch=%d", mode, r, one[r], fused[r])
			}
		}
	}
}

// TestTiedVoteBreaksToLowestClass: two one-leaf members vote for classes
// 1 and 0, so every row's vote ties. Both vote modes, fused and naive,
// must answer tree.MajorityClass's rule (the smallest class index
// holding the maximum), checked against that rule directly, since the
// fused and naive paths share their argmax.
func TestTiedVoteBreaksToLowestClass(t *testing.T) {
	d := testData(t, 300)
	leaf := func(class int32) *tree.Tree {
		dist := make([]int64, d.Schema.NumClasses())
		dist[class] = 1
		return &tree.Tree{Schema: d.Schema, Root: &tree.Node{Kind: tree.Leaf, Class: class, N: 1, Dist: dist}}
	}
	want := tree.MajorityClass([]int64{1, 1})
	if want != 0 {
		t.Fatalf("MajorityClass breaks a 1-1 tie to %d, want 0", want)
	}
	for _, weights := range [][]float64{nil, {0.5, 0.5}} {
		f := &Forest{Schema: d.Schema, Trees: []*tree.Tree{leaf(1), leaf(0)}, Weights: weights}
		if weights != nil {
			f.Vote = Weighted
		}
		fz, err := Compile(f)
		if err != nil {
			t.Fatal(err)
		}
		fused := make([]int32, d.Len())
		naive := make([]int32, d.Len())
		fz.PredictInto(d, fused, 0, d.Len())
		fz.PredictNaiveInto(d, naive, 0, d.Len())
		for r := range fused {
			if fused[r] != want || naive[r] != want {
				t.Fatalf("%v: row %d fused=%d naive=%d, want %d", f.Vote, r, fused[r], naive[r], want)
			}
		}
	}
}

// TestSingleMemberFusedMatchesFlat: a 1-tree forest predicts exactly its
// member flat model (the root identity test extends this to all nine
// builders).
func TestSingleMemberFusedMatchesFlat(t *testing.T) {
	d := testData(t, 1000)
	f, err := Train(d, Config{Trees: 1, Seed: 3, Tree: tree.Options{Binary: true}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := flat.Compile(f.Trees[0])
	if err != nil {
		t.Fatal(err)
	}
	fz, err := Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	if fz.Trees() != 1 || fz.Nodes() != m.Len() {
		t.Fatalf("fused has %d trees / %d nodes, member model has %d nodes", fz.Trees(), fz.Nodes(), m.Len())
	}
	out := make([]int32, d.Len())
	fz.PredictInto(d, out, 0, d.Len())
	for r := 0; r < d.Len(); r++ {
		if want := m.PredictFrom(d, r, 0); out[r] != want {
			t.Fatalf("row %d: fused=%d flat=%d", r, out[r], want)
		}
	}
}

// TestFusedLayout: children are contiguous with absolute bases, and
// leaves carry ChildBase -1.
func TestFusedLayout(t *testing.T) {
	d := testData(t, 900)
	f, err := Train(d, Config{Trees: 5, Seed: 11, Bootstrap: true, Tree: tree.Options{Binary: true, MaxDepth: 6}})
	if err != nil {
		t.Fatal(err)
	}
	fz, err := Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, m := range fz.Members {
		total += m.Len()
	}
	if fz.Nodes() != total {
		t.Fatalf("fused %d nodes, members total %d", fz.Nodes(), total)
	}
	for i := range fz.Kind {
		if fz.Kind[i] == tree.Leaf {
			if fz.ChildBase[i] != -1 {
				t.Fatalf("leaf %d has child base %d", i, fz.ChildBase[i])
			}
			continue
		}
		cb, nc := fz.ChildBase[i], fz.NumChild[i]
		if cb <= int32(i) || int(cb+nc) > fz.Nodes() {
			t.Fatalf("node %d children [%d, %d) out of range", i, cb, cb+nc)
		}
	}
}

// raceEnabled is set by race_enabled_test.go in -race builds, whose
// sync.Pool drops items at random.
var raceEnabled bool

// TestFusedPredictIntoAllocs: once warmed, a 256-row PredictInto takes its
// tile and vote block from the table's pool and allocates nothing, in
// both vote modes, on the step walk (binary) and the per-row walk
// (multiway); the pooled buffers leave the answers unchanged.
func TestFusedPredictIntoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	train := testData(t, 1200)
	test := testData(t, 600)
	for _, binary := range []bool{true, false} {
		for _, mode := range []VoteMode{Majority, Weighted} {
			f, err := Train(train, Config{Trees: 6, Seed: 9, Bootstrap: true, Tree: tree.Options{Binary: binary, MaxDepth: 8}})
			if err != nil {
				t.Fatal(err)
			}
			f.Vote = mode
			if mode == Weighted {
				f.Weights = []float64{0.31, 0.57, 1.13, 0.29, 0.71, 0.43}
			}
			fz, err := Compile(f)
			if err != nil {
				t.Fatal(err)
			}
			if fz.fast != binary {
				t.Fatalf("binary=%v: fast walk %v", binary, fz.fast)
			}
			want := make([]int32, test.Len())
			fz.PredictNaiveInto(test, want, 0, test.Len())
			out := make([]int32, test.Len())
			for i := 0; i < 3; i++ { // reused buffers answer like fresh ones
				clear(out)
				fz.PredictInto(test, out, 0, test.Len())
				for r := range out {
					if out[r] != want[r] {
						t.Fatalf("binary=%v %v pass %d: row %d pooled=%d naive=%d", binary, mode, i, r, out[r], want[r])
					}
				}
			}
			if n := testing.AllocsPerRun(20, func() { fz.PredictInto(test, out, 100, 356) }); n != 0 {
				t.Errorf("binary=%v %v: 256-row PredictInto allocates %v times, want 0", binary, mode, n)
			}
		}
	}
}
