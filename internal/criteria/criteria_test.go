package criteria

import (
	"math"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"partree/internal/dataset"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestEntropyKnownValues(t *testing.T) {
	// The weather set's root distribution (9, 5): the textbook 0.940286 bits.
	if got := Entropy.Impurity([]int64{9, 5}, 14); !almost(got, 0.9402859586706311) {
		t.Errorf("entropy(9,5) = %v", got)
	}
	if got := Entropy.Impurity([]int64{7, 7}, 14); !almost(got, 1) {
		t.Errorf("entropy(7,7) = %v", got)
	}
	if got := Entropy.Impurity([]int64{14, 0}, 14); got != 0 {
		t.Errorf("entropy(14,0) = %v", got)
	}
	if got := Gini.Impurity([]int64{7, 7}, 14); !almost(got, 0.5) {
		t.Errorf("gini(7,7) = %v", got)
	}
	if got := Gini.Impurity([]int64{9, 5}, 14); !almost(got, 1-(81.0+25)/196) {
		t.Errorf("gini(9,5) = %v", got)
	}
}

func TestImpurityBoundsProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 || len(raw) > 16 {
			return true
		}
		counts := make([]int64, len(raw))
		var total int64
		for i, v := range raw {
			counts[i] = int64(v % 1000)
			total += counts[i]
		}
		e := Entropy.Impurity(counts, total)
		g := Gini.Impurity(counts, total)
		if e < 0 || g < 0 || g > 1 {
			return false
		}
		if e > math.Log2(float64(len(counts)))+1e-9 {
			return false
		}
		// Pure distributions score zero under both criteria.
		nonzero := 0
		for _, c := range counts {
			if c > 0 {
				nonzero++
			}
		}
		if nonzero <= 1 && (e != 0 || g != 0) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHistMergeEqualsUnion(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	values := make([]int32, 200)
	classes := make([]int32, 200)
	for i := range values {
		values[i] = int32(rng.IntN(5))
		classes[i] = int32(rng.IntN(3))
	}
	var idxA, idxB, idxAll []int32
	for i := 0; i < 200; i++ {
		if i%2 == 0 {
			idxA = append(idxA, int32(i))
		} else {
			idxB = append(idxB, int32(i))
		}
		idxAll = append(idxAll, int32(i))
	}
	ha := HistFor(values, classes, idxA, 5, 3)
	hb := HistFor(values, classes, idxB, 5, 3)
	hu := HistFor(values, classes, idxAll, 5, 3)
	ha.Merge(hb)
	if !reflect.DeepEqual(ha.Counts, hu.Counts) {
		t.Fatal("merged partial histograms differ from the union histogram")
	}
	if ha.Total() != 200 {
		t.Fatalf("total %d", ha.Total())
	}
}

func TestHistAccessors(t *testing.T) {
	h := NewHist(3, 2)
	h.Add(0, 0)
	h.Add(0, 1)
	h.Add(2, 1)
	if h.ValueTotal(0) != 2 || h.ValueTotal(1) != 0 || h.ValueTotal(2) != 1 {
		t.Fatal("ValueTotal wrong")
	}
}

// TestTable2OutlookHistogram reproduces Table 2 exactly.
func TestTable2OutlookHistogram(t *testing.T) {
	w := dataset.Weather()
	h := HistFor(w.Cat[0], w.Class, w.AllIndex(), 3, 2)
	want := [][]int64{{2, 3}, {4, 0}, {3, 2}} // sunny, overcast, rain × (Play, Don't)
	for v, row := range want {
		if !reflect.DeepEqual(h.Row(v), row) {
			t.Fatalf("Table 2 row %d: got %v, want %v", v, h.Row(v), row)
		}
	}
}

// TestTable3HumidityDistribution reproduces Table 3 exactly.
func TestTable3HumidityDistribution(t *testing.T) {
	w := dataset.Weather()
	stats := ContinuousDistribution(w.Cont[2], w.Class, 2)
	sort.Slice(stats, func(a, b int) bool { return stats[a].Value < stats[b].Value })
	type row struct {
		v        float64
		leP, leD int64
		gtP, gtD int64
	}
	want := []row{
		{65, 1, 0, 8, 5},
		{70, 3, 1, 6, 4},
		{75, 4, 1, 5, 4},
		{78, 5, 1, 4, 4},
		{80, 7, 2, 2, 3},
		{85, 7, 3, 2, 2},
		{90, 8, 4, 1, 1},
		{95, 8, 5, 1, 0},
		{96, 9, 5, 0, 0},
	}
	if len(stats) != len(want) {
		t.Fatalf("%d distinct values, want %d", len(stats), len(want))
	}
	for i, wr := range want {
		st := stats[i]
		if st.Value != wr.v || st.LE[0] != wr.leP || st.LE[1] != wr.leD || st.GT[0] != wr.gtP || st.GT[1] != wr.gtD {
			t.Fatalf("Table 3 row %d: got %+v, want %+v", i, st, wr)
		}
	}
}

func TestMultiwayScoreAndGain(t *testing.T) {
	w := dataset.Weather()
	h := HistFor(w.Cat[0], w.Class, w.AllIndex(), 3, 2)
	// Quinlan: gain(Outlook) = 0.940 - 0.694 = 0.246 bits.
	score := MultiwayScore(h, Entropy)
	if !almost(score, 0.6935361388961918) {
		t.Errorf("expected Outlook score 0.694, got %v", score)
	}
}

func TestBinarySubsetSplitSmall(t *testing.T) {
	// Two values, perfectly separating: best split must put value 0 left
	// and achieve zero impurity.
	h := NewHist(2, 2)
	for i := 0; i < 5; i++ {
		h.Add(0, 0)
		h.Add(1, 1)
	}
	mask, score, ok := BinarySubsetSplit(h, Entropy)
	if !ok || mask != 1 || !almost(score, 0) {
		t.Fatalf("mask=%b score=%v ok=%v", mask, score, ok)
	}
}

func TestBinarySubsetSplitDegenerate(t *testing.T) {
	h := NewHist(4, 2)
	for i := 0; i < 7; i++ {
		h.Add(2, int32(i%2)) // all cases share one value
	}
	if _, _, ok := BinarySubsetSplit(h, Gini); ok {
		t.Fatal("split found on a single-valued attribute")
	}
	empty := NewHist(3, 2)
	if _, _, ok := BinarySubsetSplit(empty, Gini); ok {
		t.Fatal("split found on empty histogram")
	}
}

// TestGreedyMatchesExhaustive cross-checks the greedy subset search used
// for high-cardinality attributes against exhaustive enumeration on random
// low-cardinality histograms where both paths are available.
func TestGreedyMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 200; trial++ {
		m := 2 + rng.IntN(6)
		h := NewHist(m, 2)
		for i := 0; i < 40; i++ {
			h.Add(int32(rng.IntN(m)), int32(rng.IntN(2)))
		}
		exMask, exScore, exOK := exhaustiveSubset(h, Gini, h.Total())
		grMask, grScore, grOK := greedySubset(h, Gini, h.Total())
		if exOK != grOK {
			t.Fatalf("trial %d: ok mismatch", trial)
		}
		if !exOK {
			continue
		}
		// Greedy may be suboptimal but must be valid and close; the
		// exhaustive score is a lower bound.
		if grScore < exScore-1e-12 {
			t.Fatalf("trial %d: greedy %v better than exhaustive %v (masks %b/%b)", trial, grScore, exScore, grMask, exMask)
		}
		if grScore > exScore+0.1 {
			t.Fatalf("trial %d: greedy %v far from exhaustive %v", trial, grScore, exScore)
		}
	}
}

func TestBinarySubsetMaskBothSidesNonEmpty(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for trial := 0; trial < 100; trial++ {
		m := 2 + rng.IntN(18) // crosses the exhaustive/greedy boundary
		h := NewHist(m, 3)
		for i := 0; i < 60; i++ {
			h.Add(int32(rng.IntN(m)), int32(rng.IntN(3)))
		}
		mask, _, ok := BinarySubsetSplit(h, Entropy)
		if !ok {
			continue
		}
		var left, right int64
		for v := 0; v < m; v++ {
			if mask&(1<<uint(v)) != 0 {
				left += h.ValueTotal(v)
			} else {
				right += h.ValueTotal(v)
			}
		}
		if left == 0 || right == 0 {
			t.Fatalf("trial %d: degenerate mask %b (left %d right %d)", trial, mask, left, right)
		}
		if mask&1 == 0 && m <= exhaustiveSubsetLimit {
			t.Fatalf("trial %d: exhaustive search did not anchor value 0 left (mask %b)", trial, mask)
		}
	}
}

// bruteForceBestSplit is an O(n²) reference for BestContinuousSplit.
func bruteForceBestSplit(values []float64, classes []int32, c int, crit Criterion) (float64, float64, bool) {
	n := len(values)
	bestScore := math.Inf(1)
	bestThresh := 0.0
	found := false
	for _, thr := range values {
		var ln, rn int64
		left := make([]int64, c)
		right := make([]int64, c)
		for i := 0; i < n; i++ {
			if values[i] <= thr {
				left[classes[i]]++
				ln++
			} else {
				right[classes[i]]++
				rn++
			}
		}
		if ln == 0 || rn == 0 {
			continue
		}
		s := float64(ln)/float64(n)*crit.Impurity(left, ln) + float64(rn)/float64(n)*crit.Impurity(right, rn)
		if s < bestScore {
			bestScore, bestThresh, found = s, thr, true
		}
	}
	return bestThresh, bestScore, found
}

func TestBestContinuousSplitMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.IntN(40)
		values := make([]float64, n)
		classes := make([]int32, n)
		for i := range values {
			values[i] = float64(rng.IntN(10)) // duplicates likely
			classes[i] = int32(rng.IntN(3))
		}
		sorted := append([]float64(nil), values...)
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		sort.Slice(perm, func(a, b int) bool { return values[perm[a]] < values[perm[b]] })
		sortedClasses := make([]int32, n)
		for j, i := range perm {
			sorted[j] = values[i]
			sortedClasses[j] = classes[i]
		}
		got, gotOK := BestContinuousSplit(sorted, sortedClasses, 3, Gini)
		wantThresh, wantScore, wantOK := bruteForceBestSplit(values, classes, 3, Gini)
		if gotOK != wantOK {
			t.Fatalf("trial %d: ok %v vs %v", trial, gotOK, wantOK)
		}
		if !gotOK {
			continue
		}
		if !almost(got.Score, wantScore) {
			t.Fatalf("trial %d: score %v vs %v", trial, got.Score, wantScore)
		}
		if !almost(got.Score, wantScore) || (got.Thresh != wantThresh && !almost(got.Score, wantScore)) {
			t.Fatalf("trial %d: thresh %v vs %v", trial, got.Thresh, wantThresh)
		}
	}
}

func TestBinOfConvention(t *testing.T) {
	edges := []float64{10, 20, 30}
	cases := []struct {
		v    float64
		want int
	}{
		{5, 0}, {10, 0}, {10.0001, 1}, {20, 1}, {25, 2}, {30, 2}, {31, 3}, {1000, 3},
	}
	for _, tc := range cases {
		if got := BinOf(edges, tc.v); got != tc.want {
			t.Errorf("BinOf(%v) = %d, want %d", tc.v, got, tc.want)
		}
	}
	if BinOf(nil, 5) != 0 {
		t.Error("BinOf with no edges must return bin 0")
	}
}

func TestBinOfMonotoneProperty(t *testing.T) {
	f := func(raw []float64, v1, v2 float64) bool {
		if len(raw) == 0 {
			return true
		}
		edges := append([]float64(nil), raw...)
		sort.Float64s(edges)
		for i := range edges {
			if math.IsNaN(edges[i]) {
				return true
			}
		}
		if math.IsNaN(v1) || math.IsNaN(v2) {
			return true
		}
		b1, b2 := BinOf(edges, v1), BinOf(edges, v2)
		if v1 <= v2 && b1 > b2 {
			return false
		}
		return b1 >= 0 && b1 <= len(edges)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCriterionStrings(t *testing.T) {
	if Entropy.String() != "entropy" || Gini.String() != "gini" {
		t.Fatal("criterion names wrong")
	}
}
