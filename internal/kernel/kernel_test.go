package kernel_test

import (
	"math"
	"testing"

	"partree/internal/criteria"
	"partree/internal/kernel"
)

// lcg is a tiny deterministic generator so the tests need no imports
// beyond the packages under test.
type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r)
}

func (r *lcg) intn(n int) int              { return int(r.next() % uint64(n)) }
func (r *lcg) float() float64              { return float64(r.next()>>11) / float64(1<<53) }
func (r *lcg) class(c int) int32           { return int32(r.intn(c)) }
func (r *lcg) value(m int) int32           { return int32(r.intn(m)) }
func (r *lcg) cont(lo, hi float64) float64 { return lo + (hi-lo)*r.float() }

// buildSpec synthesizes n rows under a schema of two categorical and two
// continuous attributes.
func buildSpec(n int, seed uint64) (*kernel.Spec, []int32) {
	r := lcg(seed)
	const classes = 3
	class := make([]int32, n)
	cat0 := make([]int32, n)
	cat1 := make([]int32, n)
	cont0 := make([]float64, n)
	cont1 := make([]float64, n)
	for i := 0; i < n; i++ {
		class[i] = r.class(classes)
		cat0[i] = r.value(7)
		cat1[i] = r.value(23)
		cont0[i] = r.cont(-5, 5)
		cont1[i] = r.cont(0, 1)
	}
	edges := func(lo, hi float64, bins int) []float64 {
		out := make([]float64, bins-1)
		w := (hi - lo) / float64(bins)
		for i := range out {
			out[i] = lo + w*float64(i+1)
		}
		return out
	}
	sp := &kernel.Spec{
		Classes: classes,
		Class:   class,
		Attrs: []kernel.AttrColumn{
			{Cat: cat0, Bins: 7},
			{Cat: cat1, Bins: 23},
			{Cont: cont0, Bins: 16, Edges: edges(-5, 5, 16)},
			{Cont: cont1, Bins: 8, Edges: edges(0, 1, 8)},
		},
	}
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	return sp, idx
}

func TestSpecValidateAndStatsLen(t *testing.T) {
	sp, _ := buildSpec(10, 1)
	if err := sp.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	want := 3 + (7+23+16+8)*3
	if got := sp.StatsLen(); got != want {
		t.Fatalf("StatsLen = %d, want %d", got, want)
	}
	bad := &kernel.Spec{Classes: 3, Attrs: []kernel.AttrColumn{{Bins: 2}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("spec with neither Cat nor Cont accepted")
	}
}

func TestPoolReturnsZeroedBuffers(t *testing.T) {
	for _, n := range []int{1, 3, 64, 65, 100000} {
		s := kernel.GetInt64(n)
		if len(s) != n {
			t.Fatalf("GetInt64(%d) returned len %d", n, len(s))
		}
		for i := range s {
			s[i] = int64(i) + 1
		}
		kernel.PutInt64(s)
		s2 := kernel.GetInt64(n)
		if len(s2) != n {
			t.Fatalf("recycled GetInt64(%d) returned len %d", n, len(s2))
		}
		for i, v := range s2 {
			if v != 0 {
				t.Fatalf("recycled buffer (n=%d) not zeroed at %d: %d", n, i, v)
			}
		}
		kernel.PutInt64(s2)
	}
	// Foreign (non-power-of-two-capacity) buffers are dropped, not filed.
	kernel.PutInt64(make([]int64, 3, 3))
	kernel.PutInt64(nil)
}

// referenceScan is the pre-kernel BestContinuousSplit loop, kept verbatim
// as the oracle for the scanner's differential test.
func referenceScan(values []float64, classes []int32, numClasses int, crit criteria.Criterion) (float64, float64, bool) {
	n := len(values)
	if n < 2 {
		return 0, 0, false
	}
	total := make([]int64, numClasses)
	for _, c := range classes {
		total[c]++
	}
	left := make([]int64, numClasses)
	right := append([]int64(nil), total...)
	bestT, bestS, found := 0.0, math.Inf(1), false
	ft := float64(n)
	for i := 0; i < n-1; i++ {
		c := classes[i]
		left[c]++
		right[c]--
		if values[i] == values[i+1] {
			continue
		}
		ln := int64(i + 1)
		rn := int64(n - i - 1)
		s := float64(ln)/ft*crit.Impurity(left, ln) + float64(rn)/ft*crit.Impurity(right, rn)
		if s < bestS {
			bestT, bestS, found = values[i], s, true
		}
	}
	return bestT, bestS, found
}

func sortedCase(n int, seed uint64, distinct int) ([]float64, []int32, []int64) {
	r := lcg(seed)
	values := make([]float64, n)
	classes := make([]int32, n)
	dist := make([]int64, 3)
	for i := 0; i < n; i++ {
		values[i] = float64(r.intn(distinct)) // duplicates guaranteed
		classes[i] = r.class(3)
		dist[classes[i]]++
	}
	// insertion sort by value (classes ride along); ties keep feed order,
	// which the scanner must be insensitive to.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && values[j] < values[j-1]; j-- {
			values[j], values[j-1] = values[j-1], values[j]
			classes[j], classes[j-1] = classes[j-1], classes[j]
		}
	}
	return values, classes, dist
}

// TestScanSortedMatchesReference compares the scanner against the
// pre-kernel loop bit for bit (threshold, score, and found flag).
func TestScanSortedMatchesReference(t *testing.T) {
	for _, crit := range []criteria.Criterion{criteria.Entropy, criteria.Gini} {
		for _, n := range []int{2, 3, 10, 257, 4000} {
			for _, distinct := range []int{1, 2, 5, 40} {
				values, classes, dist := sortedCase(n, uint64(n*distinct+1), distinct)
				wantT, wantS, wantOK := referenceScan(values, classes, 3, crit)
				gotT, gotS, gotOK := kernel.ScanSorted(values, classes, dist, crit)
				if wantOK != gotOK || wantT != gotT || wantS != gotS {
					t.Fatalf("crit=%v n=%d distinct=%d: scanner (%v,%v,%v) != reference (%v,%v,%v)",
						crit, n, distinct, gotT, gotS, gotOK, wantT, wantS, wantOK)
				}
			}
		}
	}
}

// TestContScannerSeededSections splits a sorted stream into contiguous
// sections scanned by separate seeded scanners (ScalParC's shape: each
// section starts from the class counts before it and closes on the first
// value of the next non-empty section) and asserts the sectioned best
// equals the full-scan best.
func TestContScannerSeededSections(t *testing.T) {
	values, classes, dist := sortedCase(1000, 7, 13)
	total := int64(len(values))
	fullT, fullS, fullOK := kernel.ScanSorted(values, classes, dist, criteria.Entropy)

	for _, parts := range []int{2, 3, 7} {
		bestT, bestS, found := 0.0, math.Inf(1), false
		per := len(values) / parts
		for p := 0; p < parts; p++ {
			lo := p * per
			hi := lo + per
			if p == parts-1 {
				hi = len(values)
			}
			prefix := make([]int64, 3)
			for i := 0; i < lo; i++ {
				prefix[classes[i]]++
			}
			var sc kernel.ContScanner
			sc.Reset(dist, total, criteria.Entropy)
			sc.Seed(prefix)
			for i := lo; i < hi; i++ {
				sc.Add(values[i], classes[i])
			}
			sc.Finish(0, false)
			if hi < len(values) {
				sc.Finish(values[hi], true)
			}
			if th, s, ok := sc.Best(); ok && (s < bestS || (s == bestS && th < bestT)) {
				bestT, bestS, found = th, s, true
			}
		}
		if found != fullOK || bestT != fullT || bestS != fullS {
			t.Fatalf("parts=%d: sectioned best (%v,%v,%v) != full scan (%v,%v,%v)",
				parts, bestT, bestS, found, fullT, fullS, fullOK)
		}
	}
}

// TestContScannerReuse asserts Reset gives a clean scan after a previous
// one (the SLIQ/SPRINT usage pattern: one scanner per leaf, reused across
// attributes).
func TestContScannerReuse(t *testing.T) {
	var sc kernel.ContScanner
	v1, c1, d1 := sortedCase(300, 21, 9)
	sc.Reset(d1, int64(len(v1)), criteria.Gini)
	for i := range v1 {
		sc.Add(v1[i], c1[i])
	}
	v2, c2, d2 := sortedCase(500, 22, 4)
	sc.Reset(d2, int64(len(v2)), criteria.Gini)
	for i := range v2 {
		sc.Add(v2[i], c2[i])
	}
	wantT, wantS, wantOK := kernel.ScanSorted(v2, c2, d2, criteria.Gini)
	gotT, gotS, gotOK := sc.Best()
	if wantOK != gotOK || wantT != gotT || wantS != gotS {
		t.Fatalf("reused scanner (%v,%v,%v) != fresh scan (%v,%v,%v)", gotT, gotS, gotOK, wantT, wantS, wantOK)
	}
}
