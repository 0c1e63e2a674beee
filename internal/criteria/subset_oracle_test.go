// The reference for BinarySubsetSplit: the search as it stood before it
// was made incremental — every mask of every attribute re-summed from
// scratch — moved here verbatim, and the differential test that holds the
// production search to it bit for bit.
package criteria

import (
	"math"
	"math/rand/v2"
	"testing"
)

func subsetScore(h *Hist, crit Criterion, total int64, mask uint64) (float64, bool) {
	left := make([]int64, h.C)
	right := make([]int64, h.C)
	var ln, rn int64
	for v := 0; v < h.M; v++ {
		row := h.Row(v)
		if mask&(1<<uint(v)) != 0 {
			for c, n := range row {
				left[c] += n
			}
		} else {
			for c, n := range row {
				right[c] += n
			}
		}
	}
	for _, n := range left {
		ln += n
	}
	for _, n := range right {
		rn += n
	}
	if ln == 0 || rn == 0 {
		return 0, false
	}
	ft := float64(total)
	return float64(ln)/ft*crit.Impurity(left, ln) + float64(rn)/ft*crit.Impurity(right, rn), true
}

func exhaustiveSubset(h *Hist, crit Criterion, total int64) (uint64, float64, bool) {
	bestMask, bestScore, found := uint64(0), math.Inf(1), false
	// Fix value 0 on the left: enumerate the other M-1 bits.
	for rest := uint64(0); rest < 1<<uint(h.M-1); rest++ {
		mask := rest<<1 | 1
		s, valid := subsetScore(h, crit, total, mask)
		if valid && s < bestScore {
			bestMask, bestScore, found = mask, s, true
		}
	}
	return bestMask, bestScore, found
}

func greedySubset(h *Hist, crit Criterion, total int64) (uint64, float64, bool) {
	// Start from {value 0} on the left and move one value at a time while
	// the score improves; scan values in index order so the result is
	// deterministic.
	mask := uint64(1)
	bestScore, valid := subsetScore(h, crit, total, mask)
	if !valid {
		bestScore = math.Inf(1)
	}
	improved := true
	for improved {
		improved = false
		for v := 1; v < h.M; v++ {
			trial := mask ^ (1 << uint(v))
			s, ok := subsetScore(h, crit, total, trial)
			if ok && s < bestScore-1e-12 {
				mask, bestScore = trial, s
				improved = true
			}
		}
	}
	if math.IsInf(bestScore, 1) {
		return 0, 0, false
	}
	return mask, bestScore, true
}

// referenceSubsetSplit is BinarySubsetSplit as it stood before the
// incremental search, over the reference helpers above.
func referenceSubsetSplit(h *Hist, crit Criterion) (mask uint64, score float64, ok bool) {
	if h.M > 64 {
		return 0, 0, false
	}
	total := h.Total()
	if total == 0 {
		return 0, 0, false
	}
	present := 0
	for v := 0; v < h.M; v++ {
		if h.ValueTotal(v) > 0 {
			present++
		}
	}
	if present < 2 {
		return 0, 0, false
	}
	if h.M <= exhaustiveSubsetLimit {
		return exhaustiveSubset(h, crit, total)
	}
	return greedySubset(h, crit, total)
}

func checkAgainstReference(t *testing.T, name string, h *Hist, crit Criterion) {
	t.Helper()
	wantMask, wantScore, wantOK := referenceSubsetSplit(h, crit)
	mask, score, ok := BinarySubsetSplit(h, crit)
	if mask != wantMask || math.Float64bits(score) != math.Float64bits(wantScore) || ok != wantOK {
		t.Fatalf("%s %v M=%d C=%d counts=%v:\n got (%b, %v [%#x], %v)\nwant (%b, %v [%#x], %v)",
			name, crit, h.M, h.C, h.Counts,
			mask, score, math.Float64bits(score), ok,
			wantMask, wantScore, math.Float64bits(wantScore), wantOK)
	}
}

// randomHist draws one histogram of the differential test. The shapes are
// the ones the tree builders produce: dense root-like tables, deep-node
// tables with a few values left (value 0 absent half the time), tiny counts
// that tie many masks, a single present value, the empty table, nodes whose
// totals sit around the 2^14 cases up to which the entropy searches bound
// masks from a table (just below, at and just above it, or anywhere up to
// 10^5), and skewed nodes where one class holds at least 99 % of the cases
// and every score is near 0. A quarter of the draws have 2–16 classes.
func randomHist(rng *rand.Rand) (string, *Hist) {
	m, c := 1+rng.IntN(24), 2+rng.IntN(3)
	if rng.IntN(4) == 0 {
		c = 2 + rng.IntN(15)
	}
	h := NewHist(m, c)
	fill := func(v, hi int) {
		for cl := 0; cl < c; cl++ {
			h.Counts[v*c+cl] = int64(rng.IntN(hi))
		}
	}
	switch shape := rng.IntN(14); {
	case shape < 3:
		for v := 0; v < m; v++ {
			fill(v, 50)
		}
		return "dense", h
	case shape < 6:
		for k := 1 + rng.IntN(4); k > 0; k-- {
			fill(rng.IntN(m), 30)
		}
		if rng.IntN(2) == 0 {
			fill(0, 1) // value 0 absent
		}
		return "sparse", h
	case shape < 8:
		for v := 0; v < m; v++ {
			if rng.IntN(2) == 0 {
				fill(v, 3)
			}
		}
		return "ties", h
	case shape < 9:
		v := rng.IntN(m)
		fill(v, 30)
		h.Counts[v*c]++ // present for certain
		return "single", h
	case shape < 10:
		return "empty", h
	case shape < 12:
		var total int
		switch rng.IntN(4) {
		case 0:
			total = xlogxLimit - 1 - rng.IntN(4)
		case 1:
			total = xlogxLimit
		case 2:
			total = xlogxLimit + 1 + rng.IntN(4)
		default:
			total = 2 + rng.IntN(100_000-1)
		}
		spread(rng, h.Counts, total)
		return "large", h
	default:
		for v := 0; v < m; v++ {
			if rng.IntN(3) > 0 {
				for cl := 1; cl < c; cl++ {
					h.Counts[v*c+cl] = int64(rng.IntN(3))
				}
			}
		}
		minority := h.Total()
		major := make([]int64, m)
		spread(rng, major, int(99*minority)+1+rng.IntN(2000))
		for v, n := range major {
			h.Counts[v*c] += n
		}
		return "skewed", h
	}
}

// spread sets cells to random non-negative counts summing to exactly
// total, leaving about a third of them empty.
func spread(rng *rand.Rand, cells []int64, total int) {
	weights := make([]int, len(cells))
	sum := 0
	for i := range weights {
		if rng.IntN(3) > 0 {
			weights[i] = 1 + rng.IntN(1000)
			sum += weights[i]
		}
	}
	if sum == 0 {
		weights[0], sum = 1, 1
	}
	left := total
	for i, w := range weights {
		cells[i] = int64(w * total / sum)
		left -= w * total / sum
	}
	for i := range cells {
		if weights[i] > 0 {
			cells[i] += int64(left)
			break
		}
	}
}

// TestBinarySubsetSplitMatchesReference is the differential oracle of the
// incremental search: mask, score bits and ok must equal the from-scratch
// reference on every histogram.
func TestBinarySubsetSplitMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 1998))
	seen := map[string]int{}
	for trial := 0; trial < 24000; trial++ {
		name, h := randomHist(rng)
		seen[name]++
		for _, crit := range []Criterion{Entropy, Gini} {
			checkAgainstReference(t, name, h, crit)
		}
	}
	for _, name := range []string{"dense", "sparse", "ties", "single", "empty", "large", "skewed"} {
		if seen[name] < 1000 {
			t.Errorf("only %d %s histograms drawn", seen[name], name)
		}
	}

	// Fixed shapes: the widest mask, one value past it, and more classes
	// than the stack arrays hold.
	for _, fc := range []struct {
		name string
		m, c int
	}{{"M=64", 64, 3}, {"M=65", 65, 2}, {"C=17 exhaustive", 9, 17}, {"C=17 greedy", 20, 17}} {
		h := NewHist(fc.m, fc.c)
		for i := range h.Counts {
			if rng.IntN(3) > 0 {
				h.Counts[i] = int64(rng.IntN(40))
			}
		}
		for _, crit := range []Criterion{Entropy, Gini} {
			checkAgainstReference(t, fc.name, h, crit)
		}
	}

	// A negative count, which would index the entropy bound's table below
	// zero, takes the exact path.
	h := subsetBenchHist(8, 3)
	h.Counts[4] = -5
	checkAgainstReference(t, "negative count", h, Entropy)
}

// TestSubsetLowerBound holds the table bound of the entropy search below
// the exact score on random partitions of 2–16 classes and node totals up
// to the table's limit, one-case and single-class sides included, and
// measures how far the table form strays from the exact expression: the
// margin boundSlack must cover with room to spare.
func TestSubsetLowerBound(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 1998))
	var sides [2][stackClasses]int64
	worst := 0.0
	for trial := 0; trial < 200_000; trial++ {
		c := 2 + rng.IntN(stackClasses-1)
		total := 2 + rng.IntN(xlogxLimit-2)
		ln := 1 + rng.IntN(total-1)
		switch rng.IntN(8) {
		case 0:
			ln = 1
		case 1:
			ln = total - 1
		}
		p := partition{
			side:    [2][]int64{sides[lhs][:c], sides[rhs][:c]},
			n:       [2]int64{int64(ln), int64(total - ln)},
			ft:      float64(total),
			bounded: true,
		}
		for s, counts := range p.side {
			clear(counts)
			if rng.IntN(8) == 0 {
				counts[rng.IntN(c)] = p.n[s] // a single-class side
			} else {
				spread(rng, counts, int(p.n[s]))
			}
		}
		exact, ok := p.score(Entropy)
		if !ok {
			t.Fatalf("partition %v %v has an empty side", p.side, p.n)
		}
		if lo := p.lower(); lo > exact {
			t.Fatalf("C=%d N=%d sides %v %v: lower %v above exact %v", c, total, p.side[lhs], p.side[rhs], lo, exact)
		}
		worst = max(worst, math.Abs(p.tableScore()-exact))
	}
	t.Logf("max |table form − exact| = %.3g over 200 000 partitions; boundSlack = %.3g", worst, boundSlack)
	if worst > boundSlack/1024 {
		t.Errorf("table form strays %.3g from the exact score, more than boundSlack/1024 = %.3g", worst, boundSlack/1024)
	}
}

// FuzzBinarySubsetSplit holds the search to the reference on histograms
// built from arbitrary bytes. The first three pick M (1–24), C (2–17) and
// a scale (1–256); each further byte times the scale is one count, in
// row-major order, and cells past the input stay 0. Totals run from a few
// cases to well past the 2^14 up to which the entropy search bounds masks
// from a table.
func FuzzBinarySubsetSplit(f *testing.F) {
	f.Add([]byte{10, 0, 0, 5, 3, 1, 7, 0, 9, 2, 2, 4, 4})         // M=11, small counts
	f.Add([]byte{2, 0, 63, 100, 50, 60, 20, 16, 10})              // total exactly 2^14
	f.Add([]byte{2, 0, 63, 100, 50, 60, 20, 16, 9})               // total 2^14 - 64
	f.Add([]byte{19, 15, 200, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}) // greedy, C=17
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		m, c, scale := 1+int(data[0])%24, 2+int(data[1])%16, 1+int64(data[2])
		h := NewHist(m, c)
		for i, b := range data[3:min(len(data), 3+len(h.Counts))] {
			h.Counts[i] = int64(b) * scale
		}
		for _, crit := range []Criterion{Entropy, Gini} {
			checkAgainstReference(t, "fuzz", h, crit)
		}
	})
}
