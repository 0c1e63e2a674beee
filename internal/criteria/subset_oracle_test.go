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
// that tie many masks, a single present value, and the empty table.
func randomHist(rng *rand.Rand) (string, *Hist) {
	m, c := 1+rng.IntN(24), 2+rng.IntN(3)
	h := NewHist(m, c)
	fill := func(v, hi int) {
		for cl := 0; cl < c; cl++ {
			h.Counts[v*c+cl] = int64(rng.IntN(hi))
		}
	}
	switch shape := rng.IntN(10); {
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
	default:
		return "empty", h
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
	for _, name := range []string{"dense", "sparse", "ties", "single", "empty"} {
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
}
