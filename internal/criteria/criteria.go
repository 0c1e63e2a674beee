// Package criteria implements the split-selection machinery of Hunt's
// method: class-distribution histograms (the objects exchanged by the
// synchronous formulation's global reduction), entropy and Gini impurity,
// and best-split searches for categorical attributes (multiway and binary
// subset tests) and continuous attributes (sorted one-scan threshold
// search, as in C4.5/SLIQ/SPRINT).
//
// Everything here is deterministic given the input counts: the parallel
// formulations rely on every processor computing the identical best split
// from the identical global histogram, with ties broken by attribute
// index, then value/threshold order.
package criteria

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"partree/internal/kernel"
)

// Criterion selects the impurity measure used to score splits.
type Criterion int

const (
	// Entropy is the information-theoretic impurity used by C4.5.
	Entropy Criterion = iota
	// Gini is the Gini index used by CART/SLIQ/SPRINT.
	Gini
)

// String returns "entropy" or "gini".
func (c Criterion) String() string {
	switch c {
	case Entropy:
		return "entropy"
	case Gini:
		return "gini"
	default:
		return fmt.Sprintf("Criterion(%d)", int(c))
	}
}

// Impurity computes the criterion value of a class-count vector whose sum
// is total. A pure or empty distribution scores 0.
func (c Criterion) Impurity(counts []int64, total int64) float64 {
	if total <= 0 {
		return 0
	}
	switch c {
	case Entropy:
		return entropy(counts, total)
	case Gini:
		return gini(counts, total)
	default:
		panic("criteria: unknown criterion")
	}
}

func entropy(counts []int64, total int64) float64 {
	e := 0.0
	ft := float64(total)
	for _, n := range counts {
		if n > 0 {
			p := float64(n) / ft
			e -= p * math.Log2(p)
		}
	}
	return e
}

func gini(counts []int64, total int64) float64 {
	s := 0.0
	ft := float64(total)
	for _, n := range counts {
		p := float64(n) / ft
		s += p * p
	}
	return 1 - s
}

// Hist is the class-distribution table of one categorical attribute at one
// tree node: Counts[v*C + c] is the number of training cases with
// attribute value v and class c (Tables 2 and 3 of the paper are instances
// of this structure). Its flat int64 layout is exactly what the
// synchronous formulation concatenates and all-reduces.
type Hist struct {
	M      int // number of attribute values
	C      int // number of classes
	Counts []int64
}

// NewHist returns a zeroed M×C histogram.
func NewHist(m, c int) *Hist {
	return &Hist{M: m, C: c, Counts: make([]int64, m*c)}
}

// histPool recycles Hist headers; the count buffers come from the kernel
// pool, so a GetHist/PutHist cycle is allocation-free in steady state.
var histPool = sync.Pool{New: func() any { return new(Hist) }}

// GetHist returns a zeroed M×C histogram backed by the kernel buffer
// pool. Pair it with PutHist on every per-node scratch histogram — the
// hot builders churn one per (node, attribute) and pooling removes that
// allocation entirely (verified by the -benchmem suite).
func GetHist(m, c int) *Hist {
	h := histPool.Get().(*Hist)
	h.M, h.C = m, c
	h.Counts = kernel.GetInt64(m * c)
	return h
}

// PutHist recycles a histogram obtained from GetHist. The caller must not
// touch h, h.Counts, or any Row sub-slice afterwards.
func PutHist(h *Hist) {
	kernel.PutInt64(h.Counts)
	h.Counts = nil
	histPool.Put(h)
}

// Add counts one case with value v and class cl.
func (h *Hist) Add(v, cl int32) { h.Counts[int(v)*h.C+int(cl)]++ }

// Row returns the class-count vector of value v (a live sub-slice).
func (h *Hist) Row(v int) []int64 { return h.Counts[v*h.C : (v+1)*h.C] }

// Merge adds o's counts into h. The shapes must match.
func (h *Hist) Merge(o *Hist) {
	if h.M != o.M || h.C != o.C {
		panic(fmt.Sprintf("criteria: merging %dx%d hist into %dx%d", o.M, o.C, h.M, h.C))
	}
	for i, n := range o.Counts {
		h.Counts[i] += n
	}
}

// Total returns the number of cases counted.
func (h *Hist) Total() int64 {
	var t int64
	for _, n := range h.Counts {
		t += n
	}
	return t
}

// ValueTotal returns the number of cases with value v.
func (h *Hist) ValueTotal(v int) int64 {
	var t int64
	for _, n := range h.Row(v) {
		t += n
	}
	return t
}

// HistFor tabulates the histogram of categorical attribute values vs.
// classes over the rows idx of the columns (the per-processor "collect
// class distribution information of the local data" step). The returned
// histogram is owned by the caller and garbage collected; hot paths that
// can bound the lifetime should use GetHist + HistInto + PutHist instead.
func HistFor(values []int32, classes []int32, idx []int32, m, c int) *Hist {
	h := NewHist(m, c)
	HistInto(h, values, classes, idx)
	return h
}

// HistInto tabulates into an existing (zeroed or accumulating) histogram
// through the kernel tabulation path, which parallelizes across a bounded
// worker set on large row sets.
func HistInto(h *Hist, values []int32, classes []int32, idx []int32) {
	kernel.TabulateCat(h.Counts, values, classes, idx, h.C)
}

// stackValues is the cardinality up to which the per-value totals of the
// split searches live in a stack array: every attribute a subset mask can
// describe, and every categorical attribute of the paper's experiments.
const stackValues = 64

// valueTotals sums each value's row once: the per-value case counts (in buf
// when they fit, on the heap above stackValues values), their sum, and the
// number of non-empty values. The split searches read these instead of
// re-walking rows through Total and ValueTotal.
func (h *Hist) valueTotals(buf *[stackValues]int64) (totals []int64, total int64, present int) {
	if h.M <= stackValues {
		totals = buf[:h.M]
	} else {
		totals = make([]int64, h.M)
	}
	for v := range totals {
		nv := h.ValueTotal(v)
		totals[v] = nv
		total += nv
		if nv > 0 {
			present++
		}
	}
	return totals, total, present
}

// MultiwayScore returns the expected impurity after a multiway split on
// the histogram's attribute: sum over values of (n_v/n)·impurity(value v).
// The gain of the split is impurity(parent) − MultiwayScore.
func MultiwayScore(h *Hist, crit Criterion) float64 {
	var buf [stackValues]int64
	totals, total, _ := h.valueTotals(&buf)
	return multiwayScore(h, crit, totals, total)
}

func multiwayScore(h *Hist, crit Criterion, totals []int64, total int64) float64 {
	if total == 0 {
		return 0
	}
	s := 0.0
	for v, nv := range totals {
		if nv > 0 {
			s += float64(nv) / float64(total) * crit.Impurity(h.Row(v), nv)
		}
	}
	return s
}

// ScoreHist scores the best categorical test on a histogram: the binary
// subset search when binary is set, otherwise the multiway split (valid
// only when at least two values are non-empty). It returns the left-side
// value mask (zero for multiway), the expected impurity, and ok=false when
// the histogram cannot separate the data. This is the single scoring entry
// point shared by every builder — Hunt, BFS/sync, SLIQ, SPRINT, ScalParC
// and the vertical formulation — so the decision procedure cannot drift
// between them.
func ScoreHist(h *Hist, crit Criterion, binary bool) (mask uint64, score float64, ok bool) {
	if binary {
		return BinarySubsetSplit(h, crit)
	}
	var buf [stackValues]int64
	totals, total, nonEmpty := h.valueTotals(&buf)
	if nonEmpty < 2 {
		return 0, 0, false
	}
	return 0, multiwayScore(h, crit, totals, total), true
}

// exhaustiveSubsetLimit bounds the cardinality M for which the binary
// subset search considers all 2^(M-1) partitions; above it a deterministic
// greedy hill-climb is used (the same policy as SLIQ). The dispatch is on
// the declared cardinality, not on the number of values present at the
// node: a 20-value attribute with three values left at a deep node still
// takes the greedy path, because switching it to the (then cheap and
// better) exhaustive search would grow different trees.
const exhaustiveSubsetLimit = 12

// stackClasses is the class count up to which the two sides of a candidate
// partition live in stack arrays.
const stackClasses = 16

// xlogxLimit bounds the node totals whose entropy scores the subset searches
// bound from the xlogx table.
const xlogxLimit = 1 << 14

// xlogx[k] = k·log₂k for every count a node of fewer than xlogxLimit cases
// can hold (128 KB): the term T of the identity
//
//	N · (expected entropy) = T(ln) + T(rn) − Σc T(l_c) − Σc T(r_c)
//
// over the side totals ln and rn, each side's class counts l_c and r_c,
// and the node total N. xlogx[0] = 0, the limit of k·log₂k.
var xlogx = func() *[xlogxLimit]float64 {
	t := new([xlogxLimit]float64)
	for k := 1; k < xlogxLimit; k++ {
		t[k] = float64(k) * math.Log2(float64(k))
	}
	return t
}()

// boundSlack is what partition.lower subtracts from the table form of the
// entropy score, so that the bound stays below the float value of the
// exact expression on every partition it applies to. With u = 2^-53:
//   - Table form. Every term is at most T(N) < 14N, and the terms sum to at
//     most 2·T(N) < 28N, because Σc T(l_c) ≤ T(ln). Each entry is within
//     4u of its term, relatively, and adding at most 2 + 2·16 of them
//     adds at most 34u of their sum. The numerator is off by at most
//     38u · 28N, the quotient by at most about 1 070u.
//   - Exact expression. Each side sums at most 16 terms p·log₂p with
//     Σ p = 1 and Σ -p·log₂p ≤ 4, each within a few u of its value; the
//     weighted sum of the two sides is off by at most about 100u.
//
// The two differ by less than 1 200u ≈ 1.3e-13 < 2^-40 = boundSlack/1024.
// TestSubsetLowerBound measures the difference over 200 000 partitions and
// asserts it stays within boundSlack/1024.
const boundSlack = 0x1p-30

// BinarySubsetSplit finds the best binary partition of the attribute's
// values into {left, right} under the criterion. It returns the left-side
// value mask (bit v set ⇒ value v goes left), the expected impurity of the
// split, and ok=false when no split separates the data (all cases share
// one value) or the cardinality exceeds the 64 values a mask can
// represent — an attribute with more values can never carry a subset
// test, so every builder skips it rather than constructing a mask whose
// high values would silently misroute. Value 0 is always on the left,
// removing the mirror-image duplicates. Deterministic: for M ≤ 12 the
// winner is the first mask, in increasing mask order, that reaches the
// minimum score over all 2^(M-1) masks; above that, a greedy
// best-improvement climb from {value 0}.
//
// Neither search visits a mask that sets the bit of a value absent from
// the node. Such a mask splits the cases exactly as the smaller mask
// without that bit does — the same integer class counts on both sides,
// hence the same score to the last bit — so under the strict "<" of the
// exhaustive search it can never replace the smaller mask, which comes
// first, and under the greedy search's 1e-12 improvement rule it can never
// be accepted. Skipping them changes no result, and a deep node with three
// of eleven values present scores 4 masks instead of 1 024. The visited
// masks are scored from class counts moved one value row at a time: exact
// integers, so they equal a re-sum of every row, and the score expression
// is evaluated in one fixed shape. Mask, score bits and ok are therefore
// those of re-summing every one of the 2^(M-1) masks from scratch, the
// reference that subset_oracle_test.go holds this search to.
//
// Under Entropy, at a node of fewer than 2^14 cases with at most 16
// classes and no negative count, a mask is scored exactly only when it
// can still win. The expected entropy of a partition equals
// (T(ln) + T(rn) − Σc T(l_c) − Σc T(r_c)) / N with T(k) = k·log₂k, and a
// table of T turns that into a lower bound at the cost of table loads:
// the table form less a slack that covers the rounding of both forms.
// A mask whose bound already reaches the best score so far (for the
// greedy search, the best score less 1e-12) would be rejected by its
// exact score as well, so it is passed over unscored. Every mask that can
// win is still scored by the one fixed expression, so mask, score bits and
// ok are unchanged. Nothing is allocated up to 16 classes.
func BinarySubsetSplit(h *Hist, crit Criterion) (mask uint64, score float64, ok bool) {
	if h.M > 64 {
		return 0, 0, false
	}
	var tbuf [stackValues]int64
	totals, total, present := h.valueTotals(&tbuf)
	if total == 0 || present < 2 {
		return 0, 0, false
	}
	var sides [2][stackClasses]int64
	p := partition{h: h, totals: totals, ft: float64(total)}
	if h.C <= stackClasses {
		p.side = [2][]int64{sides[lhs][:h.C], sides[rhs][:h.C]}
	} else {
		p.side = [2][]int64{make([]int64, h.C), make([]int64, h.C)}
	}
	// Everything starts on the right; value 0 then moves left for good (a
	// no-op when it is absent: bit 0 is set in every mask regardless).
	negative := false
	for v, nv := range totals {
		for c, n := range h.Row(v) {
			p.side[rhs][c] += n
			negative = negative || n < 0
		}
		p.n[rhs] += nv
	}
	p.move(0, lhs)
	p.bounded = crit == Entropy && total < xlogxLimit && h.C <= stackClasses && !negative
	if h.M <= exhaustiveSubsetLimit {
		return p.bestExhaustive(crit)
	}
	return p.bestGreedy(crit)
}

// The two sides of a partition.
const (
	lhs = 0
	rhs = 1
)

// partition is the candidate split the subset searches carry from one mask
// to the next: the class counts and case count of each side, beside the
// histogram, its per-value totals and the node total as the float the
// score divides by. bounded says that lower applies.
type partition struct {
	h       *Hist
	totals  []int64
	side    [2][]int64
	n       [2]int64
	ft      float64
	bounded bool
}

// move takes value v's row to side `to` from the other side.
func (p *partition) move(v, to int) {
	dst, src := p.side[to], p.side[1-to]
	for c, k := range p.h.Row(v) {
		dst[c] += k
		src[c] -= k
	}
	p.n[to] += p.totals[v]
	p.n[1-to] -= p.totals[v]
}

// score is the expected impurity of the current partition; false when one
// side is empty.
func (p *partition) score(crit Criterion) (float64, bool) {
	ln, rn := p.n[lhs], p.n[rhs]
	if ln == 0 || rn == 0 {
		return 0, false
	}
	return float64(ln)/p.ft*crit.Impurity(p.side[lhs], ln) + float64(rn)/p.ft*crit.Impurity(p.side[rhs], rn), true
}

// tableScore is the entropy score of the current partition in table form:
// the identity's numerator over the node total, from xlogx. Only for a
// bounded partition, whose counts all index the table.
func (p *partition) tableScore() float64 {
	l, r := p.side[lhs], p.side[rhs]
	r = r[:len(l)]
	t := xlogx[p.n[lhs]] + xlogx[p.n[rhs]]
	for c := range l {
		t -= xlogx[l[c]] + xlogx[r[c]]
	}
	return t / p.ft
}

// lower is at most score(Entropy) on a bounded partition (boundSlack).
func (p *partition) lower() float64 {
	return p.tableScore() - boundSlack
}

// scoreBelow returns the partition's score and whether it is valid and
// below limit. On a bounded partition whose lower bound already reaches
// limit, the exact score could not be below it either, and is not
// computed.
func (p *partition) scoreBelow(crit Criterion, limit float64) (float64, bool) {
	if p.bounded && p.lower() >= limit {
		return 0, false
	}
	s, valid := p.score(crit)
	return s, valid && s < limit
}

// bestExhaustive visits every subset of the present values other than 0 in
// increasing mask order. Counting k through 0..2^np-1 and depositing its
// bits at the present positions (ascending) visits exactly those masks in
// that order; the step k → k+1 clears the trailing ones of k and sets its
// lowest zero, so the partition follows with two row moves per mask on
// average.
func (p *partition) bestExhaustive(crit Criterion) (uint64, float64, bool) {
	var pos [exhaustiveSubsetLimit]int
	np := 0
	for v := 1; v < p.h.M; v++ {
		if p.totals[v] > 0 {
			pos[np] = v
			np++
		}
	}
	bestMask, bestScore, found := uint64(0), math.Inf(1), false
	mask := uint64(1)
	for k := uint64(0); ; k++ {
		if s, ok := p.scoreBelow(crit, bestScore); ok {
			bestMask, bestScore, found = mask, s, true
		}
		if k+1 == 1<<uint(np) {
			return bestMask, bestScore, found
		}
		i := 0
		for ; k>>uint(i)&1 == 1; i++ {
			p.move(pos[i], rhs)
			mask &^= 1 << uint(pos[i])
		}
		p.move(pos[i], lhs)
		mask |= 1 << uint(pos[i])
	}
}

// bestGreedy starts from {value 0} on the left and moves one value at a
// time while the score improves; values are scanned in index order so the
// result is deterministic. A trial is the current partition with one row
// moved across, moved back when it does not improve.
func (p *partition) bestGreedy(crit Criterion) (uint64, float64, bool) {
	mask := uint64(1)
	bestScore, valid := p.score(crit)
	if !valid {
		bestScore = math.Inf(1)
	}
	improved := true
	for improved {
		improved = false
		for v := 1; v < p.h.M; v++ {
			if p.totals[v] == 0 {
				continue
			}
			to := lhs
			if mask&(1<<uint(v)) != 0 {
				to = rhs
			}
			p.move(v, to)
			if s, ok := p.scoreBelow(crit, bestScore-1e-12); ok {
				mask, bestScore = mask^(1<<uint(v)), s
				improved = true
			} else {
				p.move(v, 1-to)
			}
		}
	}
	if math.IsInf(bestScore, 1) {
		return 0, 0, false
	}
	return mask, bestScore, true
}

// ContSplit describes a binary threshold test "value ≤ Thresh" on a
// continuous attribute.
type ContSplit struct {
	Thresh float64
	Score  float64 // expected impurity of the split
}

// BestContinuousSplit scans the (already sorted ascending) values with
// their aligned classes once and returns the threshold minimizing expected
// impurity, exactly the C4.5 procedure behind Table 3. Candidate
// thresholds are the distinct values v_i with at least one case strictly
// greater (tests are "≤ v_i"). ok=false when all values are equal.
func BestContinuousSplit(sortedValues []float64, classes []int32, numClasses int, crit Criterion) (ContSplit, bool) {
	n := len(sortedValues)
	if n < 2 {
		return ContSplit{}, false
	}
	totalCounts := kernel.GetInt64(numClasses)
	defer kernel.PutInt64(totalCounts)
	for _, c := range classes {
		totalCounts[c]++
	}
	thresh, score, ok := kernel.ScanSorted(sortedValues, classes, totalCounts, crit)
	if !ok {
		return ContSplit{}, false
	}
	return ContSplit{Thresh: thresh, Score: score}, true
}

// ContStat is one row of a Table 3-style enumeration: the class
// distributions on both sides of the binary test "≤ Value".
type ContStat struct {
	Value float64
	LE    []int64 // classes of cases with value ≤ Value
	GT    []int64 // classes of cases with value > Value
}

// ContinuousDistribution enumerates the class-distribution information of
// every distinct value of a continuous attribute (the exact content of
// Table 3 for Humidity). Values and classes must be aligned; the slice is
// sorted internally without modifying the inputs.
func ContinuousDistribution(values []float64, classes []int32, numClasses int) []ContStat {
	n := len(values)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sortByValue(idx, values)
	total := make([]int64, numClasses)
	for _, c := range classes {
		total[c]++
	}
	le := make([]int64, numClasses)
	var out []ContStat
	for k := 0; k < n; k++ {
		i := idx[k]
		le[classes[i]]++
		if k+1 < n && values[idx[k+1]] == values[i] {
			continue
		}
		gt := make([]int64, numClasses)
		for c := range gt {
			gt[c] = total[c] - le[c]
		}
		out = append(out, ContStat{Value: values[i], LE: append([]int64(nil), le...), GT: gt})
	}
	return out
}

// BinOf locates the bin of v among ascending boundary edges with the
// half-open convention shared by every module that bins continuous
// values: bin i is (edges[i-1], edges[i]], bin 0 is (-inf, edges[0]] and
// bin len(edges) is (edges[len-1], +inf). Tree routing, per-node
// discretization and histogram collection all delegate to the kernel's
// binner, so a value on a boundary is counted and routed identically
// everywhere.
func BinOf(edges []float64, v float64) int {
	return kernel.BinOf(edges, v)
}

// sortByValue orders idx by ascending values[idx[i]], ties by ascending
// index — the deterministic order ContinuousDistribution enumerates. The
// comparison-function sort avoids the reflection-based swapper (and its
// per-call allocations) of the previous hand-rolled sort.Slice form.
func sortByValue(idx []int, values []float64) {
	slices.SortFunc(idx, func(a, b int) int {
		switch {
		case values[a] < values[b]:
			return -1
		case values[a] > values[b]:
			return 1
		default:
			return a - b // deterministic for equal values
		}
	})
}

// pairView sorts a float64 column and its aligned class column in
// lockstep without allocating an index permutation.
type pairView struct {
	v []float64
	c []int32
}

func (p pairView) Len() int           { return len(p.v) }
func (p pairView) Less(a, b int) bool { return p.v[a] < p.v[b] }
func (p pairView) Swap(a, b int) {
	p.v[a], p.v[b] = p.v[b], p.v[a]
	p.c[a], p.c[b] = p.c[b], p.c[a]
}

// SortPairs sorts values ascending with classes riding along, the
// preparation step of the C4.5-style per-node continuous search. The sort
// is not stable; the order of classes within a run of equal values does
// not affect any downstream decision, because the sorted-scan kernel only
// evaluates candidates at boundaries between distinct values, where the
// running class counts cover the whole run regardless of its internal
// order.
func SortPairs(values []float64, classes []int32) {
	sort.Sort(pairView{values, classes})
}
