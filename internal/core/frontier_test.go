package core

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func TestCeilLog2(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 16: 4, 128: 7}
	for p, want := range cases {
		if got := ceilLog2(p); got != want {
			t.Errorf("ceilLog2(%d) = %d, want %d", p, got, want)
		}
	}
}

func TestBalanceGroupsBasic(t *testing.T) {
	weights := []int64{10, 9, 2, 1}
	g := balanceGroups(weights, 2)
	load := map[int]int64{}
	for i, w := range weights {
		load[g[i]] += w
	}
	if load[0] == 0 || load[1] == 0 {
		t.Fatalf("empty group: %v", g)
	}
	if diff := load[0] - load[1]; diff > 2 && diff < -2 {
		t.Fatalf("imbalanced: %v", load)
	}
	// LPT on {10,9,2,1}: 10|9 → 10|11 → 12|11: groups {10,2} {9,1}.
	if g[0] == g[1] {
		t.Fatalf("two heaviest items share a group: %v", g)
	}
}

func TestBalanceGroupsProperties(t *testing.T) {
	f := func(raw []uint16, gRaw uint8) bool {
		ngroups := 2 + int(gRaw)%6
		if len(raw) == 0 {
			return true
		}
		weights := make([]int64, len(raw))
		var total int64
		for i, v := range raw {
			weights[i] = int64(v % 500)
			total += weights[i]
		}
		g := balanceGroups(weights, ngroups)
		if len(g) != len(weights) {
			return false
		}
		occupied := map[int]bool{}
		load := make([]int64, ngroups)
		var maxW int64
		for i, gi := range g {
			if gi < 0 || gi >= ngroups {
				return false
			}
			occupied[gi] = true
			load[gi] += weights[i]
			if weights[i] > maxW {
				maxW = weights[i]
			}
		}
		// Every group occupied when there are enough items.
		if len(weights) >= ngroups && len(occupied) != ngroups {
			return false
		}
		// LPT guarantee: max load ≤ average + max item weight.
		avg := total / int64(ngroups)
		for _, l := range load {
			if l > avg+maxW+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBalanceGroupsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	weights := make([]int64, 40)
	for i := range weights {
		weights[i] = int64(rng.IntN(100))
	}
	a := balanceGroups(weights, 4)
	b := balanceGroups(weights, 4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("balanceGroups is not deterministic")
		}
	}
}

func TestProportionalProcs(t *testing.T) {
	cases := []struct {
		weights []int64
		p       int
	}{
		{[]int64{50, 50}, 8},
		{[]int64{90, 10}, 8},
		{[]int64{1, 1, 1}, 3},
		{[]int64{100, 1, 1}, 5},
		{[]int64{0, 0}, 4},
		{[]int64{7}, 16},
	}
	for _, tc := range cases {
		got := proportionalProcs(tc.weights, tc.p)
		sum := 0
		for i, n := range got {
			if n < 1 {
				t.Fatalf("weights %v p=%d: item %d got %d procs", tc.weights, tc.p, i, n)
			}
			sum += n
		}
		if sum != tc.p {
			t.Fatalf("weights %v p=%d: assigned %d procs", tc.weights, tc.p, sum)
		}
	}
	// Exact outputs: rough proportionality (90/10 over 8 → 7/1), and tied
	// remainders, which gain a proc, or give one up, lowest index first.
	exact := []struct {
		weights []int64
		p       int
		want    []int
	}{
		{[]int64{90, 10}, 8, []int{7, 1}},
		{[]int64{1, 1, 1}, 4, []int{2, 1, 1}},
		{[]int64{1, 1, 1}, 5, []int{2, 2, 1}},
		{[]int64{1, 1}, 3, []int{2, 1}},
		{[]int64{45, 45, 1, 1, 1, 1, 1, 1, 1, 1}, 11, []int{1, 2, 1, 1, 1, 1, 1, 1, 1, 1}},
	}
	for _, tc := range exact {
		if got := proportionalProcs(tc.weights, tc.p); !slices.Equal(got, tc.want) {
			t.Fatalf("weights %v p=%d: got %v, want %v", tc.weights, tc.p, got, tc.want)
		}
	}
}

func TestProportionalProcsProperty(t *testing.T) {
	f := func(raw []uint16, extra uint8) bool {
		if len(raw) == 0 || len(raw) > 32 {
			return true
		}
		weights := make([]int64, len(raw))
		for i, v := range raw {
			weights[i] = int64(v % 1000)
		}
		p := len(weights) + int(extra)%20
		got := proportionalProcs(weights, p)
		sum := 0
		for _, n := range got {
			if n < 1 {
				return false
			}
			sum += n
		}
		return sum == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestBalanceGroupsZeroWeights is the regression for the phantom-load
// bug: the old code patched load==0 to 1 after placing an item, so a
// group holding only zero-weight items looked as loaded as a group with
// real work, and further zero-weight items were pushed onto loaded
// groups. Zero-weight items must cluster on the genuinely lightest group.
func TestBalanceGroupsZeroWeights(t *testing.T) {
	// {0,0,1} over 2 groups: the two empty frontier nodes must share a
	// group, leaving the loaded node alone (old code grouped an empty node
	// with the loaded one).
	g := balanceGroups([]int64{0, 0, 1}, 2)
	if g[0] != g[1] {
		t.Fatalf("zero-weight items split across groups: %v", g)
	}
	if g[0] == g[2] {
		t.Fatalf("zero-weight item grouped with the loaded item: %v", g)
	}

	// All-zero weights still spread over the groups (occupancy guarantee
	// must not collapse onto group 0).
	g = balanceGroups([]int64{0, 0, 0, 0}, 4)
	seen := map[int]bool{}
	for _, gi := range g {
		seen[gi] = true
	}
	if len(seen) != 4 {
		t.Fatalf("all-zero weights left groups empty: %v", g)
	}
}

// TestBalanceGroupsZeroWeightOccupancy: with more items than groups and
// mostly zero weights, every group must end up occupied and the loads of
// the positive-weight items must still be spread LPT-style.
func TestBalanceGroupsZeroWeightOccupancy(t *testing.T) {
	g := balanceGroups([]int64{0, 0, 0, 0, 5}, 3)
	seen := map[int]bool{}
	for _, gi := range g {
		seen[gi] = true
	}
	if len(seen) != 3 {
		t.Fatalf("group left empty: %v", g)
	}
	// The heavy item must sit alone among the positive loads: no
	// zero-weight group should have been preferred over another because of
	// phantom load.
	heavy := g[4]
	for i := 0; i < 4; i++ {
		if g[i] == heavy {
			t.Fatalf("zero-weight item %d placed with the heavy item despite free groups: %v", i, g)
		}
	}

	// Two heavies, many zeros, 2 groups: heavies must be separated and the
	// zeros must all go to the lighter side.
	g = balanceGroups([]int64{7, 0, 0, 9}, 2)
	if g[0] == g[3] {
		t.Fatalf("both heavy items in one group: %v", g)
	}
	if g[1] != g[0] || g[2] != g[0] {
		t.Fatalf("zero-weight items not on the lighter (7) side: %v", g)
	}
}

// insertionOrder orders items by descending weight, ties by ascending
// index, with an insertion sort: quadratic, but simple enough to serve
// as the oracle for TestBalanceGroupsMatchesReference.
func insertionOrder(weights []int64) []int {
	order := make([]int, len(weights))
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			a, b := order[j-1], order[j]
			if weights[b] > weights[a] || (weights[b] == weights[a] && b < a) {
				order[j-1], order[j] = b, a
			} else {
				break
			}
		}
	}
	return order
}

// referencePlace is balanceGroups' greedy placement, written out
// separately over a given order.
func referencePlace(weights []int64, order []int, ngroups int) []int {
	n := len(weights)
	group := make([]int, n)
	load := make([]int64, ngroups)
	used := make([]bool, ngroups)
	filled := 0
	for pos, i := range order {
		g := -1
		if ngroups-filled >= n-pos {
			for j := 0; j < ngroups; j++ {
				if !used[j] {
					g = j
					break
				}
			}
		}
		if g < 0 {
			g = 0
			for j := 1; j < ngroups; j++ {
				if load[j] < load[g] {
					g = j
				}
			}
		}
		if !used[g] {
			used[g] = true
			filled++
		}
		group[i] = g
		load[g] += weights[i]
	}
	return group
}

// TestBalanceGroupsMatchesReference: the comparison sort must give every
// item the group the insertion sort gave it, for the hybrid's two halves
// and the partitioned formulation's Case 1 alike. Weights draw from a few
// values with many zeros, so ties (broken by index) decide most of the
// order; the 31 625-item case is the hybrid_wide frontier at its split
// with every weight equal.
func TestBalanceGroupsMatchesReference(t *testing.T) {
	check := func(name string, weights []int64) {
		t.Helper()
		order := insertionOrder(weights)
		for ngroups := 2; ngroups <= 8; ngroups++ {
			want := referencePlace(weights, order, ngroups)
			got := balanceGroups(weights, ngroups)
			if !slices.Equal(got, want) {
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s ngroups=%d: item %d (weight %d) in group %d, reference %d",
							name, ngroups, i, weights[i], got[i], want[i])
					}
				}
				t.Fatalf("%s ngroups=%d: %d groups, reference %d", name, ngroups, len(got), len(want))
			}
		}
	}
	rng := rand.New(rand.NewPCG(45, 2))
	for _, n := range []int{0, 1, 2, 7, 1000, 40000} {
		weights := make([]int64, n)
		for i := range weights {
			if rng.IntN(3) > 0 {
				weights[i] = int64(rng.IntN(6)) * 17
			}
		}
		check(fmt.Sprintf("n=%d", n), weights)
	}
	same := make([]int64, 31625)
	for i := range same {
		same[i] = 32
	}
	check("n=31625 equal", same)
}
