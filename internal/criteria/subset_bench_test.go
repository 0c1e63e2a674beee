package criteria

import (
	"math/rand/v2"
	"testing"
)

// subsetBenchHist fills the listed values (all M
// when none are listed) of an M×C histogram with seeded counts; the other
// values stay absent, as at a deep tree node.
func subsetBenchHist(m, c int, values ...int) *Hist {
	if values == nil {
		for v := 0; v < m; v++ {
			values = append(values, v)
		}
	}
	rng := rand.New(rand.NewPCG(11, uint64(m)))
	h := NewHist(m, c)
	for _, v := range values {
		for cl := 0; cl < c; cl++ {
			h.Counts[v*c+cl] = int64(1 + rng.IntN(200))
		}
	}
	return h
}

type subsetCase struct {
	name string
	h    *Hist
}

// The three shapes the builders hand the search on the Quest schema: a
// root-like table with every value present (1 024 masks), a deep node with
// three values left and value 0 gone, and a cardinality on the greedy path.
var subsetBenchCases = []subsetCase{
	{"dense_M11", subsetBenchHist(11, 2)},
	{"sparse_3of11", subsetBenchHist(11, 2, 3, 6, 7)},
	{"greedy_M20", subsetBenchHist(20, 2)},
}

// TestBinarySubsetSplitZeroAlloc gates the allocation-free search: every
// frontier node of every builder calls it once per categorical attribute,
// and it used to allocate two class vectors per mask.
func TestBinarySubsetSplitZeroAlloc(t *testing.T) {
	cases := append([]subsetCase{
		{"exhaustive_C16", subsetBenchHist(8, stackClasses)},
		{"greedy_C16", subsetBenchHist(20, stackClasses)},
	}, subsetBenchCases...)
	for _, tc := range cases {
		for _, crit := range []Criterion{Entropy, Gini} {
			if _, _, ok := BinarySubsetSplit(tc.h, crit); !ok {
				t.Fatalf("%s %v: no split found", tc.name, crit)
			}
			if n := testing.AllocsPerRun(20, func() { BinarySubsetSplit(tc.h, crit) }); n != 0 {
				t.Errorf("%s %v: %v allocations per search, want 0", tc.name, crit, n)
			}
		}
	}
}

func BenchmarkBinarySubsetSplit(b *testing.B) {
	for _, bc := range subsetBenchCases {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				BinarySubsetSplit(bc.h, Entropy)
			}
		})
	}
}
