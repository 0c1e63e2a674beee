package core

import (
	"math/rand/v2"
	"runtime"
	"sort"
	"testing"

	"partree/internal/dataset"
	"partree/internal/mp"
)

func shuffleSchema() *dataset.Schema {
	return &dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "k", Kind: dataset.Categorical, Values: []string{"0", "1", "2", "3"}},
			{Name: "v", Kind: dataset.Continuous},
		},
		Classes: []string{"a", "b"},
	}
}

// TestRedistributeConservesAndGroups drives the shuffle primitive with
// random local row sets and checks the invariants every use site depends
// on: (1) the multiset of record ids is conserved globally; (2) every
// record lands on a rank that is a target of its key; (3) per key, the
// per-target counts differ by at most one (even distribution); (4) the
// arrival order is the global (sender rank, local order) order.
func TestRedistributeConservesAndGroups(t *testing.T) {
	s := shuffleSchema()
	for _, p := range []int{2, 3, 4, 7, 8} {
		for trial := 0; trial < 3; trial++ {
			rng := rand.New(rand.NewPCG(uint64(p), uint64(trial)))
			keys := []int{0, 1, 2, 3}
			targets := make([][]int, len(keys))
			for _, k := range keys {
				// Random non-empty target subset.
				var tg []int
				for r := 0; r < p; r++ {
					if rng.IntN(2) == 0 {
						tg = append(tg, r)
					}
				}
				if len(tg) == 0 {
					tg = []int{rng.IntN(p)}
				}
				targets[k] = tg
			}

			// Build per-rank local datasets with random keyed rows.
			locals := make([]*dataset.Dataset, p)
			var allRIDs []int64
			ridToKey := map[int64]int{}
			var rid int64
			for r := 0; r < p; r++ {
				d := dataset.New(s, 0)
				rec := dataset.NewRecord(s)
				n := rng.IntN(30)
				for i := 0; i < n; i++ {
					k := keys[rng.IntN(len(keys))]
					rec.Cat[0] = int32(k)
					rec.Cont[1] = rng.Float64()
					rec.Class = int32(rng.IntN(2))
					rec.RID = rid
					ridToKey[rid] = k
					allRIDs = append(allRIDs, rid)
					rid++
					d.Append(rec)
				}
				locals[r] = d
			}

			outData := make([]*dataset.Dataset, p)
			outKeys := make([][][]int32, p)
			w := mp.NewWorld(p, mp.SP2())
			w.Run(func(c *mp.Comm) {
				d := locals[c.Rank()]
				rows := make([][]int32, len(keys))
				for i := 0; i < d.Len(); i++ {
					k := int(d.Cat[0][i])
					rows[k] = append(rows[k], int32(i))
				}
				nd, perKey := redistribute(c, d, rows, targets)
				outData[c.Rank()] = nd
				outKeys[c.Rank()] = perKey
			})

			// (1) conservation.
			var gotRIDs []int64
			for r := 0; r < p; r++ {
				gotRIDs = append(gotRIDs, outData[r].RID...)
			}
			sort.Slice(gotRIDs, func(a, b int) bool { return gotRIDs[a] < gotRIDs[b] })
			sort.Slice(allRIDs, func(a, b int) bool { return allRIDs[a] < allRIDs[b] })
			if len(gotRIDs) != len(allRIDs) {
				t.Fatalf("p=%d trial=%d: %d records after shuffle, want %d", p, trial, len(gotRIDs), len(allRIDs))
			}
			for i := range gotRIDs {
				if gotRIDs[i] != allRIDs[i] {
					t.Fatalf("p=%d trial=%d: record multiset changed", p, trial)
				}
			}

			// (2) placement and (3) evenness.
			for _, k := range keys {
				counts := map[int]int{}
				for r := 0; r < p; r++ {
					n := len(outKeys[r][k])
					if n == 0 {
						continue
					}
					counts[r] = n
					ok := false
					for _, tg := range targets[k] {
						if tg == r {
							ok = true
						}
					}
					if !ok {
						t.Fatalf("p=%d trial=%d: key %d landed on non-target rank %d", p, trial, k, r)
					}
					// Rows under this key must actually have the key.
					for _, i := range outKeys[r][k] {
						if int(outData[r].Cat[0][i]) != k {
							t.Fatalf("p=%d trial=%d: mis-keyed row", p, trial)
						}
					}
				}
				var total, mn, mx int
				mn = 1 << 30
				for _, tg := range targets[k] {
					n := counts[tg]
					total += n
					if n < mn {
						mn = n
					}
					if n > mx {
						mx = n
					}
				}
				if total > 0 && mx-mn > 1 {
					t.Fatalf("p=%d trial=%d key=%d: uneven distribution %v over targets %v", p, trial, k, counts, targets[k])
				}
			}

			// (4) global order preserved per key: concatenating targets in
			// order must give ascending RIDs (we assigned RIDs in global
			// generation order per rank, and ranks in order).
			for _, k := range keys {
				var seq []int64
				for _, tg := range targets[k] {
					for _, i := range outKeys[tg][k] {
						seq = append(seq, outData[tg].RID[i])
					}
				}
				for i := 1; i < len(seq); i++ {
					if seq[i] <= seq[i-1] {
						t.Fatalf("p=%d trial=%d key=%d: order not preserved: %v", p, trial, k, seq)
					}
				}
			}
		}
	}
}

// TestRedistributeDeterministicClocks: the shuffle's modeled cost must be
// identical across runs.
func TestRedistributeDeterministicClocks(t *testing.T) {
	s := shuffleSchema()
	run := func() []float64 {
		const p = 4
		w := mp.NewWorld(p, mp.SP2())
		w.Run(func(c *mp.Comm) {
			d := dataset.New(s, 0)
			rec := dataset.NewRecord(s)
			for i := 0; i < 20; i++ {
				rec.Cat[0] = int32((i + c.Rank()) % 2)
				rec.RID = int64(c.Rank()*100 + i)
				d.Append(rec)
			}
			rows := make([][]int32, 2)
			for i := 0; i < d.Len(); i++ {
				rows[int(d.Cat[0][i])] = append(rows[int(d.Cat[0][i])], int32(i))
			}
			redistribute(c, d, rows, [][]int{{0, 1}, {2, 3}})
		})
		out := make([]float64, p)
		for r := range out {
			out[r] = w.Clock(r)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("clock %d differs across runs: %v vs %v", i, a, b)
		}
	}
}

// TestRedistributeEmptyKey is the regression for the missing-entry bug:
// a requested key with zero records anywhere (an empty child after a
// split) produced no perKey entry at all, so downstream FrontierItems
// were built with a nil Idx indistinguishable from "key not assigned
// here". Every requested key must get a (possibly empty) row list on
// every rank.
func TestRedistributeEmptyKey(t *testing.T) {
	s := shuffleSchema()
	for _, p := range []int{2, 3, 4} {
		keys := []int{0, 1, 2, 3}
		targets := [][]int{{0}, {p - 1}, {0, p - 1}, {0}}
		outKeys := make([][][]int32, p)
		w := mp.NewWorld(p, mp.SP2())
		w.Run(func(c *mp.Comm) {
			// Keys 2 and 3 have zero records globally.
			d := dataset.New(s, 0)
			rec := dataset.NewRecord(s)
			for i := 0; i < 5; i++ {
				rec.Cat[0] = int32(i % 2)
				rec.RID = int64(c.Rank()*100 + i)
				d.Append(rec)
			}
			rows := make([][]int32, len(keys))
			for i := 0; i < d.Len(); i++ {
				rows[int(d.Cat[0][i])] = append(rows[int(d.Cat[0][i])], int32(i))
			}
			_, perKey := redistribute(c, d, rows, targets)
			outKeys[c.Rank()] = perKey
		})
		for r := 0; r < p; r++ {
			for _, k := range keys {
				if k >= len(outKeys[r]) {
					t.Fatalf("p=%d rank %d: requested key %d has no perKey entry", p, r, k)
				}
				rows := outKeys[r][k]
				if rows == nil {
					t.Fatalf("p=%d rank %d: key %d entry is nil, want empty slice", p, r, k)
				}
			}
			if n := len(outKeys[r][2]); n != 0 {
				t.Fatalf("p=%d rank %d: globally-empty key 2 has %d rows", p, r, n)
			}
			if n := len(outKeys[r][3]); n != 0 {
				t.Fatalf("p=%d rank %d: globally-empty key 3 has %d rows", p, r, n)
			}
		}
	}
}

// raceEnabled is set by race_enabled_test.go in -race builds, whose
// instrumentation makes allocation counts vary run to run.
var raceEnabled bool

// splitFrontier is a P=2 shuffle input: per rank, rowsPerRank rows of
// shuffleSchema cut into nk keys of equal size, and targets cycling over
// rank 0, rank 1 and both ranks, as the hybrid's halves and the
// partitioned Case 2's subsets place them.
func splitFrontier(rowsPerRank, nk int) (locals []*dataset.Dataset, rows [][][]int32, targets [][]int) {
	s := shuffleSchema()
	const p = 2
	locals = make([]*dataset.Dataset, p)
	rows = make([][][]int32, p)
	for r := 0; r < p; r++ {
		d := dataset.New(s, rowsPerRank)
		rec := dataset.NewRecord(s)
		for i := 0; i < rowsPerRank; i++ {
			rec.Cat[0] = int32(i % 4)
			rec.Cont[1] = float64(i)
			rec.Class = int32(i % 2)
			rec.RID = int64(r*rowsPerRank + i)
			d.Append(rec)
		}
		locals[r] = d
		all := d.AllIndex()
		rows[r] = make([][]int32, nk)
		for k := range rows[r] {
			rows[r][k] = all[k*rowsPerRank/nk : (k+1)*rowsPerRank/nk]
		}
	}
	pick := [][]int{{0}, {1}, {0, 1}}
	targets = make([][]int, nk)
	for k := range targets {
		targets[k] = pick[k%len(pick)]
	}
	return locals, rows, targets
}

// TestRedistributeAllocs: the shuffle's plan sizes every buffer up
// front, so on a warm P=2 world a redistribute of 20 000 keys allocates
// as many objects as one of 200 keys over the same 40 000 rows per rank.
// Anything allocated per key — a map entry, a row list grown by append —
// shows up as thousands of extra objects. The fewest of
// three measurements counts: goroutine timing can queue two messages in
// one mailbox now and then, which allocates.
//
// The bytes are bounded too. Every record is allocated three times over
// the shuffle: encoded into its sender's send buffer, decoded into the
// received dataset (rb bytes each), and given an int32 row id — 2·rb+4 =
// 52 bytes for shuffleSchema's 24-byte records, 4 160 000 bytes for the
// 80 000 rows. On top of that come at most one 8 KiB page of size-class
// rounding for each of the six record-sized buffers per rank (the send
// buffer, four columns, the row ids), and the O(keys) plan and frame
// headers, measured at 216–271 bytes per key over 200 and 2 000 keys and
// allowed 300. A 200-key shuffle measured 4 266 620 bytes against the
// bound of 4 318 304; an Alltoallv that copies every send block, own
// block included, adds another 1 920 000 and fails it.
func TestRedistributeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	const rowsPerRank, slack = 40000, 2
	w := mp.NewWorld(2, mp.SP2())
	shuffle := func(nk int) func() {
		locals, rows, targets := splitFrontier(rowsPerRank, nk)
		run := func() {
			w.Run(func(c *mp.Comm) { redistribute(c, locals[c.Rank()], rows[c.Rank()], targets) })
		}
		run() // warm the world
		return run
	}
	allocs := func(run func()) float64 {
		return min(testing.AllocsPerRun(5, run), testing.AllocsPerRun(5, run), testing.AllocsPerRun(5, run))
	}
	few, many := allocs(shuffle(200)), allocs(shuffle(20000))
	t.Logf("redistribute on P=2: %.0f allocations for 200 keys, %.0f for 20 000", few, many)
	if many > few+slack {
		t.Errorf("20 000 keys allocate %.0f objects, 200 keys %.0f: want at most %d more", many, few, slack)
	}

	// Bytes allocated per redistribute, the fewest of three 5-run means;
	// the inputs and the warm-up are allocated before the first reading.
	const runs, nk = 5, 200
	run := shuffle(nk)
	perRun := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			run()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	bytes := min(perRun(), perRun(), perRun())
	rb := shuffleSchema().RecordBytes()
	bound := uint64(2*rowsPerRank*(2*rb+4) + 2*6*8192 + 300*nk)
	t.Logf("redistribute on P=2: %d bytes for %d keys (bound %d)", bytes, nk, bound)
	if bytes > bound {
		t.Errorf("a %d-key redistribute allocates %d bytes, want at most %d: a record buffer is copied", nk, bytes, bound)
	}
}

// BenchmarkHybridSplit is the hybrid's split on a 32 768-node frontier at
// P=2: balanceGroups over the nodes' weights, then the redistribute that
// moves every record to its half.
func BenchmarkHybridSplit(b *testing.B) {
	const rowsPerRank, nk = 65536, 32768
	locals, rows, _ := splitFrontier(rowsPerRank, nk)
	weights := make([]int64, nk)
	for k := range weights {
		weights[k] = int64(len(rows[0][k]) + len(rows[1][k]) + k%5)
	}
	halves := [][]int{{0}, {1}}
	w := mp.NewWorld(2, mp.SP2())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Run(func(c *mp.Comm) {
			group := balanceGroups(weights, 2)
			targets := make([][]int, nk)
			for k, g := range group {
				targets[k] = halves[g]
			}
			redistribute(c, locals[c.Rank()], rows[c.Rank()], targets)
		})
	}
}
