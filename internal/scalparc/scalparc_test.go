package scalparc

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"partree/internal/criteria"
	"partree/internal/dataset"
	"partree/internal/mp"
	"partree/internal/quest"
	"partree/internal/sprint"
	"partree/internal/tree"
)

func runBuild(t testing.TB, d *dataset.Dataset, p int, o Options) ([]Result, *mp.World) {
	t.Helper()
	w := mp.NewWorld(p, mp.SP2())
	blocks := d.BlockPartition(p)
	results := make([]Result, p)
	w.Run(func(c *mp.Comm) {
		results[c.Rank()] = Build(c, blocks[c.Rank()], o)
	})
	for r := 1; r < p; r++ {
		if diff := tree.Diff(results[0].Tree, results[r].Tree); diff != "" {
			t.Fatalf("rank %d tree differs from rank 0: %s", r, diff)
		}
	}
	return results, w
}

// TestMatchesSerialSprint: both hash strategies, at every processor
// count, grow exactly the serial SPRINT tree — on raw continuous data,
// the hardest case (global sorted threshold search across section
// boundaries).
func TestMatchesSerialSprint(t *testing.T) {
	for _, fn := range []int{2, 7} {
		d, err := quest.Generate(quest.Config{Function: fn, Seed: uint64(fn) * 31}, 1500)
		if err != nil {
			t.Fatal(err)
		}
		for _, binary := range []bool{true, false} {
			topts := tree.Options{Binary: binary, Criterion: criteria.Gini, MaxDepth: 7}
			want := sprint.Build(d, topts)
			for _, mode := range []Mode{FullHash, DistributedHash} {
				for _, p := range []int{1, 2, 3, 4, 8} {
					t.Run(fmt.Sprintf("fn%d/binary=%v/%s/p%d", fn, binary, mode, p), func(t *testing.T) {
						results, _ := runBuild(t, d, p, Options{Tree: topts, Mode: mode})
						if diff := tree.Diff(want, results[0].Tree); diff != "" {
							t.Fatalf("parallel %s differs from serial SPRINT: %s", mode, diff)
						}
					})
				}
			}
		}
	}
}

// TestHashMemoryScaling reproduces the §2.2 claim: parallel SPRINT's
// per-processor hash is O(N) while ScalParC's shard is O(N/P).
func TestHashMemoryScaling(t *testing.T) {
	d, err := quest.Generate(quest.Config{Function: 2, Seed: 11}, 4000)
	if err != nil {
		t.Fatal(err)
	}
	const p = 8
	topts := tree.Options{Binary: true, MaxDepth: 4}
	full, _ := runBuild(t, d, p, Options{Tree: topts, Mode: FullHash})
	dist, _ := runBuild(t, d, p, Options{Tree: topts, Mode: DistributedHash})

	maxFull, maxDist := 0, 0
	for r := 0; r < p; r++ {
		if full[r].MaxHashEntries > maxFull {
			maxFull = full[r].MaxHashEntries
		}
		if dist[r].MaxHashEntries > maxDist {
			maxDist = dist[r].MaxHashEntries
		}
	}
	// The full table holds every record of the level (≈N); the shard ≈N/P.
	if maxFull < d.Len()*9/10 {
		t.Fatalf("full-hash peak %d, expected ≈N=%d", maxFull, d.Len())
	}
	if maxDist > maxFull/(p/2) {
		t.Fatalf("distributed peak %d vs full %d — expected ≈N/P", maxDist, maxFull)
	}
}

// TestCommunicationScaling: §2.2's scalability claim is per processor —
// the all-to-all broadcast leaves every parallel-SPRINT rank receiving
// O(N) hash bytes per level regardless of P, while ScalParC's
// personalized exchanges are O(N/P) per rank. The separation appears as P
// grows: the per-rank volume of the full-hash mode must exceed the
// distributed mode's at P=16, and the full mode's per-rank volume must
// barely shrink when P doubles.
func TestCommunicationScaling(t *testing.T) {
	d, err := quest.Generate(quest.Config{Function: 2, Seed: 13}, 4000)
	if err != nil {
		t.Fatal(err)
	}
	topts := tree.Options{Binary: true, MaxDepth: 4}
	maxHashBytes := func(res []Result) int64 {
		var mx int64
		for _, r := range res {
			if r.HashBytes > mx {
				mx = r.HashBytes
			}
		}
		return mx
	}
	full16, _ := runBuild(t, d, 16, Options{Tree: topts, Mode: FullHash})
	dist16, _ := runBuild(t, d, 16, Options{Tree: topts, Mode: DistributedHash})
	if maxHashBytes(full16) <= maxHashBytes(dist16) {
		t.Fatalf("per-rank hash bytes at P=16: full %d not above distributed %d",
			maxHashBytes(full16), maxHashBytes(dist16))
	}
	full8, _ := runBuild(t, d, 8, Options{Tree: topts, Mode: FullHash})
	// O(N) per rank: doubling P must not halve the full-hash per-rank
	// volume (allow slack for tree-shape noise).
	if maxHashBytes(full16) < maxHashBytes(full8)*6/10 {
		t.Fatalf("full-hash per-rank hash volume shrank too much with P: %d (P=8) -> %d (P=16)",
			maxHashBytes(full8), maxHashBytes(full16))
	}
	dist8, _ := runBuild(t, d, 8, Options{Tree: topts, Mode: DistributedHash})
	// O(N/P) per rank: doubling P should shrink it substantially.
	if maxHashBytes(dist16) > maxHashBytes(dist8)*8/10 {
		t.Fatalf("distributed per-rank hash volume did not scale down: %d (P=8) -> %d (P=16)",
			maxHashBytes(dist8), maxHashBytes(dist16))
	}
}

// TestSampleSortGlobalOrder drives the pre-sorting substrate directly.
func TestSampleSortGlobalOrder(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8} {
		d, err := quest.Generate(quest.Config{Function: 1, Seed: 17}, 777)
		if err != nil {
			t.Fatal(err)
		}
		blocks := d.BlockPartition(p)
		w := mp.NewWorld(p, mp.SP2())
		sections := make([][]sprint.Entry, p)
		w.Run(func(c *mp.Comm) {
			local := blocks[c.Rank()]
			raw := make([]sprint.Entry, local.Len())
			for i := range raw {
				raw[i] = sprint.Entry{Value: local.Cont[quest.Age][i], RID: local.RID[i], Class: local.Class[i]}
			}
			sections[c.Rank()] = sampleSort(c, raw, 0)
		})
		var joined []sprint.Entry
		for _, sec := range sections {
			joined = append(joined, sec...)
		}
		if len(joined) != d.Len() {
			t.Fatalf("p=%d: %d entries after sort, want %d", p, len(joined), d.Len())
		}
		for i := 1; i < len(joined); i++ {
			a, b := joined[i-1], joined[i]
			if b.Value < a.Value || (b.Value == a.Value && b.RID < a.RID) {
				t.Fatalf("p=%d: global order broken at %d", p, i)
			}
		}
		// Conservation of rids.
		rids := make([]int64, len(joined))
		for i, e := range joined {
			rids[i] = e.RID
		}
		sort.Slice(rids, func(a, b int) bool { return rids[a] < rids[b] })
		for i, r := range rids {
			if r != int64(i) {
				t.Fatalf("p=%d: rid multiset changed", p)
			}
		}
	}
}

// TestModesAgree: both modes produce identical trees on identical input
// (only costs and memory differ).
func TestModesAgree(t *testing.T) {
	d, err := quest.Generate(quest.Config{Function: 6, Seed: 23}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	topts := tree.Options{Binary: true}
	a, _ := runBuild(t, d, 4, Options{Tree: topts, Mode: FullHash})
	b, _ := runBuild(t, d, 4, Options{Tree: topts, Mode: DistributedHash})
	if diff := tree.Diff(a[0].Tree, b[0].Tree); diff != "" {
		t.Fatalf("modes disagree: %s", diff)
	}
}

func TestPairCodecRoundtrip(t *testing.T) {
	in := []ridChild{{rid: 1, child: 0}, {rid: 99999, child: 3}, {rid: 0, child: 1}}
	out := decodePairs(encodePairs(in))
	if len(out) != len(in) {
		t.Fatalf("%d pairs", len(out))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("pair %d: %+v vs %+v", i, in[i], out[i])
		}
	}
}

// TestCodecRaggedTailPanics: the pair and entry messages never leave the
// process, so a buffer that is not a whole number of records is an
// encoder bug and panics with the decoder's name and the byte count.
func TestCodecRaggedTailPanics(t *testing.T) {
	cases := []struct {
		name   string
		size   int
		decode func([]byte)
	}{
		{"decodePairs", 12, func(b []byte) { decodePairs(b) }},
		{"decodeEntries", 20, func(b []byte) { decodeEntries(b) }},
	}
	for _, tc := range cases {
		n := 1000*tc.size + 5
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, tc.name) || !strings.Contains(msg, fmt.Sprintf("%d-byte", n)) {
					t.Fatalf("%s of %d bytes: panic %q, want one naming the decoder and the byte count", tc.name, n, msg)
				}
			}()
			tc.decode(make([]byte, n))
		}()
	}
}
