// Differential identity tests for the forest subsystem's serving
// contract: a 1-tree forest fused through the flat-forest layout must
// predict bit-identically to its member's plain flat.Model under every
// member builder, and the fused batch walk must vote row-for-row like
// member-by-member aggregation over the per-tree models on a batch
// large enough to cross many vote tiles. These are the acceptance
// gates for the fused serving path: the interleaved layout, the
// level-synchronous step walk and its integer-key encoding must be
// unobservable next to the reference walks.
package partree_test

import (
	"slices"
	"testing"

	"partree/internal/build"
	"partree/internal/dataset"
	"partree/internal/flat"
	"partree/internal/forest"
	"partree/internal/quest"
	"partree/internal/tree"
)

// TestForestSingleTreeIdentityAllBuilders trains a 1-tree bagged forest
// with every member builder the registry knows and checks the fused
// prediction of every row against the member model compiled alone.
func TestForestSingleTreeIdentityAllBuilders(t *testing.T) {
	train, err := quest.Generate(quest.Config{Function: 2, Seed: 31}, 1200)
	if err != nil {
		t.Fatal(err)
	}
	test, err := quest.Generate(quest.Config{Function: 2, Seed: 32}, 3000)
	if err != nil {
		t.Fatal(err)
	}
	for _, builder := range build.Names() {
		t.Run(builder, func(t *testing.T) {
			f, err := forest.Train(train, forest.Config{
				Trees:     1,
				Builder:   builder,
				Seed:      7,
				Bootstrap: true,
				Tree:      tree.Options{Binary: true, MaxDepth: 8},
			})
			if err != nil {
				t.Fatal(err)
			}
			m, err := flat.Compile(f.Trees[0])
			if err != nil {
				t.Fatal(err)
			}
			fz, err := forest.Compile(f)
			if err != nil {
				t.Fatal(err)
			}
			if fz.Nodes() != m.Len() {
				t.Fatalf("fused table has %d nodes, member model %d", fz.Nodes(), m.Len())
			}
			fused := make([]int32, test.Len())
			want := make([]int32, test.Len())
			fz.PredictInto(test, fused, 0, test.Len())
			m.PredictInto(test, want, 0, test.Len())
			for r := range fused {
				if fused[r] != want[r] {
					t.Fatalf("row %d: fused=%d flat=%d", r, fused[r], want[r])
				}
			}
		})
	}
}

// TestForestFusedMatchesPerTreeVotesLargeBatch checks the fused walk
// against per-tree vote aggregation row-for-row across a batch that
// spans many vote tiles (including a partial final tile), under both
// vote modes and for a forest whose members differ in depth.
func TestForestFusedMatchesPerTreeVotesLargeBatch(t *testing.T) {
	train, err := quest.Generate(quest.Config{Function: 2, Seed: 41}, 4000)
	if err != nil {
		t.Fatal(err)
	}
	test, err := quest.Generate(quest.Config{Function: 2, Seed: 42, Perturbation: 0.1}, 12007)
	if err != nil {
		t.Fatal(err)
	}
	for _, binary := range []bool{true, false} {
		f, err := forest.Train(train, forest.Config{
			Trees:           24,
			Builder:         "hunt",
			Seed:            9,
			Bootstrap:       true,
			FeatureFraction: 0.8,
			Tree:            tree.Options{Binary: binary, MaxDepth: 9},
		})
		if err != nil {
			t.Fatal(err)
		}
		// Multiway members carry CatMultiway nodes, which the step walk
		// rejects: the fused table then serves through the generic walk.
		if multiway := slices.Contains(mustCompile(t, f).Kind, tree.CatMultiway); multiway == binary {
			t.Fatalf("Binary: %v forest has CatMultiway nodes: %v", binary, multiway)
		}
		fusedMatchesPerTreeVotes(t, f, test)
	}
}

// mustCompile fuses f or fails the test.
func mustCompile(t *testing.T, f *forest.Forest) *forest.Fused {
	t.Helper()
	fz, err := forest.Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	return fz
}

// fusedMatchesPerTreeVotes checks, under both vote modes, that the fused
// walk of f votes every row of test like per-tree aggregation, whole and
// sharded at arbitrary boundaries.
func fusedMatchesPerTreeVotes(t *testing.T, f *forest.Forest, test *dataset.Dataset) {
	t.Helper()
	for _, mode := range []forest.VoteMode{forest.Majority, forest.Weighted} {
		f.Vote = mode
		f.Weights = nil
		if mode == forest.Weighted {
			f.Weights = make([]float64, len(f.Trees))
			for i := range f.Weights {
				f.Weights[i] = 0.17 + 0.029*float64(i)
			}
		}
		fz := mustCompile(t, f)
		fused := make([]int32, test.Len())
		naive := make([]int32, test.Len())
		fz.PredictInto(test, fused, 0, test.Len())
		fz.PredictNaiveInto(test, naive, 0, test.Len())
		mismatches := 0
		for r := range fused {
			if fused[r] != naive[r] {
				if mismatches < 5 {
					t.Errorf("%v: row %d fused=%d naive=%d", mode, r, fused[r], naive[r])
				}
				mismatches++
			}
		}
		if mismatches > 0 {
			t.Fatalf("%v: %d/%d rows diverge", mode, mismatches, test.Len())
		}
		// Sharded serving splits the batch at arbitrary boundaries; the
		// walk must not depend on tile alignment.
		shard := make([]int32, test.Len())
		for lo := 0; lo < test.Len(); {
			hi := lo + 1000 + lo%773
			if hi > test.Len() {
				hi = test.Len()
			}
			fz.PredictInto(test, shard, lo, hi)
			lo = hi
		}
		for r := range shard {
			if shard[r] != fused[r] {
				t.Fatalf("%v: row %d sharded=%d whole=%d", mode, r, shard[r], fused[r])
			}
		}
	}
}

// TestForestSingleMultiwayTreeMatchesFlat checks a 1-tree forest of a
// multiway member, which the fused table serves through the generic
// walk, against that member's own flat model.
func TestForestSingleMultiwayTreeMatchesFlat(t *testing.T) {
	train, err := quest.Generate(quest.Config{Function: 2, Seed: 51}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	test, err := quest.Generate(quest.Config{Function: 2, Seed: 52, Perturbation: 0.1}, 3000)
	if err != nil {
		t.Fatal(err)
	}
	f, err := forest.Train(train, forest.Config{
		Trees:     1,
		Builder:   "hunt",
		Seed:      5,
		Bootstrap: true,
		Tree:      tree.Options{MaxDepth: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := flat.Compile(f.Trees[0])
	if err != nil {
		t.Fatal(err)
	}
	fz := mustCompile(t, f)
	if !slices.Contains(fz.Kind, tree.CatMultiway) {
		t.Fatal("multiway member has no CatMultiway node")
	}
	fused := make([]int32, test.Len())
	want := make([]int32, test.Len())
	fz.PredictInto(test, fused, 0, test.Len())
	m.PredictInto(test, want, 0, test.Len())
	for r := range fused {
		if fused[r] != want[r] {
			t.Fatalf("row %d: fused=%d flat=%d", r, fused[r], want[r])
		}
		if got := fz.PredictFrom(test, r, 0); got != want[r] {
			t.Fatalf("row %d: fused table walk=%d flat=%d", r, got, want[r])
		}
	}
}
