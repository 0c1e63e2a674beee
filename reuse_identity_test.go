// Differential identity tests for the statistics-reuse layer: sibling
// subtraction and sparse reduction encoding are pure transport/compute
// optimisations, so every formulation must grow a tree bit-identical to
// its reuse-disabled run — multi-rank, across flush boundaries, and under
// crash/recovery. Modeled costs intentionally differ between reuse-on and
// reuse-off runs (that is the point of the optimisation), so the cost
// assertions here are about *determinism*: two identical reuse-on runs
// must produce bit-identical breakdowns, and a sparse threshold of 0 must
// be bit-identical to the plain dense collective (the mp tests pin that at
// the collective level; here it rides the full builders).
package partree_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"partree/internal/build"
	"partree/internal/core"
	"partree/internal/fault"
	"partree/internal/kernel"
	"partree/internal/tree"
)

// TestReuseIdentity: every formulation grows a bit-identical tree with the
// reuse layer in any configuration — subtraction alone, sparse encoding
// alone (at thresholds 0.5 and 1), and both together — as with the layer
// disabled.
func TestReuseIdentity(t *testing.T) {
	configs := []struct {
		name string
		ro   kernel.Options
	}{
		{"sub", kernel.Options{Subtraction: true}},
		{"sparse0.5", kernel.Options{SparseThreshold: 0.5}},
		{"sparse1", kernel.Options{SparseThreshold: 1}},
		{"sub+sparse", kernel.ReuseAll()},
	}
	for _, discrete := range []bool{true, false} {
		d := genKernelData(t, discrete)
		for _, name := range build.Names() {
			t.Run(fmt.Sprintf("discrete=%v/%s", discrete, name), func(t *testing.T) {
				want, _ := buildRAM(t, kernelSpec(name, discrete, kernel.Options{}), d)
				for _, cfg := range configs {
					got, _ := buildRAM(t, kernelSpec(name, discrete, cfg.ro), d)
					if diff := tree.Diff(want, got); diff != "" {
						t.Fatalf("%s: tree differs from reuse-disabled reference: %s", cfg.name, diff)
					}
				}
			})
		}
	}
}

// TestReuseDeterministicCosts: two identical reuse-enabled runs of each
// multi-rank formulation produce bit-identical modeled cost breakdowns and
// encoding stats, and a sparse threshold of 0 combined with subtraction
// records no encoding stats at all (the dense collective is used verbatim).
func TestReuseDeterministicCosts(t *testing.T) {
	d := genKernelData(t, true)
	for _, name := range build.Names() {
		if b, _ := build.Lookup(name); !b.MultiRank {
			continue
		}
		t.Run(name, func(t *testing.T) {
			_, w1 := buildRAM(t, kernelSpec(name, true, kernel.ReuseAll()), d)
			_, w2 := buildRAM(t, kernelSpec(name, true, kernel.ReuseAll()), d)
			if !reflect.DeepEqual(w1.Breakdown(), w2.Breakdown()) {
				t.Fatal("reuse-enabled breakdown not deterministic across identical runs")
			}
			if !reflect.DeepEqual(w1.EncodingByPhase(), w2.EncodingByPhase()) {
				t.Fatal("encoding stats not deterministic across identical runs")
			}
			_, w3 := buildRAM(t, kernelSpec(name, true, kernel.Options{Subtraction: true}), d)
			if enc := w3.EncodingByPhase(); len(enc) != 0 {
				t.Fatalf("threshold 0 recorded encoding stats: %+v", enc)
			}
		})
	}
}

// TestReuseFlushBoundaries: the synchronous formulation caches a family
// only when all its children land in one SyncEveryNodes flush chunk of the
// next level; families straddling a flush boundary must be re-tabulated,
// never derived across flushes. Sweeping small odd chunk sizes forces many
// straddles — the tree must stay bit-identical throughout.
func TestReuseFlushBoundaries(t *testing.T) {
	d := genKernelData(t, true)
	for _, sen := range []int{1, 2, 3, 4, 5, 7, 100} {
		t.Run(fmt.Sprintf("syncEvery=%d", sen), func(t *testing.T) {
			mk := func(ro kernel.Options) *tree.Tree {
				s := kernelSpec("sync", true, ro)
				s.Options.SyncEveryNodes = sen
				tr, _ := buildRAM(t, s, d)
				return tr
			}
			want := mk(kernel.Options{})
			got := mk(kernel.ReuseAll())
			if diff := tree.Diff(want, got); diff != "" {
				t.Fatalf("tree differs from reuse-disabled reference: %s", diff)
			}
		})
	}
}

// TestReuseIdentityUnderFaults: crash/recovery with the reuse layer on.
// The retried level runs with a dropped cache (it must not survive the
// restore — its contents describe the failed attempt's frontier), and the
// survivors must still finish with the fault-free reuse-disabled tree.
func TestReuseIdentityUnderFaults(t *testing.T) {
	d := genKernelData(t, true)
	o := core.Options{Tree: tree.Options{Binary: true}, SyncEveryNodes: 8}
	want := tree.BuildBFS(d, o.SerialOptions(d))

	const p = 4
	ro := o
	ro.Tree.Reuse = kernel.ReuseAll()
	ro.FT = &core.FTOptions{Store: fault.NewStore()}
	run := func(t *testing.T, name string, n int) {
		s := build.Spec{Builder: name, Procs: p, Options: ro, Fault: fault.NewPlan(fault.CrashAt(n%p, fault.CollStart, n))}
		var res build.Result
		var err error
		done := make(chan struct{})
		go func() {
			defer close(done)
			res, err = build.Run(s, d)
		}()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Fatal("recovery run deadlocked (watchdog)")
		}
		if err != nil {
			t.Fatal(err)
		}
		dead := map[int]bool{}
		for _, r := range res.World.DeadRanks() {
			dead[r] = true
		}
		for r, tr := range res.Trees {
			if tr == nil {
				if !dead[r] {
					t.Fatalf("rank %d returned no tree but is not dead", r)
				}
				continue
			}
			if diff := tree.Diff(want, tr); diff != "" {
				t.Fatalf("rank %d: recovered tree differs from fault-free reference: %s", r, diff)
			}
		}
	}
	for _, n := range []int{3, 5, 8} {
		for _, name := range []string{"sync", "hybrid"} {
			t.Run(fmt.Sprintf("%s-crash-op%d", name, n), func(t *testing.T) { run(t, name, n) })
		}
	}
}
