// Differential identity tests for the topology/collective-algorithm
// refactor of internal/mp. The default configuration — implicit hypercube
// topology, default algorithm per collective, zero per-hop latency — must
// be unobservable: every formulation grows a bit-identical tree with a
// bit-identical modeled cost breakdown whether the world was left alone
// or explicitly configured with the defaults. Non-default algorithms and
// hop-priced topologies may change modeled time, but never the tree.
package partree_test

import (
	"fmt"
	"reflect"
	"testing"

	"partree/internal/build"
	"partree/internal/kernel"
	"partree/internal/mp"
	"partree/internal/tree"
)

// TestDefaultNetworkConfigIdentity: for every formulation, a world that
// explicitly sets the hypercube topology and the default collective
// algorithms is bit-identical — tree, payload counters and modeled
// breakdown — to an untouched world. This is the acceptance gate for the
// topology refactor: the default path must not have moved.
func TestDefaultNetworkConfigIdentity(t *testing.T) {
	for _, discrete := range []bool{true, false} {
		d := genKernelData(t, discrete)
		for _, name := range build.Names() {
			t.Run(fmt.Sprintf("discrete=%v/%s", discrete, name), func(t *testing.T) {
				if b, _ := build.Lookup(name); !b.MultiRank {
					t.Skip("single-process builder: no world to configure")
				}
				s := kernelSpec(name, discrete, kernel.Options{})
				wantTree, wantW := buildRAM(t, s, d) // untouched world
				s.Topology, s.Coll = "hypercube", "default"
				gotTree, gotW := buildRAM(t, s, d)
				if diff := tree.Diff(wantTree, gotTree); diff != "" {
					t.Fatalf("explicit default config changed the tree: %s", diff)
				}
				if wantW.MaxClock() != gotW.MaxClock() {
					t.Fatalf("explicit default config changed the modeled clock: %v vs %v",
						wantW.MaxClock(), gotW.MaxClock())
				}
				if !reflect.DeepEqual(wantW.Traffic(), gotW.Traffic()) {
					t.Fatalf("explicit default config changed traffic:\nimplicit: %+v\nexplicit: %+v",
						wantW.Traffic(), gotW.Traffic())
				}
				if !reflect.DeepEqual(wantW.Breakdown(), gotW.Breakdown()) {
					t.Fatalf("explicit default config changed the modeled breakdown")
				}
				if !reflect.DeepEqual(wantW.EncodingByPhase(), gotW.EncodingByPhase()) {
					t.Fatalf("explicit default config changed encoding stats")
				}
			})
		}
	}
}

// TestNonPowerOfTwoDifferential: every multi-rank formulation at
// P ∈ {3, 5, 6, 12} grows the same tree as its serial reference, and the
// per-phase breakdown stays internally consistent with the raw traffic
// counters (sum over cells = sum over ranks). The non-power-of-two
// collective paths — binomial reduce+bcast, uneven ring chunks — must be
// exactly as correct as the recursive-doubling fast path.
func TestNonPowerOfTwoDifferential(t *testing.T) {
	d := genKernelData(t, true)
	serialRef, _ := buildRAM(t, kernelSpec("bfs", true, kernel.Options{}), d)
	for _, p := range []int{3, 5, 6, 12} {
		for _, name := range build.Names() {
			if b, _ := build.Lookup(name); !b.MultiRank {
				continue
			}
			t.Run(fmt.Sprintf("p=%d/%s", p, name), func(t *testing.T) {
				s := kernelSpec(name, true, kernel.Options{})
				s.Procs = p
				got, w := buildRAM(t, s, d)
				if diff := tree.Diff(serialRef, got); diff != "" {
					t.Fatalf("P=%d tree differs from serial reference: %s", p, diff)
				}
				checkBreakdownConsistent(t, w)
			})
		}
	}
}

func checkBreakdownConsistent(t *testing.T, w *mp.World) {
	t.Helper()
	tr := w.Traffic()
	tot := w.Breakdown().Total()
	if tot.Msgs != tr.Msgs || tot.Bytes != tr.Bytes {
		t.Fatalf("breakdown total %+v inconsistent with traffic %+v", tot, tr)
	}
	if diff := tot.CommTime - tr.CommTime; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("breakdown comm time %v != traffic %v", tot.CommTime, tr.CommTime)
	}
}

// TestTreeInvariantUnderNetworkConfig: changing the collective algorithm,
// the topology, or the per-hop latency may change modeled time but must
// never change the built tree — data and cost are strictly separated.
// Exercised with the sparse-reuse path enabled so the adaptive encoding
// runs under every allreduce algorithm.
func TestTreeInvariantUnderNetworkConfig(t *testing.T) {
	d := genKernelData(t, true)
	s := kernelSpec("sync", true, kernel.ReuseAll())
	s.Procs = 6
	want, _ := buildRAM(t, s, d)
	for _, nc := range []build.Spec{
		{Coll: "ring"},
		{Coll: "rhd"}, // falls back to red+bcast at p=6
		{Coll: "auto"},
		{Coll: "allreduce=ring,bcast=scatter-ag,allgather=gather+bcast"},
		{Topology: "ring", Machine: mp.SP2().WithHopLatency(5e-6)},
		{Topology: "torus", Coll: "ring", Machine: mp.SP2().WithHopLatency(5e-6)},
		{Topology: "fattree", Coll: "auto", Machine: mp.SP2().WithHopLatency(5e-6)},
	} {
		s.Topology, s.Coll, s.Machine = nc.Topology, nc.Coll, nc.Machine
		got, w := buildRAM(t, s, d)
		if diff := tree.Diff(want, got); diff != "" {
			t.Fatalf("config %s/%s/t_h=%g changed the tree: %s", nc.Topology, nc.Coll, nc.Machine.TH, diff)
		}
		checkBreakdownConsistent(t, w)
	}
	// The hybrid's split trigger is allowed to depend on the configured
	// algorithm's cost model, but its tree must still match the serial
	// reference under the default trigger semantics.
	serialRef, _ := buildRAM(t, kernelSpec("bfs", true, kernel.Options{}), d)
	hs := kernelSpec("hybrid", true, kernel.Options{})
	hs.Procs, hs.Coll = 6, "ring"
	hybridGot, _ := buildRAM(t, hs, d)
	if diff := tree.Diff(serialRef, hybridGot); diff != "" {
		t.Fatalf("hybrid under ring allreduce differs from serial reference: %s", diff)
	}
}
