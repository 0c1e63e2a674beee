package core

import (
	"fmt"
	"testing"
	"time"

	"partree/internal/dataset"
	"partree/internal/discretize"
	"partree/internal/fault"
	"partree/internal/kernel"
	"partree/internal/mp"
	"partree/internal/quest"
	"partree/internal/tree"
)

// runRecovery runs a fault-tolerant build under an injected fault plan and
// returns the per-rank trees (nil for ranks that died), the world and the
// checkpoint store. A wall-clock watchdog turns any residual deadlock into
// a test failure instead of a hung suite.
func runRecovery(t testing.TB, build buildFn, d *dataset.Dataset, p int, o Options,
	plan *fault.Plan, recvTimeout time.Duration) ([]*tree.Tree, *mp.World, fault.Store) {
	t.Helper()
	st := fault.NewStore()
	o.FT = &FTOptions{Store: st}
	w := mp.NewWorld(p, mp.SP2())
	w.SetFaultPlan(plan)
	if recvTimeout > 0 {
		w.SetRecvTimeout(recvTimeout)
	}
	blocks := d.BlockPartition(p)
	trees := make([]*tree.Tree, p)
	done := make(chan struct{})
	var runErr any
	go func() {
		defer close(done)
		defer func() { runErr = recover() }()
		w.Run(func(c *mp.Comm) {
			trees[c.Rank()] = build(c, blocks[c.Rank()], o)
		})
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("recovery run deadlocked (watchdog)")
	}
	if runErr != nil {
		t.Fatalf("recovery run panicked: %v", runErr)
	}
	return trees, w, st
}

// checkSurvivors asserts every surviving rank's tree is bit-identical to
// the fault-free reference and every nil tree belongs to a dead rank.
func checkSurvivors(t *testing.T, want *tree.Tree, trees []*tree.Tree, w *mp.World) {
	t.Helper()
	dead := map[int]bool{}
	for _, r := range w.DeadRanks() {
		dead[r] = true
	}
	for r, tr := range trees {
		if tr == nil {
			if !dead[r] {
				t.Fatalf("rank %d returned no tree but is not dead", r)
			}
			continue
		}
		if dead[r] {
			t.Fatalf("rank %d is dead but returned a tree", r)
		}
		if diff := tree.Diff(want, tr); diff != "" {
			t.Fatalf("rank %d: recovered tree differs from fault-free reference: %s", r, diff)
		}
	}
}

// TestRecoveryCrashMatrix is the central robustness property: for every
// formulation, a seeded crash of any single rank at any collective
// boundary is detected (no deadlock), recovered from the last committed
// checkpoint, and the survivors finish with a tree bit-identical to the
// fault-free (serial-reference) run. The op sweep walks the crash point
// through the build, covering every level boundary of the function-2 tree;
// crash points past the end of the build simply never fire and degrade to
// a plain fault-free check.
func TestRecoveryCrashMatrix(t *testing.T) {
	d := genDiscrete(t, 1500, 2, 42)
	o := Options{Tree: tree.Options{Binary: true}, SyncEveryNodes: 8}
	want := tree.BuildBFS(d, o.SerialOptions(d))
	const p = 4
	for _, f := range formulations {
		fired, recovered := 0, 0
		for n := 1; n <= 12; n++ {
			rank := n % p
			t.Run(fmt.Sprintf("%s/crash-r%d-op%d", f.name, rank, n), func(t *testing.T) {
				plan := fault.NewPlan(fault.CrashAt(rank, fault.CollStart, n))
				trees, w, st := runRecovery(t, f.build, d, p, o, plan, 0)
				checkSurvivors(t, want, trees, w)
				deadRanks := w.DeadRanks()
				if len(deadRanks) == 0 {
					return // crash point past the end of this build
				}
				fired++
				if len(deadRanks) != 1 || deadRanks[0] != rank {
					t.Fatalf("dead ranks = %v, want [%d]", deadRanks, rank)
				}
				stats := st.Stats()
				if stats.Checkpoints == 0 || stats.Bytes == 0 {
					t.Fatalf("no checkpoints taken: %+v", stats)
				}
				// A crash at the very tail of the build (e.g. a leaf receiver
				// of the final broadcast) may leave no survivor depending on
				// the dead rank — then no recovery round is needed. When one
				// ran, it must have restored from the store.
				if rec := w.Breakdown().Phase(PhaseRecovery); rec.Calls > 0 {
					recovered++
					if stats.Restores == 0 {
						t.Fatalf("recovery round ran without restoring a checkpoint: %+v", stats)
					}
				}
			})
		}
		if fired < 6 {
			t.Fatalf("%s: only %d of 12 crash points fired — sweep not covering the build", f.name, fired)
		}
		if recovered < 4 {
			t.Fatalf("%s: only %d of %d fired crashes exercised a recovery round", f.name, recovered, fired)
		}
	}
}

// TestRecoveryDropMatrix: a silently dropped message surfaces as a receive
// timeout, triggers a full-strength recovery round (no rank died, so the
// group shrinks to itself), and the build still finishes with the
// reference tree on every rank.
func TestRecoveryDropMatrix(t *testing.T) {
	d := genDiscrete(t, 1200, 2, 7)
	o := Options{Tree: tree.Options{Binary: true}, SyncEveryNodes: 8}
	want := tree.BuildBFS(d, o.SerialOptions(d))
	const p = 4
	for _, f := range formulations {
		fired := 0
		for n := 1; n <= 6; n++ {
			rank := n % p
			t.Run(fmt.Sprintf("%s/drop-r%d-send%d", f.name, rank, n), func(t *testing.T) {
				plan := fault.NewPlan(fault.DropAt(rank, n, fault.AnyTag))
				trees, w, st := runRecovery(t, f.build, d, p, o, plan, 250*time.Millisecond)
				checkSurvivors(t, want, trees, w)
				if len(w.DeadRanks()) != 0 {
					t.Fatalf("drop fault killed ranks %v; want none dead", w.DeadRanks())
				}
				for _, ev := range w.Faults() {
					if ev.Kind == fault.Drop {
						fired++
						if st.Stats().Restores == 0 {
							t.Fatalf("drop detected but no checkpoint restored: %+v", st.Stats())
						}
						break
					}
				}
			})
		}
		if fired < 3 {
			t.Fatalf("%s: only %d of 6 drop points fired", f.name, fired)
		}
	}
}

// TestRecoveryStraggler: an injected delay only advances the modeled
// clock — no recovery round, no dead ranks, identical tree, and the run
// is measurably slower than the clean one.
func TestRecoveryStraggler(t *testing.T) {
	d := genDiscrete(t, 1200, 2, 11)
	o := Options{Tree: tree.Options{Binary: true}, SyncEveryNodes: 8}
	want := tree.BuildBFS(d, o.SerialOptions(d))
	const p = 4
	for _, f := range formulations {
		t.Run(f.name, func(t *testing.T) {
			clean, cw := runParallel(t, f.build, d, p, o)
			if diff := tree.Diff(want, clean); diff != "" {
				t.Fatalf("clean run differs from serial: %s", diff)
			}
			plan := fault.NewPlan(fault.DelayAt(1, fault.CollStart, 2, 0.5))
			trees, w, _ := runRecovery(t, f.build, d, p, o, plan, 0)
			checkSurvivors(t, want, trees, w)
			if len(w.DeadRanks()) != 0 {
				t.Fatalf("delay fault killed ranks %v", w.DeadRanks())
			}
			if len(w.Faults()) != 1 {
				t.Fatalf("faults = %v, want one delay event", w.Faults())
			}
			if w.MaxClock() < cw.MaxClock()+0.5-1e-9 {
				t.Fatalf("straggler run clock %.3f not ≥ clean %.3f + 0.5",
					w.MaxClock(), cw.MaxClock())
			}
		})
	}
}

// TestRecoveryCrashContinuous repeats the crash check on raw continuous
// attributes, where level-0 recovery must also re-run the binner's global
// min/max reductions on the survivor group.
func TestRecoveryCrashContinuous(t *testing.T) {
	d := genContinuous(t, 1000, 2, 19)
	o := Options{Tree: tree.Options{Binary: true}, SyncEveryNodes: 8, MicroBins: 32, NodeBins: 6}
	want := tree.BuildBFS(d, o.SerialOptions(d))
	const p = 4
	for _, f := range formulations {
		for _, n := range []int{1, 3, 6} {
			t.Run(fmt.Sprintf("%s/op%d", f.name, n), func(t *testing.T) {
				plan := fault.NewPlan(fault.CrashAt(2, fault.CollStart, n))
				trees, w, _ := runRecovery(t, f.build, d, p, o, plan, 0)
				checkSurvivors(t, want, trees, w)
			})
		}
	}
}

// TestRecoveryNoFaultOverheadFree: with FT enabled but no fault injected,
// checkpoints are taken but nothing is restored and no recovery phase
// appears — the overhead of the mechanism is checkpoint bytes only.
func TestRecoveryNoFaultOverheadFree(t *testing.T) {
	d := genDiscrete(t, 1200, 2, 23)
	o := Options{Tree: tree.Options{Binary: true}, SyncEveryNodes: 8}
	want := tree.BuildBFS(d, o.SerialOptions(d))
	for _, f := range formulations {
		t.Run(f.name, func(t *testing.T) {
			trees, w, st := runRecovery(t, f.build, d, 4, o, nil, 0)
			checkSurvivors(t, want, trees, w)
			stats := st.Stats()
			if stats.Checkpoints == 0 {
				t.Fatal("FT build took no checkpoints")
			}
			if stats.Restores != 0 {
				t.Fatalf("fault-free build restored checkpoints: %+v", stats)
			}
			if rec := w.Breakdown().Phase(PhaseRecovery); rec.Calls != 0 || rec.CommTime != 0 {
				t.Fatalf("fault-free build charged the recovery phase: %+v", rec)
			}
		})
	}
}

// TestRecoveryTwoCrashes: two distinct ranks crashing at different points
// trigger two recovery rounds; the two survivors still finish with the
// reference tree.
func TestRecoveryTwoCrashes(t *testing.T) {
	d := genDiscrete(t, 1200, 2, 29)
	o := Options{Tree: tree.Options{Binary: true}, SyncEveryNodes: 8}
	want := tree.BuildBFS(d, o.SerialOptions(d))
	for _, f := range formulations {
		t.Run(f.name, func(t *testing.T) {
			plan := fault.NewPlan(
				fault.CrashAt(1, fault.CollStart, 2),
				fault.CrashAt(3, fault.CollStart, 5),
			)
			trees, w, st := runRecovery(t, f.build, d, 4, o, plan, 0)
			checkSurvivors(t, want, trees, w)
			if len(w.DeadRanks()) == 0 {
				t.Fatal("no crash fired")
			}
			if st.Stats().Restores == 0 {
				t.Fatal("no checkpoint restored")
			}
		})
	}
}

// TestRecoveryVotedPartitioned is the regression test of the voted
// recovery hang. A peer's crash inside the ballot collective used to
// leave the survivors' collective depth raised, so they filed their
// recovery Barrier under different collective instances and waited
// forever. The configuration is dtree's `-n 3000 -attrs 32 -algo
// partitioned -procs 4 -maxdepth 6 -vote-k 3 -fault crash:2:13
// -recover` (2400 training rows, uniformly discretized), which hung on
// every run before the fix. The survivors must return the fault-free
// tree within runRecovery's watchdog, each with its phase stack empty
// and no collective open.
func TestRecoveryVotedPartitioned(t *testing.T) {
	full, err := quest.Generate(quest.Config{Function: 2, Seed: 1998, Attrs: 32}, 3000)
	if err != nil {
		t.Fatal(err)
	}
	d := discretize.UniformPaper(full.Slice(0, 2400), quest.PaperBins(), quest.Ranges())
	o := Options{Tree: tree.Options{Binary: true, MaxDepth: 6, Vote: kernel.VoteOptions{K: 3}}}
	const p, crashed = 4, 2
	want, _ := runParallel(t, BuildPartitioned, d, p, o)
	open := make([]int, p)
	build := func(c *mp.Comm, local *dataset.Dataset, o Options) *tree.Tree {
		end := c.PhaseMark() // panics if a collective is still open
		tr := BuildPartitioned(c, local, o)
		open[c.Rank()] = end()
		return tr
	}
	plan := fault.NewPlan(fault.CrashAt(crashed, fault.CollStart, 13))
	trees, w, st := runRecovery(t, build, d, p, o, plan, 0)
	if dead := w.DeadRanks(); len(dead) != 1 || dead[0] != crashed {
		t.Fatalf("dead ranks = %v, want [%d]", dead, crashed)
	}
	checkSurvivors(t, want, trees, w)
	if st.Stats().Restores == 0 {
		t.Fatalf("no checkpoint restored: %+v", st.Stats())
	}
	for r, n := range open {
		if n != 0 {
			t.Fatalf("rank %d ended the build with %d phases open", r, n)
		}
	}
}

// TestFTDisabledUnchanged: a nil FT option must leave the builders on
// their original zero-checkpoint path (guard against accidental coupling).
func TestFTDisabledUnchanged(t *testing.T) {
	d := genDiscrete(t, 1000, 2, 31)
	o := Options{Tree: tree.Options{Binary: true}, SyncEveryNodes: 8}
	want := tree.BuildBFS(d, o.SerialOptions(d))
	for _, f := range formulations {
		got, _ := runParallel(t, f.build, d, 4, o)
		if diff := tree.Diff(want, got); diff != "" {
			t.Fatalf("%s: non-FT build differs: %s", f.name, diff)
		}
	}
}
