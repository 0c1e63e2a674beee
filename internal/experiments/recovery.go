package experiments

import (
	"partree/internal/build"
	"partree/internal/core"
	"partree/internal/fault"
	"partree/internal/mp"
	"partree/internal/quest"
	"partree/internal/tree"
)

// RecoverySpec describes one fault-tolerance overhead measurement: the
// same workload is trained three times on the modeled machine — without
// fault tolerance, with checkpointing but no fault, and with a seeded
// crash of CrashRank at its CrashOp-th collective boundary — so the cost
// of the mechanism and the cost of an actual recovery can be read off
// separately.
type RecoverySpec struct {
	Formulation Formulation
	Records     int
	Function    int    // Quest classification function (paper: 2)
	Seed        uint64 // generator seed
	Procs       int
	CrashRank   int // rank killed in the faulted run
	CrashOp     int // ordinal of the collective boundary at which it dies
	Machine     mp.Machine
	Options     core.Options
}

func (s RecoverySpec) withDefaults() RecoverySpec {
	if s.Function == 0 {
		s.Function = 2
	}
	if s.Seed == 0 {
		s.Seed = 1998
	}
	if s.Procs == 0 {
		s.Procs = 4
	}
	if s.CrashOp == 0 {
		s.CrashOp = 3
	}
	if s.Machine == (mp.Machine{}) {
		s.Machine = mp.SP2()
	}
	s.Options.Tree.Binary = true
	s.Options = s.Options.WithDefaults()
	return s
}

// RecoveryResult reports the three runs of one RecoverySpec.
type RecoveryResult struct {
	Spec RecoverySpec
	// BaselineSeconds is the modeled time with fault tolerance disabled.
	BaselineSeconds float64
	// CleanSeconds is the modeled time with checkpointing on but no fault
	// — the steady-state overhead of the mechanism.
	CleanSeconds float64
	// FaultSeconds is the modeled time of the crashed-and-recovered run.
	FaultSeconds float64
	// Checkpoint traffic of the faulted run.
	Checkpoints  int64
	CheckpointMB float64
	Restores     int64
	RestoredMB   float64
	DeadRanks    []int
	// Recovery is the faulted run's PhaseRecovery breakdown row: the
	// modeled cost of regrouping the survivors, restoring checkpoints and
	// redistributing the lost rank's records.
	Recovery mp.CellStats
	// TreeEqual reports whether the survivors' tree is bit-identical to
	// the fault-free baseline tree.
	TreeEqual bool
}

// RunRecovery executes the three runs of spec and diffs the recovered
// tree against the no-fault-tolerance baseline.
func RunRecovery(spec RecoverySpec) RecoveryResult {
	spec = spec.withDefaults()
	res := RecoveryResult{Spec: spec}
	d := workload(quest.Config{Function: spec.Function, Seed: spec.Seed}, 0, spec.Records, false)
	// run trains once with the given store (nil disables fault tolerance)
	// and plan (nil injects nothing).
	run := func(st fault.Store, plan *fault.Plan) build.Result {
		o := spec.Options
		if st != nil {
			o.FT = &core.FTOptions{Store: st}
		}
		return mustRun(build.Spec{Builder: string(spec.Formulation), Procs: spec.Procs,
			Machine: spec.Machine, Options: o, Fault: plan}, d)
	}

	base := run(nil, nil)
	res.BaselineSeconds = base.World.MaxClock()

	res.CleanSeconds = run(fault.NewStore(), nil).World.MaxClock()

	faultStore := fault.NewStore()
	faulted := run(faultStore, fault.NewPlan(fault.CrashAt(spec.CrashRank, fault.CollStart, spec.CrashOp)))
	faultW := faulted.World
	res.FaultSeconds = faultW.MaxClock()
	st := faultStore.Stats()
	res.Checkpoints = st.Checkpoints
	res.CheckpointMB = float64(st.Bytes) / 1e6
	res.Restores = st.Restores
	res.RestoredMB = float64(st.RestoredB) / 1e6
	res.DeadRanks = faultW.DeadRanks()
	res.Recovery = faultW.Breakdown().Phase(core.PhaseRecovery)
	res.TreeEqual = faulted.Tree != nil && tree.Diff(base.Tree, faulted.Tree) == ""
	return res
}
