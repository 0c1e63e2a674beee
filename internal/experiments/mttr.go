package experiments

import (
	"encoding/json"
	"fmt"
	"os"

	"partree/internal/build"
	"partree/internal/core"
	"partree/internal/fault"
	"partree/internal/mp"
	"partree/internal/quest"
	"partree/internal/tree"
)

// MTTR sweep: how long does it take to get the tree back after a fault,
// as a function of the checkpoint interval and of how much of the machine
// comes back? Three recovery modes are priced on the modeled machine with
// durable (disk-backed, TD-priced) checkpoints:
//
//   - in-place: one rank dies, the survivors regroup inside the same run
//     and finish. MTTR is the extra modeled time the crash added over the
//     fault-free checkpointing run.
//   - restart: every rank dies (kill -9 of the whole process); a fresh
//     process of the same size resumes from the last committed durable
//     cut. MTTR is the resumed process's modeled seconds — its clock
//     starts at zero, so this is rollback replay plus the remaining build.
//   - elastic: like restart, but the new process has P' < P ranks; lost
//     ranks' checkpoints are adopted by their heirs (rank i mod P').
//
// Every mode must hand back a tree bit-identical to the fault-free run;
// the sweep records that check alongside the costs so the artifact is a
// correctness witness too.

// MTTRSpec configures one sweep. The zero value of most fields picks the
// defaults of the committed BENCH_recovery.json artifact.
type MTTRSpec struct {
	Formulation Formulation
	Records     int
	Function    int    // Quest classification function (paper: 2)
	Seed        uint64 // generator seed
	Procs       int    // ranks of the original (crashed) process
	HaltOp      int    // collective boundary at which ranks die
	Intervals   []int  // checkpoint-every values (levels between durable cuts)
	ResumeProcs []int  // P' of the resumed process; == Procs is restart, < is elastic
	Machine     mp.Machine
	Options     core.Options
}

func (s MTTRSpec) withDefaults() MTTRSpec {
	if s.Function == 0 {
		s.Function = 2
	}
	if s.Seed == 0 {
		s.Seed = 1998
	}
	if s.Procs == 0 {
		s.Procs = 4
	}
	if s.HaltOp == 0 {
		s.HaltOp = 5
	}
	if len(s.Intervals) == 0 {
		s.Intervals = []int{1, 2, 4}
	}
	if len(s.ResumeProcs) == 0 {
		s.ResumeProcs = []int{s.Procs, s.Procs - 1, s.Procs / 2}
	}
	if s.Machine == (mp.Machine{}) {
		// Price durable checkpoint bytes at 20 MB/s so the interval
		// tradeoff (steady-state write cost vs. rollback distance) is
		// visible at artifact scale.
		s.Machine = mp.SP2().WithDiskRate(5e-8)
	}
	s.Options.Tree.Binary = true
	s.Options = s.Options.WithDefaults()
	return s
}

// MTTRRow is one (formulation, interval, mode, P') point.
type MTTRRow struct {
	Formulation string `json:"formulation"`
	Interval    int    `json:"interval"` // checkpoint every k levels
	Mode        string `json:"mode"`     // in-place | restart | elastic
	HaltOp      int    `json:"halt_op"`  // collective boundary where ranks died
	Procs       int    `json:"procs"`
	ResumeProcs int    `json:"resume_procs"`
	// BaselineSec is the modeled time with fault tolerance off;
	// CleanSec the fault-free run with durable checkpointing at this
	// interval (their gap is the steady-state overhead, also given as
	// OverheadPct).
	BaselineSec float64 `json:"baseline_sec"`
	CleanSec    float64 `json:"clean_sec"`
	OverheadPct float64 `json:"overhead_pct"`
	// MTTRSec per the mode definitions above.
	MTTRSec       float64 `json:"mttr_sec"`
	CheckpointMB  float64 `json:"checkpoint_mb"`
	RestoredMB    float64 `json:"restored_mb"`
	DiskWrittenMB float64 `json:"disk_written_mb"` // bytes the halted process persisted
	DiskReadMB    float64 `json:"disk_read_mb"`    // bytes the resumed process read back
	TreeEqual     bool    `json:"tree_equal"`
}

// RecoveryBench is the committed BENCH_recovery.json artifact.
type RecoveryBench struct {
	Machine struct {
		TS, TW, TC, TOp, TD float64
	} `json:"machine"`
	Records  int       `json:"records"`
	Function int       `json:"function"`
	Seed     uint64    `json:"seed"`
	Procs    int       `json:"procs"`
	Rows     []MTTRRow `json:"rows"`
}

// MarshalIndent renders the artifact as the committed JSON.
func (a RecoveryBench) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(a, "", "  ")
}

// RunMTTR executes the sweep for one formulation and appends its rows to
// the artifact. Durable stores live in throwaway temp directories; every
// resumed tree is diffed against the fault-free baseline.
func RunMTTR(spec MTTRSpec) ([]MTTRRow, error) {
	spec = spec.withDefaults()
	d := workload(quest.Config{Function: spec.Function, Seed: spec.Seed}, 0, spec.Records, false)
	// run is one training process of the sweep: procs ranks, an optional
	// durable store (nil disables fault tolerance) and an optional plan.
	run := func(procs int, st fault.Store, ckptEvery int, resume bool, plan *fault.Plan) build.Result {
		o := spec.Options
		if st != nil {
			o.FT = &core.FTOptions{Store: st, CheckpointEvery: ckptEvery, Resume: resume}
		}
		return mustRun(build.Spec{Builder: string(spec.Formulation), Procs: procs,
			Machine: spec.Machine, Options: o, Fault: plan}, d)
	}

	base := run(spec.Procs, nil, 0, false, nil)
	if base.Tree == nil {
		return nil, fmt.Errorf("experiments: baseline run of %s produced no tree", spec.Formulation)
	}
	baseTree, baseSec := base.Tree, base.World.MaxClock()

	var rows []MTTRRow
	for _, k := range spec.Intervals {
		// Fault-free run with durable checkpointing at interval k: the
		// steady-state cost of the mechanism.
		cleanDir, err := os.MkdirTemp("", "partree-mttr-*")
		if err != nil {
			return nil, err
		}
		cleanStore, err := fault.OpenDiskStore(cleanDir)
		if err != nil {
			return nil, err
		}
		clean := run(spec.Procs, cleanStore, k, false, nil)
		cleanStore.Close()
		os.RemoveAll(cleanDir)
		if clean.Tree == nil {
			return nil, fmt.Errorf("experiments: clean FT run of %s produced no tree", spec.Formulation)
		}
		cleanSec := clean.World.MaxClock()
		base := MTTRRow{
			Formulation: string(spec.Formulation),
			Interval:    k,
			HaltOp:      spec.HaltOp,
			Procs:       spec.Procs,
			BaselineSec: baseSec,
			CleanSec:    cleanSec,
			OverheadPct: 100 * (cleanSec - baseSec) / baseSec,
		}

		// In-place: one rank dies, survivors regroup inside the run.
		{
			dir, err := os.MkdirTemp("", "partree-mttr-*")
			if err != nil {
				return nil, err
			}
			st, err := fault.OpenDiskStore(dir)
			if err != nil {
				return nil, err
			}
			plan := fault.NewPlan(fault.CrashAt(1%spec.Procs, fault.CollStart, spec.HaltOp))
			inPlace := run(spec.Procs, st, k, false, plan)
			stats := st.Stats()
			io := st.DiskIO()
			st.Close()
			os.RemoveAll(dir)
			row := base
			row.Mode = "in-place"
			row.ResumeProcs = spec.Procs - 1
			row.MTTRSec = inPlace.World.MaxClock() - cleanSec
			row.CheckpointMB = float64(stats.Bytes) / 1e6
			row.RestoredMB = float64(stats.RestoredB) / 1e6
			row.DiskWrittenMB = float64(io.WrittenB) / 1e6
			row.TreeEqual = inPlace.Tree != nil && tree.Diff(baseTree, inPlace.Tree) == ""
			rows = append(rows, row)
		}

		// Restart and elastic: the whole process dies at the halt op; a
		// fresh process of P' ranks resumes from the durable cut.
		for _, p2 := range spec.ResumeProcs {
			if p2 < 1 || p2 > spec.Procs {
				continue
			}
			dir, err := os.MkdirTemp("", "partree-mttr-*")
			if err != nil {
				return nil, err
			}
			st, err := fault.OpenDiskStore(dir)
			if err != nil {
				return nil, err
			}
			var fs []fault.Fault
			for r := 0; r < spec.Procs; r++ {
				fs = append(fs, fault.CrashAt(r, fault.CollStart, spec.HaltOp))
			}
			halt := run(spec.Procs, st, k, false, fault.NewPlan(fs...))
			halted := st.Stats()
			haltedIO := st.DiskIO()
			st.Close()
			if dead := len(halt.World.DeadRanks()); dead != spec.Procs {
				os.RemoveAll(dir)
				return nil, fmt.Errorf("experiments: halt at op %d killed %d of %d ranks of %s — move HaltOp earlier",
					spec.HaltOp, dead, spec.Procs, spec.Formulation)
			}

			rst, err := fault.OpenDiskStore(dir)
			if err != nil {
				os.RemoveAll(dir)
				return nil, err
			}
			resumedRun := run(p2, rst, k, true, nil)
			resumed := rst.Stats()
			resumedIO := rst.DiskIO()
			rst.Close()
			os.RemoveAll(dir)

			row := base
			row.Mode = "restart"
			if p2 < spec.Procs {
				row.Mode = "elastic"
			}
			row.ResumeProcs = p2
			row.MTTRSec = resumedRun.World.MaxClock()
			row.CheckpointMB = float64(halted.Bytes) / 1e6
			row.RestoredMB = float64(resumed.RestoredB) / 1e6
			row.DiskWrittenMB = float64(haltedIO.WrittenB) / 1e6
			row.DiskReadMB = float64(resumedIO.ReadB) / 1e6
			row.TreeEqual = resumedRun.Tree != nil && tree.Diff(baseTree, resumedRun.Tree) == ""
			rows = append(rows, row)
		}
	}
	return rows, nil
}
