// Command experiments regenerates the paper's evaluation figures and
// tables on the modeled machine and prints them as aligned text series
// matching the paper's axes.
//
// Usage:
//
//	experiments [flags] phases|fig6|fig7|fig8|fig9|iso|isocomm|tables|sampling|compare|recovery|mttr|vote|all
//
// The phases experiment (also selected by -stats/-trace alone) prints the
// per-phase × per-collective modeled-cost breakdown of every formulation;
// -trace out.jsonl additionally exports the event timelines as JSONL.
//
// Dataset sizes default to laptop-scale fractions of the paper's (0.8M /
// 1.6M records); use -scale to grow them (e.g. -scale 16 reproduces the
// paper's sizes exactly, at a proportional cost in wall-clock time).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"partree/internal/build"
	"partree/internal/core"
	"partree/internal/criteria"
	"partree/internal/dataset"
	"partree/internal/experiments"
	"partree/internal/kernel"
	"partree/internal/mp"
	"partree/internal/quest"
	"partree/internal/tree"
)

// env is one invocation's flag values and the writer every experiment
// prints to.
type env struct {
	out      io.Writer
	scale    float64
	maxProcs int
	seed     uint64
	function int
	traceOut string
	reuse    bool
	topology string
	collAlgo string
	hopLat   float64
	isoMaxP  int
	isoOut   string
	mttrN    int
	mttrOut  string
}

// experimentsByName maps each experiment name to its method.
var experimentsByName = map[string]func(*env) error{
	"phases":   (*env).phases,
	"fig6":     (*env).fig6,
	"fig7":     (*env).fig7,
	"fig8":     (*env).fig8,
	"fig9":     (*env).fig9,
	"iso":      (*env).iso,
	"isocomm":  (*env).isocomm,
	"tables":   (*env).tables,
	"sampling": (*env).sampling,
	"compare":  (*env).compare,
	"recovery": (*env).recovery,
	"mttr":     (*env).mttr,
	"vote":     (*env).vote,
	"all":      (*env).all,
}

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	var f flagError
	if err != nil && !errors.Is(err, flag.ErrHelp) && !errors.As(err, &f) {
		fmt.Fprintln(os.Stderr, "experiments:", err)
	}
	os.Exit(exitCode(err))
}

// usageError is a rejected command line. It is returned before any
// experiment runs.
type usageError string

func (e usageError) Error() string { return string(e) }

// flagError is a command line the flag package rejected; the flag package
// has already printed the error and the usage.
type flagError struct{ error }

// exitCode is the process status for run's result: 0 on success or -h,
// 2 for a rejected command line (as the flag package's own ExitOnError
// handling would), 1 for any other failure.
func exitCode(err error) int {
	var u usageError
	var f flagError
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, &u), errors.As(err, &f):
		return 2
	}
	return 1
}

// run parses args and runs the named experiments in order, printing to
// stdout; flag errors and the usage go to stderr. Every name is checked
// before the first experiment runs.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	e := &env{out: stdout}
	fs.Float64Var(&e.scale, "scale", 1.0, "dataset size multiplier (16 = the paper's 0.8M/1.6M records)")
	fs.IntVar(&e.maxProcs, "maxprocs", 16, "largest processor count for fig6")
	fs.Uint64Var(&e.seed, "seed", 1998, "generator seed")
	fs.IntVar(&e.function, "function", 2, "Quest classification function (paper: 2)")
	stats := fs.Bool("stats", false, "print the per-phase × per-collective breakdown (runs `phases` when no experiment is named)")
	fs.StringVar(&e.traceOut, "trace", "", "write the `phases` event timelines as JSONL to this file")
	fs.BoolVar(&e.reuse, "reuse", false, "enable sibling-subtraction histogram reuse and sparse reduction encoding in every run")
	fs.StringVar(&e.topology, "topology", "", "interconnect model: hypercube|flat|ring|torus|fattree (default hypercube; only priced when -hop-latency > 0)")
	fs.StringVar(&e.collAlgo, "coll-algo", "", "collective algorithms: default|auto|rdbl|ring|rhd|red+bcast, or coll=algo pairs like allreduce=ring,bcast=scatter-ag")
	fs.Float64Var(&e.hopLat, "hop-latency", 0, "per-hop routing latency t_h in seconds (0 keeps the Equation 2 cut-through model)")
	fs.IntVar(&e.isoMaxP, "iso-maxprocs", 4096, "largest modeled rank count of the isocomm sweep")
	fs.StringVar(&e.isoOut, "iso-out", "BENCH_comm.json", "output path of the isocomm artifact")
	fs.IntVar(&e.mttrN, "mttr-records", 8000, "training cases of the MTTR sweep")
	fs.StringVar(&e.mttrOut, "mttr-out", "BENCH_recovery.json", "output path of the MTTR artifact")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return flagError{err}
	}
	names := fs.Args()
	if len(names) == 0 {
		if *stats || e.traceOut != "" {
			names = []string{"phases"}
		} else {
			names = []string{"all"}
		}
	}
	for _, name := range names {
		if experimentsByName[name] == nil {
			return usageError(fmt.Sprintf("unknown experiment %q (want phases|fig6|fig7|fig8|fig9|iso|isocomm|tables|sampling|compare|recovery|mttr|vote|all)", name))
		}
	}
	for _, name := range names {
		if err := experimentsByName[name](e); err != nil {
			return err
		}
	}
	return nil
}

// all runs the paper's figures and tables and the comparison and
// recovery experiments (isocomm, mttr and vote run only by name).
func (e *env) all() error {
	for _, f := range []func() error{e.tables, e.fig6, e.fig7, e.fig8, e.fig9, e.iso, e.sampling, e.compare, e.recovery} {
		if err := f(); err != nil {
			return err
		}
	}
	return nil
}

func (e *env) n(base int) int { return int(float64(base) * e.scale) }

func (e *env) baseSpec() experiments.Spec {
	s := experiments.Spec{Function: e.function, Seed: e.seed,
		Topology: e.topology, Coll: e.collAlgo, Machine: mp.SP2().WithHopLatency(e.hopLat)}
	if e.reuse {
		s.Options.Tree.Reuse = kernel.ReuseAll()
	}
	return s
}

func procsUpTo(max int) []int {
	var out []int
	for p := 1; p <= max; p *= 2 {
		out = append(out, p)
	}
	return out
}

// phases prints the per-phase × per-collective modeled-cost breakdown of
// all three formulations on a common workload — the observability view
// the figure experiments are interpreted through (which phase pays for
// which collective, and how the split shifts between formulations). With
// -trace, the merged per-rank event timelines are exported as JSONL, one
// object per event, each carrying the formulation under "run".
func (e *env) phases() error {
	records, procs := e.n(20000), 8
	var f *os.File
	if e.traceOut != "" {
		var err error
		if f, err = os.Create(e.traceOut); err != nil {
			return err
		}
		defer f.Close()
	}
	total := 0
	for _, form := range []experiments.Formulation{experiments.Sync, experiments.Partitioned, experiments.Hybrid} {
		spec := e.baseSpec()
		spec.Formulation, spec.Records, spec.Procs = form, records, procs
		spec.Trace = f != nil
		res := experiments.Run(spec)
		fmt.Fprintf(e.out, "\n== %s: per-phase / per-collective modeled breakdown (%d records, %d processors) ==\n", form, records, procs)
		fmt.Fprintf(e.out, "modeled time %.3fs; rank-summed comm %.3fs / comp %.3fs\n",
			res.ModeledSeconds, res.Traffic.CommTime, res.Traffic.CompTime)
		fmt.Fprint(e.out, res.Breakdown.Table())
		if len(res.Encoding) > 0 {
			fmt.Fprintln(e.out, "\nper-phase reduction encoding (rank-summed):")
			fmt.Fprint(e.out, mp.EncodingTable(res.Encoding))
		}
		if f != nil {
			enc := json.NewEncoder(f)
			for _, ev := range res.Events {
				line := struct {
					Run string `json:"run"`
					mp.TraceEvent
				}{Run: string(form), TraceEvent: ev}
				if err := enc.Encode(line); err != nil {
					return err
				}
			}
			total += len(res.Events)
		}
	}
	if f != nil {
		fmt.Fprintf(e.out, "\ntrace: %d events written to %s\n", total, e.traceOut)
	}
	return nil
}

func (e *env) fig6() error {
	sizes := []int{e.n(50000), e.n(100000)}
	procs := procsUpTo(e.maxProcs)
	fmt.Fprintf(e.out, "\n== Figure 6: speedup of the three parallel formulations (function %d, uniform discretization) ==\n", e.function)
	res := experiments.Fig6(sizes, procs, e.baseSpec())
	for _, size := range sizes {
		fmt.Fprintf(e.out, "\n-- %d training cases --\n", size)
		fmt.Fprintf(e.out, "%6s  %12s %12s %12s\n", "procs", "sync", "partitioned", "hybrid")
		for i, p := range procs {
			fmt.Fprintf(e.out, "%6d  %12.2f %12.2f %12.2f\n", p,
				res[size][experiments.Sync][i].Speedup,
				res[size][experiments.Partitioned][i].Speedup,
				res[size][experiments.Hybrid][i].Speedup)
		}
	}
	return nil
}

func (e *env) fig7() error {
	ratios := []float64{0.25, 0.5, 1, 2, 4}
	fmt.Fprintf(e.out, "\n== Figure 7: hybrid splitting-criterion verification (runtime vs. trigger ratio) ==\n")
	for _, cfg := range []struct {
		records, procs int
	}{{e.n(50000), 8}, {e.n(100000), 16}} {
		fmt.Fprintf(e.out, "\n-- %d training cases on %d processors --\n", cfg.records, cfg.procs)
		fmt.Fprintf(e.out, "%8s  %14s\n", "ratio", "modeled sec")
		for _, pt := range experiments.Fig7(cfg.records, cfg.procs, ratios, e.baseSpec()) {
			fmt.Fprintf(e.out, "%8.2f  %14.3f\n", pt.Ratio, pt.Seconds)
		}
	}
	return nil
}

func (e *env) fig8() error {
	sizes := []int{e.n(16000), e.n(32000), e.n(64000)}
	procs := procsUpTo(128)
	fmt.Fprintf(e.out, "\n== Figure 8: hybrid speedup, continuous attributes with per-node clustering ==\n")
	res := experiments.Fig8(sizes, procs, e.baseSpec())
	fmt.Fprintf(e.out, "%6s", "procs")
	for _, size := range sizes {
		fmt.Fprintf(e.out, "  %10s", fmt.Sprintf("N=%d", size))
	}
	fmt.Fprintln(e.out)
	for i, p := range procs {
		fmt.Fprintf(e.out, "%6d", p)
		for _, size := range sizes {
			fmt.Fprintf(e.out, "  %10.2f", res[size][i].Speedup)
		}
		fmt.Fprintln(e.out)
	}
	return nil
}

func (e *env) fig9() error {
	perProc := e.n(10000)
	procs := procsUpTo(64)
	fmt.Fprintf(e.out, "\n== Figure 9: scaleup (%d examples per processor) ==\n", perProc)
	fmt.Fprintf(e.out, "%6s %10s %14s\n", "procs", "records", "modeled sec")
	for _, pt := range experiments.Fig9(perProc, procs, e.baseSpec()) {
		fmt.Fprintf(e.out, "%6d %10d %14.3f\n", pt.P, pt.Records, pt.Seconds)
	}
	return nil
}

func (e *env) iso() error {
	fmt.Fprintf(e.out, "\n== Isoefficiency check (§4.3): efficiency when N grows as P·log2(P) ==\n")
	fmt.Fprintf(e.out, "%6s %10s %12s\n", "procs", "records", "efficiency")
	base := e.n(8000)
	for _, p := range []int{2, 4, 8, 16, 32} {
		log2 := 0
		for q := p; q > 1; q >>= 1 {
			log2++
		}
		records := base * p * log2 / 2
		eff := experiments.EfficiencyAt(records, p, e.baseSpec())
		fmt.Fprintf(e.out, "%6d %10d %12.3f\n", p, records, eff)
	}
	return nil
}

// isocomm writes the analytic isoefficiency sweep of the communication
// substrate (internal/experiments/isocomm.go) as JSON — the committed
// BENCH_comm.json artifact — and prints a summary table. -hop-latency
// overrides the default 10 µs t_h; -iso-maxprocs bounds the sweep (the
// CI smoke step regenerates only the smallest configuration).
func (e *env) isocomm() error {
	m, n0, statsElems, attrs := experiments.IsoCommDefaults()
	if e.hopLat != 0 {
		m = m.WithHopLatency(e.hopLat)
	}
	topos := mp.TopologyNames()
	algos := []mp.Algo{mp.AlgoDefault, mp.AlgoAuto, mp.AlgoRing, mp.AlgoRecHalving}
	art := experiments.IsoCommSweep(e.isoMaxP, m, n0, statsElems, attrs, topos, algos)
	data, err := art.MarshalIndent()
	if err != nil {
		return err
	}
	if err := os.WriteFile(e.isoOut, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(e.out, "\n== Isoefficiency of the communication substrate: N = n0·P·log2(P), modeled ranks up to %d ==\n", e.isoMaxP)
	fmt.Fprintf(e.out, "(t_h = %.0f µs; comm ratio = per-level allreduce / per-level tabulation — the hybrid splits above 1.0)\n\n", m.TH*1e6)
	fmt.Fprintf(e.out, "%-10s %-10s %-10s %8s %12s %14s %12s %12s\n",
		"topology", "algo", "resolved", "procs", "records", "allreduce ms", "efficiency", "comm ratio")
	for _, r := range art.Rows {
		if r.Algo != string(mp.AlgoDefault) && r.Algo != string(mp.AlgoAuto) {
			continue // full grid is in the JSON; print the headline selections
		}
		fmt.Fprintf(e.out, "%-10s %-10s %-10s %8d %12d %14.3f %12.3f %12.3f\n",
			r.Topology, r.Algo, r.Resolved, r.P, r.Records, r.AllreduceSec*1e3, r.Efficiency, r.CommRatio)
	}
	fmt.Fprintf(e.out, "\nartifact: %d rows written to %s\n", len(art.Rows), e.isoOut)
	return nil
}

func (e *env) sampling() error {
	n := e.n(16000)
	fmt.Fprintf(e.out, "\n== Sampling motivation (paper introduction, refs [24, 5-7]): test accuracy vs. training sample ==\n")
	fmt.Fprintf(e.out, "%10s %10s %14s\n", "fraction", "trained on", "test accuracy")
	for _, pt := range experiments.Sampling(n, []float64{0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0}, e.seed) {
		fmt.Fprintf(e.out, "%10.2f %10d %14.4f\n", pt.Fraction, pt.TrainN, pt.TestAcc)
	}
	return nil
}

// compare pits the related-work parallel classifiers (§2.2) against the
// paper's hybrid on the same modeled machine and workload.
func (e *env) compare() error {
	records := e.n(20000)
	fmt.Fprintf(e.out, "\n== §2.2 comparison on %d records: hybrid vs. parallel SPRINT vs. ScalParC vs. DP-att ==\n", records)
	fmt.Fprintf(e.out, "%-16s %6s %14s %14s %14s\n", "algorithm", "procs", "modeled sec", "comm MB", "peak hash")
	raw, err := quest.Generate(quest.Config{Function: e.function, Seed: e.seed}, records)
	if err != nil {
		return err
	}
	o := core.Options{Tree: tree.Options{Binary: true, MaxDepth: 10}}
	for _, p := range []int{8, 16} {
		// The paper's hybrid (uniform discretization, like Figure 6).
		res := experiments.Run(experiments.Spec{Formulation: experiments.Hybrid, Records: records, Procs: p,
			Options: core.Options{Tree: tree.Options{MaxDepth: 10}}})
		fmt.Fprintf(e.out, "%-16s %6d %14.3f %14.2f %14s\n", "hybrid", p, res.ModeledSeconds, float64(res.Traffic.Bytes)/1e6, "-")

		for _, name := range []string{"parallel-sprint", "scalparc", "vertical"} {
			br, err := build.Run(build.Spec{Builder: name, Procs: p, Options: o}, raw)
			if err != nil {
				return err
			}
			w := br.World
			peak, label := fmt.Sprint(br.HashPeak), name
			if name == "vertical" {
				peak, label = "-", "dp-att"
			}
			fmt.Fprintf(e.out, "%-16s %6d %14.3f %14.2f %14s\n", label, p, w.MaxClock(), float64(w.Traffic().Bytes)/1e6, peak)
		}
	}
	return nil
}

// recovery measures the fault-tolerance overhead of each formulation: the
// modeled time without checkpointing, with checkpointing but no fault,
// and with a seeded mid-build crash plus recovery, alongside the
// checkpoint traffic and the PhaseRecovery breakdown row (the modeled
// cost of regrouping survivors, restoring checkpoints and re-spreading
// the lost rank's records).
func (e *env) recovery() error {
	records, procs := e.n(20000), 8
	fmt.Fprintf(e.out, "\n== Recovery overhead: crash of rank 2 mid-build, %d records on %d processors ==\n", records, procs)
	fmt.Fprintf(e.out, "%-12s %10s %10s %10s %8s %8s %10s %12s %6s\n",
		"formulation", "base sec", "ckpt sec", "fault sec", "ckpts", "ckpt MB", "restore MB", "recovery sec", "tree=")
	for _, form := range []experiments.Formulation{experiments.Sync, experiments.Partitioned, experiments.Hybrid} {
		res := experiments.RunRecovery(experiments.RecoverySpec{
			Formulation: form, Records: records, Function: e.function, Seed: e.seed,
			Procs: procs, CrashRank: 2, CrashOp: 4,
		})
		eq := "no"
		if res.TreeEqual {
			eq = "yes"
		}
		fmt.Fprintf(e.out, "%-12s %10.3f %10.3f %10.3f %8d %8.2f %10.2f %12.3f %6s\n",
			form, res.BaselineSeconds, res.CleanSeconds, res.FaultSeconds,
			res.Checkpoints, res.CheckpointMB, res.RestoredMB,
			res.Recovery.CommTime+res.Recovery.CompTime, eq)
	}
	return nil
}

// mttr sweeps mean-time-to-recovery across recovery modes (in-place,
// process restart, elastic restart at P' < P), checkpoint intervals and
// survivor counts on durable disk-backed stores, writes the committed
// BENCH_recovery.json artifact, and prints the table. Every row's
// recovered tree is diffed against the fault-free baseline.
func (e *env) mttr() error {
	spec := experiments.MTTRSpec{Records: e.mttrN, Function: e.function, Seed: e.seed}
	var art experiments.RecoveryBench
	m := mp.SP2().WithDiskRate(5e-8)
	art.Machine.TS, art.Machine.TW, art.Machine.TC, art.Machine.TOp, art.Machine.TD =
		m.TS, m.TW, m.TC, m.TOp, m.TD
	art.Records, art.Function, art.Seed, art.Procs = e.mttrN, e.function, e.seed, 4

	// The halt op must land while every rank is still in a collective —
	// the partitioned formulation's rank 0 finishes its own subtree in
	// fewer global ops than the lockstep formulations.
	halts := map[experiments.Formulation]int{
		experiments.Sync: 5, experiments.Partitioned: 3, experiments.Hybrid: 5,
	}
	fmt.Fprintf(e.out, "\n== MTTR sweep: recovery mode x checkpoint interval x survivors (%d records, 4 processors) ==\n", e.mttrN)
	fmt.Fprintf(e.out, "%-12s %9s %-9s %4s %10s %10s %9s %10s %10s %6s\n",
		"formulation", "interval", "mode", "P'", "base sec", "ckpt sec", "ovhd %", "MTTR sec", "disk MB", "tree=")
	for _, form := range []experiments.Formulation{experiments.Sync, experiments.Partitioned, experiments.Hybrid} {
		s := spec
		s.Formulation = form
		s.HaltOp = halts[form]
		rows, err := experiments.RunMTTR(s)
		if err != nil {
			return err
		}
		for _, r := range rows {
			eq := "no"
			if r.TreeEqual {
				eq = "yes"
			}
			fmt.Fprintf(e.out, "%-12s %9d %-9s %4d %10.3f %10.3f %9.2f %10.3f %10.2f %6s\n",
				r.Formulation, r.Interval, r.Mode, r.ResumeProcs,
				r.BaselineSec, r.CleanSec, r.OverheadPct, r.MTTRSec, r.DiskWrittenMB, eq)
		}
		art.Rows = append(art.Rows, rows...)
	}
	data, err := art.MarshalIndent()
	if err != nil {
		return err
	}
	if err := os.WriteFile(e.mttrOut, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(e.out, "\nartifact: %d rows written to %s\n", len(art.Rows), e.mttrOut)
	return nil
}

// vote evaluates voted (top-k) split selection. First the exactness
// boundary differential: on every formulation, discrete and continuous,
// with a non-power-of-two and a power-of-two rank count, a build with
// k ≥ the attribute count must be bit-identical to the exact build —
// same tree, same modeled clock, same per-phase breakdown. Then the
// accuracy-vs-communication sweep over wide schemas: how much reduction
// volume k ∈ {1,2,4,8} saves against exact, and what it costs in holdout
// accuracy, per attribute count and depth budget.
func (e *env) vote() error {
	records := e.n(8000)
	fmt.Fprintf(e.out, "\n== Voted split selection: exactness boundary (k >= attrs is bit-identical to exact) ==\n")
	fmt.Fprintf(e.out, "%-12s %6s %6s %6s %12s %10s\n", "formulation", "attrs", "procs", "cont", "modeled sec", "identical")
	okAll := true
	for _, form := range []experiments.Formulation{experiments.Sync, experiments.Partitioned, experiments.Hybrid} {
		for _, cont := range []bool{false, true} {
			for _, p := range []int{3, 8} {
				spec := e.baseSpec()
				spec.Formulation, spec.Records, spec.Procs, spec.Continuous = form, e.n(4000), p, cont
				spec.Attrs = 24
				spec.Options.Tree.MaxDepth = 8
				ex, _, same := experiments.VoteIdentity(spec)
				okAll = okAll && same
				fmt.Fprintf(e.out, "%-12s %6d %6d %6v %12.3f %10v\n", form, spec.Attrs, p, cont, ex.ModeledSeconds, same)
			}
		}
	}
	if !okAll {
		return errors.New("vote: exactness boundary violated — a k >= attrs build diverged from exact")
	}

	fmt.Fprintf(e.out, "\n== Voted split selection: accuracy vs. communication (sync, %d records, 8 processors) ==\n", records)
	ks := []int{1, 2, 4, 8}
	for _, depth := range []int{6, 12} {
		spec := e.baseSpec()
		spec.Formulation, spec.Records, spec.Procs, spec.Continuous = experiments.Sync, records, 8, true
		spec.Options.Tree.MaxDepth = depth
		fmt.Fprintf(e.out, "\n-- depth limit %d --\n", depth)
		fmt.Fprintf(e.out, "%6s %6s %10s %10s %8s %6s %10s %10s\n",
			"attrs", "k", "comm MB", "vs exact", "nodes", "depth", "test acc", "identical")
		for _, pts := range [][]experiments.VotePoint{
			experiments.VoteSweep(spec, []int{64}, ks, 4000),
			experiments.VoteSweep(spec, []int{256}, ks, 4000),
		} {
			exactMB := pts[0].MB
			for _, pt := range pts {
				k := fmt.Sprintf("%d", pt.K)
				if pt.K == 0 {
					k = "exact"
				}
				fmt.Fprintf(e.out, "%6d %6s %10.2f %9.1fx %8d %6d %10.4f %10v\n",
					pt.Attrs, k, pt.MB, exactMB/pt.MB, pt.Nodes, pt.Depth, pt.TestAcc, pt.Identical)
			}
		}
	}
	return nil
}

func (e *env) tables() error {
	w := dataset.Weather()
	s := w.Schema
	fmt.Fprintln(e.out, "== Table 1: the weather training set ==")
	if err := dataset.WriteCSV(e.out, w); err != nil {
		return err
	}

	fmt.Fprintln(e.out, "\n== Table 2: class distribution of attribute Outlook at the root ==")
	h := criteria.HistFor(w.Cat[0], w.Class, w.AllIndex(), s.Attrs[0].Cardinality(), s.NumClasses())
	fmt.Fprintf(e.out, "%-10s %6s %12s\n", "value", "Play", "Don't Play")
	for v, name := range s.Attrs[0].Values {
		fmt.Fprintf(e.out, "%-10s %6d %12d\n", name, h.Row(v)[0], h.Row(v)[1])
	}

	fmt.Fprintln(e.out, "\n== Table 3: class distribution of binary tests on Humidity ==")
	stats := criteria.ContinuousDistribution(w.Cont[2], w.Class, s.NumClasses())
	sort.Slice(stats, func(a, b int) bool { return stats[a].Value < stats[b].Value })
	fmt.Fprintf(e.out, "%8s  %6s %6s   %6s %6s\n", "value", "<=P", "<=DP", ">P", ">DP")
	for _, st := range stats {
		fmt.Fprintf(e.out, "%8g  %6d %6d   %6d %6d\n", st.Value, st.LE[0], st.LE[1], st.GT[0], st.GT[1])
	}

	fmt.Fprintln(e.out, "\n== Figure 1: Hunt's method final tree on Table 1 ==")
	t := tree.BuildHunt(w, tree.Options{})
	fmt.Fprint(e.out, t.String())
	return nil
}
