// Command experiments regenerates the paper's evaluation figures and
// tables on the modeled machine and prints them as aligned text series
// matching the paper's axes.
//
// Usage:
//
//	experiments [flags] phases|fig6|fig7|fig8|fig9|iso|tables|vote|all
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
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

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

var (
	scale    = flag.Float64("scale", 1.0, "dataset size multiplier (16 = the paper's 0.8M/1.6M records)")
	maxProcs = flag.Int("maxprocs", 16, "largest processor count for fig6")
	seed     = flag.Uint64("seed", 1998, "generator seed")
	function = flag.Int("function", 2, "Quest classification function (paper: 2)")
	stats    = flag.Bool("stats", false, "print the per-phase × per-collective breakdown (runs `phases` when no experiment is named)")
	traceOut = flag.String("trace", "", "write the `phases` event timelines as JSONL to this file")
	reuse    = flag.Bool("reuse", false, "enable sibling-subtraction histogram reuse and sparse reduction encoding in every run")
	topology = flag.String("topology", "", "interconnect model: hypercube|flat|ring|torus|fattree (default hypercube; only priced when -hop-latency > 0)")
	collAlgo = flag.String("coll-algo", "", "collective algorithms: default|auto|rdbl|ring|rhd|red+bcast, or coll=algo pairs like allreduce=ring,bcast=scatter-ag")
	hopLat   = flag.Float64("hop-latency", 0, "per-hop routing latency t_h in seconds (0 keeps the Equation 2 cut-through model)")
	isoMaxP  = flag.Int("iso-maxprocs", 4096, "largest modeled rank count of the isocomm sweep")
	isoOut   = flag.String("iso-out", "BENCH_comm.json", "output path of the isocomm artifact")
	mttrN    = flag.Int("mttr-records", 8000, "training cases of the MTTR sweep")
	mttrOut  = flag.String("mttr-out", "BENCH_recovery.json", "output path of the MTTR artifact")
)

func main() {
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		if *stats || *traceOut != "" {
			args = []string{"phases"}
		} else {
			args = []string{"all"}
		}
	}
	for _, cmd := range args {
		switch cmd {
		case "phases":
			phases()
		case "fig6":
			fig6()
		case "fig7":
			fig7()
		case "fig8":
			fig8()
		case "fig9":
			fig9()
		case "iso":
			iso()
		case "isocomm":
			isocomm()
		case "tables":
			tables()
		case "sampling":
			sampling()
		case "compare":
			compare()
		case "recovery":
			recovery()
		case "mttr":
			mttr()
		case "vote":
			vote()
		case "all":
			tables()
			fig6()
			fig7()
			fig8()
			fig9()
			iso()
			sampling()
			compare()
			recovery()
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q (want phases|fig6|fig7|fig8|fig9|iso|isocomm|tables|sampling|compare|recovery|mttr|vote|all)\n", cmd)
			os.Exit(2)
		}
	}
}

func n(base int) int { return int(float64(base) * *scale) }

func baseSpec() experiments.Spec {
	s := experiments.Spec{Function: *function, Seed: *seed,
		Topology: *topology, Coll: *collAlgo, Machine: mp.SP2().WithHopLatency(*hopLat)}
	if *reuse {
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
func phases() {
	records, procs := n(20000), 8
	var f *os.File
	if *traceOut != "" {
		var err error
		if f, err = os.Create(*traceOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
	}
	total := 0
	for _, form := range []experiments.Formulation{experiments.Sync, experiments.Partitioned, experiments.Hybrid} {
		spec := baseSpec()
		spec.Formulation, spec.Records, spec.Procs = form, records, procs
		spec.Trace = f != nil
		res := experiments.Run(spec)
		fmt.Printf("\n== %s: per-phase / per-collective modeled breakdown (%d records, %d processors) ==\n", form, records, procs)
		fmt.Printf("modeled time %.3fs; rank-summed comm %.3fs / comp %.3fs\n",
			res.ModeledSeconds, res.Traffic.CommTime, res.Traffic.CompTime)
		fmt.Print(res.Breakdown.Table())
		if len(res.Encoding) > 0 {
			fmt.Println("\nper-phase reduction encoding (rank-summed):")
			fmt.Print(mp.EncodingTable(res.Encoding))
		}
		if f != nil {
			enc := json.NewEncoder(f)
			for _, e := range res.Events {
				line := struct {
					Run string `json:"run"`
					mp.TraceEvent
				}{Run: string(form), TraceEvent: e}
				if err := enc.Encode(line); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
			}
			total += len(res.Events)
		}
	}
	if f != nil {
		fmt.Printf("\ntrace: %d events written to %s\n", total, *traceOut)
	}
}

func fig6() {
	sizes := []int{n(50000), n(100000)}
	procs := procsUpTo(*maxProcs)
	fmt.Printf("\n== Figure 6: speedup of the three parallel formulations (function %d, uniform discretization) ==\n", *function)
	res := experiments.Fig6(sizes, procs, baseSpec())
	for _, size := range sizes {
		fmt.Printf("\n-- %d training cases --\n", size)
		fmt.Printf("%6s  %12s %12s %12s\n", "procs", "sync", "partitioned", "hybrid")
		for i, p := range procs {
			fmt.Printf("%6d  %12.2f %12.2f %12.2f\n", p,
				res[size][experiments.Sync][i].Speedup,
				res[size][experiments.Partitioned][i].Speedup,
				res[size][experiments.Hybrid][i].Speedup)
		}
	}
}

func fig7() {
	ratios := []float64{0.25, 0.5, 1, 2, 4}
	fmt.Printf("\n== Figure 7: hybrid splitting-criterion verification (runtime vs. trigger ratio) ==\n")
	for _, cfg := range []struct {
		records, procs int
	}{{n(50000), 8}, {n(100000), 16}} {
		fmt.Printf("\n-- %d training cases on %d processors --\n", cfg.records, cfg.procs)
		fmt.Printf("%8s  %14s\n", "ratio", "modeled sec")
		for _, pt := range experiments.Fig7(cfg.records, cfg.procs, ratios, baseSpec()) {
			fmt.Printf("%8.2f  %14.3f\n", pt.Ratio, pt.Seconds)
		}
	}
}

func fig8() {
	sizes := []int{n(16000), n(32000), n(64000)}
	procs := procsUpTo(128)
	fmt.Printf("\n== Figure 8: hybrid speedup, continuous attributes with per-node clustering ==\n")
	res := experiments.Fig8(sizes, procs, baseSpec())
	fmt.Printf("%6s", "procs")
	for _, size := range sizes {
		fmt.Printf("  %10s", fmt.Sprintf("N=%d", size))
	}
	fmt.Println()
	for i, p := range procs {
		fmt.Printf("%6d", p)
		for _, size := range sizes {
			fmt.Printf("  %10.2f", res[size][i].Speedup)
		}
		fmt.Println()
	}
}

func fig9() {
	perProc := n(10000)
	procs := procsUpTo(64)
	fmt.Printf("\n== Figure 9: scaleup (%d examples per processor) ==\n", perProc)
	fmt.Printf("%6s %10s %14s\n", "procs", "records", "modeled sec")
	for _, pt := range experiments.Fig9(perProc, procs, baseSpec()) {
		fmt.Printf("%6d %10d %14.3f\n", pt.P, pt.Records, pt.Seconds)
	}
}

func iso() {
	fmt.Printf("\n== Isoefficiency check (§4.3): efficiency when N grows as P·log2(P) ==\n")
	fmt.Printf("%6s %10s %12s\n", "procs", "records", "efficiency")
	base := n(8000)
	for _, p := range []int{2, 4, 8, 16, 32} {
		log2 := 0
		for q := p; q > 1; q >>= 1 {
			log2++
		}
		records := base * p * log2 / 2
		e := experiments.EfficiencyAt(records, p, baseSpec())
		fmt.Printf("%6d %10d %12.3f\n", p, records, e)
	}
}

// isocomm writes the analytic isoefficiency sweep of the communication
// substrate (internal/experiments/isocomm.go) as JSON — the committed
// BENCH_comm.json artifact — and prints a summary table. -hop-latency
// overrides the default 10 µs t_h; -iso-maxprocs bounds the sweep (the
// CI smoke step regenerates only the smallest configuration).
func isocomm() {
	m, n0, statsElems, attrs := experiments.IsoCommDefaults()
	if *hopLat != 0 {
		m = m.WithHopLatency(*hopLat)
	}
	topos := mp.TopologyNames()
	algos := []mp.Algo{mp.AlgoDefault, mp.AlgoAuto, mp.AlgoRing, mp.AlgoRecHalving}
	art := experiments.IsoCommSweep(*isoMaxP, m, n0, statsElems, attrs, topos, algos)
	data, err := art.MarshalIndent()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := os.WriteFile(*isoOut, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("\n== Isoefficiency of the communication substrate: N = n0·P·log2(P), modeled ranks up to %d ==\n", *isoMaxP)
	fmt.Printf("(t_h = %.0f µs; comm ratio = per-level allreduce / per-level tabulation — the hybrid splits above 1.0)\n\n", m.TH*1e6)
	fmt.Printf("%-10s %-10s %-10s %8s %12s %14s %12s %12s\n",
		"topology", "algo", "resolved", "procs", "records", "allreduce ms", "efficiency", "comm ratio")
	for _, r := range art.Rows {
		if r.Algo != string(mp.AlgoDefault) && r.Algo != string(mp.AlgoAuto) {
			continue // full grid is in the JSON; print the headline selections
		}
		fmt.Printf("%-10s %-10s %-10s %8d %12d %14.3f %12.3f %12.3f\n",
			r.Topology, r.Algo, r.Resolved, r.P, r.Records, r.AllreduceSec*1e3, r.Efficiency, r.CommRatio)
	}
	fmt.Printf("\nartifact: %d rows written to %s\n", len(art.Rows), *isoOut)
}

func sampling() {
	n := n(16000)
	fmt.Printf("\n== Sampling motivation (paper introduction, refs [24, 5-7]): test accuracy vs. training sample ==\n")
	fmt.Printf("%10s %10s %14s\n", "fraction", "trained on", "test accuracy")
	for _, pt := range experiments.Sampling(n, []float64{0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0}, *seed) {
		fmt.Printf("%10.2f %10d %14.4f\n", pt.Fraction, pt.TrainN, pt.TestAcc)
	}
}

// compare pits the related-work parallel classifiers (§2.2) against the
// paper's hybrid on the same modeled machine and workload.
func compare() {
	records := n(20000)
	fmt.Printf("\n== §2.2 comparison on %d records: hybrid vs. parallel SPRINT vs. ScalParC vs. DP-att ==\n", records)
	fmt.Printf("%-16s %6s %14s %14s %14s\n", "algorithm", "procs", "modeled sec", "comm MB", "peak hash")
	raw, err := quest.Generate(quest.Config{Function: *function, Seed: *seed}, records)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	o := core.Options{Tree: tree.Options{Binary: true, MaxDepth: 10}}
	for _, p := range []int{8, 16} {
		// The paper's hybrid (uniform discretization, like Figure 6).
		res := experiments.Run(experiments.Spec{Formulation: experiments.Hybrid, Records: records, Procs: p,
			Options: core.Options{Tree: tree.Options{MaxDepth: 10}}})
		fmt.Printf("%-16s %6d %14.3f %14.2f %14s\n", "hybrid", p, res.ModeledSeconds, float64(res.Traffic.Bytes)/1e6, "-")

		for _, name := range []string{"parallel-sprint", "scalparc", "vertical"} {
			br, err := build.Run(build.Spec{Builder: name, Procs: p, Options: o}, raw)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			w := br.World
			peak, label := fmt.Sprint(br.HashPeak), name
			if name == "vertical" {
				peak, label = "-", "dp-att"
			}
			fmt.Printf("%-16s %6d %14.3f %14.2f %14s\n", label, p, w.MaxClock(), float64(w.Traffic().Bytes)/1e6, peak)
		}
	}
}

// recovery measures the fault-tolerance overhead of each formulation: the
// modeled time without checkpointing, with checkpointing but no fault,
// and with a seeded mid-build crash plus recovery, alongside the
// checkpoint traffic and the PhaseRecovery breakdown row (the modeled
// cost of regrouping survivors, restoring checkpoints and re-spreading
// the lost rank's records).
func recovery() {
	records, procs := n(20000), 8
	fmt.Printf("\n== Recovery overhead: crash of rank 2 mid-build, %d records on %d processors ==\n", records, procs)
	fmt.Printf("%-12s %10s %10s %10s %8s %8s %10s %12s %6s\n",
		"formulation", "base sec", "ckpt sec", "fault sec", "ckpts", "ckpt MB", "restore MB", "recovery sec", "tree=")
	for _, form := range []experiments.Formulation{experiments.Sync, experiments.Partitioned, experiments.Hybrid} {
		res := experiments.RunRecovery(experiments.RecoverySpec{
			Formulation: form, Records: records, Function: *function, Seed: *seed,
			Procs: procs, CrashRank: 2, CrashOp: 4,
		})
		eq := "no"
		if res.TreeEqual {
			eq = "yes"
		}
		fmt.Printf("%-12s %10.3f %10.3f %10.3f %8d %8.2f %10.2f %12.3f %6s\n",
			form, res.BaselineSeconds, res.CleanSeconds, res.FaultSeconds,
			res.Checkpoints, res.CheckpointMB, res.RestoredMB,
			res.Recovery.CommTime+res.Recovery.CompTime, eq)
	}
}

// mttr sweeps mean-time-to-recovery across recovery modes (in-place,
// process restart, elastic restart at P' < P), checkpoint intervals and
// survivor counts on durable disk-backed stores, writes the committed
// BENCH_recovery.json artifact, and prints the table. Every row's
// recovered tree is diffed against the fault-free baseline.
func mttr() {
	spec := experiments.MTTRSpec{Records: *mttrN, Function: *function, Seed: *seed}
	var art experiments.RecoveryBench
	m := mp.SP2().WithDiskRate(5e-8)
	art.Machine.TS, art.Machine.TW, art.Machine.TC, art.Machine.TOp, art.Machine.TD =
		m.TS, m.TW, m.TC, m.TOp, m.TD
	art.Records, art.Function, art.Seed, art.Procs = *mttrN, *function, *seed, 4

	// The halt op must land while every rank is still in a collective —
	// the partitioned formulation's rank 0 finishes its own subtree in
	// fewer global ops than the lockstep formulations.
	halts := map[experiments.Formulation]int{
		experiments.Sync: 5, experiments.Partitioned: 3, experiments.Hybrid: 5,
	}
	fmt.Printf("\n== MTTR sweep: recovery mode x checkpoint interval x survivors (%d records, 4 processors) ==\n", *mttrN)
	fmt.Printf("%-12s %9s %-9s %4s %10s %10s %9s %10s %10s %6s\n",
		"formulation", "interval", "mode", "P'", "base sec", "ckpt sec", "ovhd %", "MTTR sec", "disk MB", "tree=")
	for _, form := range []experiments.Formulation{experiments.Sync, experiments.Partitioned, experiments.Hybrid} {
		s := spec
		s.Formulation = form
		s.HaltOp = halts[form]
		rows, err := experiments.RunMTTR(s)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for _, r := range rows {
			eq := "no"
			if r.TreeEqual {
				eq = "yes"
			}
			fmt.Printf("%-12s %9d %-9s %4d %10.3f %10.3f %9.2f %10.3f %10.2f %6s\n",
				r.Formulation, r.Interval, r.Mode, r.ResumeProcs,
				r.BaselineSec, r.CleanSec, r.OverheadPct, r.MTTRSec, r.DiskWrittenMB, eq)
		}
		art.Rows = append(art.Rows, rows...)
	}
	data, err := art.MarshalIndent()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := os.WriteFile(*mttrOut, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("\nartifact: %d rows written to %s\n", len(art.Rows), *mttrOut)
}

// vote evaluates voted (top-k) split selection. First the exactness
// boundary differential: on every formulation, discrete and continuous,
// with a non-power-of-two and a power-of-two rank count, a build with
// k ≥ the attribute count must be bit-identical to the exact build —
// same tree, same modeled clock, same per-phase breakdown. Then the
// accuracy-vs-communication sweep over wide schemas: how much reduction
// volume k ∈ {1,2,4,8} saves against exact, and what it costs in holdout
// accuracy, per attribute count and depth budget.
func vote() {
	records := n(8000)
	fmt.Printf("\n== Voted split selection: exactness boundary (k >= attrs is bit-identical to exact) ==\n")
	fmt.Printf("%-12s %6s %6s %6s %12s %10s\n", "formulation", "attrs", "procs", "cont", "modeled sec", "identical")
	okAll := true
	for _, form := range []experiments.Formulation{experiments.Sync, experiments.Partitioned, experiments.Hybrid} {
		for _, cont := range []bool{false, true} {
			for _, p := range []int{3, 8} {
				spec := baseSpec()
				spec.Formulation, spec.Records, spec.Procs, spec.Continuous = form, n(4000), p, cont
				spec.Attrs = 24
				spec.Options.Tree.MaxDepth = 8
				ex, _, same := experiments.VoteIdentity(spec)
				okAll = okAll && same
				fmt.Printf("%-12s %6d %6d %6v %12.3f %10v\n", form, spec.Attrs, p, cont, ex.ModeledSeconds, same)
			}
		}
	}
	if !okAll {
		fmt.Fprintln(os.Stderr, "vote: exactness boundary violated — a k >= attrs build diverged from exact")
		os.Exit(1)
	}

	fmt.Printf("\n== Voted split selection: accuracy vs. communication (sync, %d records, 8 processors) ==\n", records)
	ks := []int{1, 2, 4, 8}
	for _, depth := range []int{6, 12} {
		spec := baseSpec()
		spec.Formulation, spec.Records, spec.Procs, spec.Continuous = experiments.Sync, records, 8, true
		spec.Options.Tree.MaxDepth = depth
		fmt.Printf("\n-- depth limit %d --\n", depth)
		fmt.Printf("%6s %6s %10s %10s %8s %6s %10s %10s\n",
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
				fmt.Printf("%6d %6s %10.2f %9.1fx %8d %6d %10.4f %10v\n",
					pt.Attrs, k, pt.MB, exactMB/pt.MB, pt.Nodes, pt.Depth, pt.TestAcc, pt.Identical)
			}
		}
	}
}

func tables() {
	w := dataset.Weather()
	s := w.Schema
	fmt.Println("== Table 1: the weather training set ==")
	var sb strings.Builder
	if err := dataset.WriteCSV(&sb, w); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Print(sb.String())

	fmt.Println("\n== Table 2: class distribution of attribute Outlook at the root ==")
	h := criteria.HistFor(w.Cat[0], w.Class, w.AllIndex(), s.Attrs[0].Cardinality(), s.NumClasses())
	fmt.Printf("%-10s %6s %12s\n", "value", "Play", "Don't Play")
	for v, name := range s.Attrs[0].Values {
		fmt.Printf("%-10s %6d %12d\n", name, h.Row(v)[0], h.Row(v)[1])
	}

	fmt.Println("\n== Table 3: class distribution of binary tests on Humidity ==")
	stats := criteria.ContinuousDistribution(w.Cont[2], w.Class, s.NumClasses())
	sort.Slice(stats, func(a, b int) bool { return stats[a].Value < stats[b].Value })
	fmt.Printf("%8s  %6s %6s   %6s %6s\n", "value", "<=P", "<=DP", ">P", ">DP")
	for _, st := range stats {
		fmt.Printf("%8g  %6d %6d   %6d %6d\n", st.Value, st.LE[0], st.LE[1], st.GT[0], st.GT[1])
	}

	fmt.Println("\n== Figure 1: Hunt's method final tree on Table 1 ==")
	t := tree.BuildHunt(w, tree.Options{})
	fmt.Print(t.String())
}
