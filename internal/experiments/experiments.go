// Package experiments regenerates every figure of the paper's evaluation
// (§5) on the modeled machine: Figure 6 (speedup of the three
// formulations), Figure 7 (splitting-criterion ratio sweep), Figure 8
// (hybrid speedup across dataset sizes and up to 128 processors), Figure 9
// (scaleup with fixed per-processor load), plus the Table 1–3 golden data
// and an isoefficiency check of §4.3.
//
// All runtimes are modeled seconds on the configured Machine (SP-2-like by
// default): the in-process goroutine scheduling of the host plays no role,
// so the series are deterministic. Dataset sizes default to laptop-scale
// fractions of the paper's 0.8M/1.6M records and can be scaled up; the
// qualitative shapes (who wins, where curves bend) are preserved because
// they depend on the communication-to-computation ratio, not on absolute N
// (see EXPERIMENTS.md).
package experiments

import (
	"partree/internal/build"
	"partree/internal/core"
	"partree/internal/dataset"
	"partree/internal/discretize"
	"partree/internal/mp"
	"partree/internal/quest"
	"partree/internal/tree"
)

// Formulation names one of the paper's three parallel algorithms.
type Formulation string

// The three formulations of §3.
const (
	Sync        Formulation = "sync"
	Partitioned Formulation = "partitioned"
	Hybrid      Formulation = "hybrid"
)

// Spec describes one parallel training run.
type Spec struct {
	Formulation Formulation
	Records     int
	Function    int    // Quest classification function (paper: 2)
	Seed        uint64 // generator seed
	Procs       int
	// Continuous selects the Figure 8/9 configuration: raw continuous
	// attributes discretized per node by clustering. False selects the
	// Figure 6/7 configuration: the paper's uniform preprocessing
	// discretization.
	Continuous bool
	// Attrs widens the generated schema to this many attributes (the nine
	// paper attributes plus synthetic noise extras — quest.SchemaN). 0
	// keeps the original schema. The substrate of the voted-split sweep.
	Attrs   int
	Machine mp.Machine
	// Topology names the modeled interconnect (mp.NewTopology; "" =
	// hypercube). Only distinguishable when Machine.TH > 0.
	Topology string
	// Coll selects the collective algorithms (mp.ParseCollSpec syntax,
	// e.g. "auto" or "allreduce=ring"). "" keeps the historic defaults.
	Coll    string
	Options core.Options
	// Trace records the per-rank event timeline (Result.Events). The
	// per-phase breakdown is always collected; tracing never changes the
	// modeled clocks or the built tree.
	Trace bool
}

// withDefaults normalizes a spec.
func (s Spec) withDefaults() Spec {
	if s.Function == 0 {
		s.Function = 2
	}
	if s.Seed == 0 {
		s.Seed = 1998
	}
	if s.Procs == 0 {
		s.Procs = 1
	}
	if s.Machine == (mp.Machine{}) {
		s.Machine = mp.SP2()
	}
	s.Options.Tree.Binary = true // the paper uses binary splitting throughout
	s.Options = s.Options.WithDefaults()
	return s
}

// Result is the outcome of one run.
type Result struct {
	Spec           Spec
	ModeledSeconds float64
	Traffic        mp.Traffic
	Tree           tree.Stats
	// Breakdown is the per-phase × per-collective modeled accounting
	// summed over ranks; its totals equal Traffic's comm/comp times.
	Breakdown mp.Breakdown
	// Encoding is the per-phase adaptive reduction-encoding activity
	// (dense/sparse flush and message counts, bytes saved), summed over
	// ranks. Empty unless the run enables a sparse threshold
	// (Spec.Options.Tree.Reuse.SparseThreshold > 0).
	Encoding map[string]mp.EncodingStats
	// Events is the merged event timeline (only when Spec.Trace).
	Events []mp.TraceEvent
}

// Run executes one parallel training run: the Quest rows, optionally
// under the paper's uniform discretization, are block-partitioned over
// the ranks (rank r holds exactly the rows the serial generator puts in
// its block), the formulation builds the tree, and the modeled parallel
// runtime (max rank clock) is reported.
func Run(spec Spec) Result {
	res, _ := runTree(spec)
	return res
}

// runTree is Run, additionally returning the built (replicated) tree —
// the voted-split sweep needs it for holdout accuracy and exact-vs-voted
// comparison.
func runTree(spec Spec) (Result, *tree.Tree) {
	spec = spec.withDefaults()
	d := workload(quest.Config{Function: spec.Function, Seed: spec.Seed, Attrs: spec.Attrs}, 0, spec.Records, spec.Continuous)
	br := mustRun(build.Spec{
		Builder:  string(spec.Formulation),
		Procs:    spec.Procs,
		Machine:  spec.Machine,
		Topology: spec.Topology,
		Coll:     spec.Coll,
		Options:  spec.Options,
		Trace:    spec.Trace,
	}, d)
	w := br.World
	res := Result{
		Spec:           spec,
		ModeledSeconds: w.MaxClock(),
		Traffic:        w.Traffic(),
		Tree:           br.Tree.Stats(),
		Breakdown:      w.Breakdown(),
		Encoding:       w.EncodingByPhase(),
	}
	if spec.Trace {
		res.Events = w.Events()
	}
	return res, br.Tree
}

// workload generates rows [lo, hi) of the Quest stream, discretized with
// the paper's uniform preprocessing unless continuous.
func workload(cfg quest.Config, lo, hi int, continuous bool) *dataset.Dataset {
	d, err := quest.GenerateBlock(cfg, lo, hi)
	if err != nil {
		panic(err)
	}
	if !continuous {
		d = discretize.UniformPaper(d, quest.PaperBins(), quest.Ranges())
	}
	return d
}

// mustRun builds s on d; the experiments' specs are fixed, so an error is
// a bug.
func mustRun(s build.Spec, d *dataset.Dataset) build.Result {
	res, err := build.Run(s, d)
	if err != nil {
		panic(err)
	}
	return res
}

// SpeedupPoint is one point of a speedup curve.
type SpeedupPoint struct {
	P       int
	Seconds float64
	Speedup float64
}

// SpeedupSeries measures the modeled runtime of the formulation at each
// processor count and derives speedups against its own P=1 run (which has
// zero communication, i.e. the serial algorithm).
func SpeedupSeries(spec Spec, procs []int) []SpeedupPoint {
	out := make([]SpeedupPoint, 0, len(procs))
	var t1 float64
	s1 := spec
	s1.Procs = 1
	t1 = Run(s1).ModeledSeconds
	for _, p := range procs {
		sp := spec
		sp.Procs = p
		secs := t1
		if p != 1 {
			secs = Run(sp).ModeledSeconds
		}
		out = append(out, SpeedupPoint{P: p, Seconds: secs, Speedup: t1 / secs})
	}
	return out
}

// Fig6 reproduces Figure 6: speedup of the three formulations on the
// function-2 dataset with uniform discretization, for the given dataset
// sizes (paper: 0.8M and 1.6M) and processor counts (paper: 1..16).
func Fig6(records []int, procs []int, base Spec) map[int]map[Formulation][]SpeedupPoint {
	out := make(map[int]map[Formulation][]SpeedupPoint, len(records))
	for _, n := range records {
		out[n] = make(map[Formulation][]SpeedupPoint, 3)
		for _, f := range []Formulation{Sync, Partitioned, Hybrid} {
			spec := base
			spec.Formulation, spec.Records, spec.Continuous = f, n, false
			out[n][f] = SpeedupSeries(spec, procs)
		}
	}
	return out
}

// RatioPoint is one point of the Figure 7 sweep.
type RatioPoint struct {
	Ratio   float64
	Seconds float64
}

// Fig7 reproduces Figure 7: the hybrid's modeled runtime as the splitting
// criterion's trigger ratio varies (paper: minimum near ratio 1.0).
func Fig7(records, procs int, ratios []float64, base Spec) []RatioPoint {
	out := make([]RatioPoint, 0, len(ratios))
	for _, r := range ratios {
		spec := base
		spec.Formulation, spec.Records, spec.Procs, spec.Continuous = Hybrid, records, procs, false
		spec.Options.SplitRatio = r
		res := Run(spec)
		out = append(out, RatioPoint{Ratio: r, Seconds: res.ModeledSeconds})
	}
	return out
}

// Fig8 reproduces Figure 8: hybrid speedup with raw continuous attributes
// and per-node clustering discretization, one series per dataset size,
// processor counts up to 128.
func Fig8(records []int, procs []int, base Spec) map[int][]SpeedupPoint {
	out := make(map[int][]SpeedupPoint, len(records))
	for _, n := range records {
		spec := base
		spec.Formulation, spec.Records, spec.Continuous = Hybrid, n, true
		out[n] = SpeedupSeries(spec, procs)
	}
	return out
}

// ScaleupPoint is one point of the Figure 9 curve.
type ScaleupPoint struct {
	P       int
	Records int
	Seconds float64
}

// Fig9 reproduces Figure 9: runtime with a fixed number of examples per
// processor (paper: 50,000) as the processor count grows — ideally a
// horizontal line, with the θ(P log P) isoefficiency responsible for the
// residual slope.
func Fig9(perProc int, procs []int, base Spec) []ScaleupPoint {
	out := make([]ScaleupPoint, 0, len(procs))
	for _, p := range procs {
		spec := base
		spec.Formulation, spec.Records, spec.Procs, spec.Continuous = Hybrid, perProc*p, p, true
		res := Run(spec)
		out = append(out, ScaleupPoint{P: p, Records: perProc * p, Seconds: res.ModeledSeconds})
	}
	return out
}

// EfficiencyAt returns parallel efficiency T1/(P·TP) for the hybrid on n
// records and p processors — the §4.3 isoefficiency check grows n as
// θ(P log P) and expects this to hold roughly constant.
func EfficiencyAt(n, p int, base Spec) float64 {
	s1 := base
	s1.Formulation, s1.Records, s1.Procs = Hybrid, n, 1
	sp := base
	sp.Formulation, sp.Records, sp.Procs = Hybrid, n, p
	t1 := Run(s1).ModeledSeconds
	tp := Run(sp).ModeledSeconds
	return t1 / (float64(p) * tp)
}

// SamplingPoint is one point of the windowing/sampling motivation
// experiment.
type SamplingPoint struct {
	Fraction float64
	TrainN   int
	TestAcc  float64
}

// Sampling reproduces the argument of the paper's introduction (refs
// [24, 5–7]): training a tree on a sample of the data does not reach the
// accuracy of training on all of it — which is why scalable parallel
// induction matters. A perturbed function-2 dataset (imperfectly
// learnable, like real data) is split into train/test; trees are trained
// on growing fractions of the training part and evaluated on the same
// held-out records.
func Sampling(records int, fractions []float64, seed uint64) []SamplingPoint {
	cfg := quest.Config{Function: 2, Seed: seed, Perturbation: 0.15}
	full, err := quest.Generate(cfg, records)
	if err != nil {
		panic(err)
	}
	cut := records * 3 / 4
	train, test := full.Slice(0, cut), full.Slice(cut, records)
	out := make([]SamplingPoint, 0, len(fractions))
	for _, f := range fractions {
		n := int(float64(train.Len()) * f)
		if n < 2 {
			n = 2
		}
		sub := train.Slice(0, n)
		t := tree.BuildHunt(sub, tree.Options{Binary: true})
		tree.Prune(t, tree.DefaultPruneZ)
		out = append(out, SamplingPoint{Fraction: f, TrainN: n, TestAcc: t.Accuracy(test)})
	}
	return out
}
