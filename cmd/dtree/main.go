// Command dtree trains and evaluates a classification decision tree with
// any builder of the build registry: the serial builders (hunt =
// depth-first C4.5 style, bfs = breadth-first reference, sprint and sliq
// = pre-sorted attribute lists) or the multi-rank ones (the paper's sync,
// partitioned and hybrid formulations, scalparc and parallel-sprint, and
// the attribute-partitioned vertical) on a modeled P-processor machine.
//
// Data comes from a Quest-schema CSV written by dtgen (-data; raw or
// -discretize'd rows) or is generated on the fly (-n/-function/-seed); a
// column store directory (dtgen -ooc) trains out-of-core with any
// builder. A holdout fraction measures test accuracy. For multi-rank
// builders the modeled runtime, speedup ingredients and message traffic
// are reported; -stats adds the per-phase × per-collective modeled-cost
// breakdown and -trace exports the deterministic per-rank event timeline
// as JSONL.
//
// With -forest N an ensemble of N trees is trained instead — bagged
// bootstrap samples (disable with -no-bootstrap), optional random
// feature subspaces (-feature-frac), majority or accuracy-weighted
// voting — using -algo as the member builder. The ensemble is evaluated
// through the fused flat-forest serving layout and saved with -save as a
// forest-JSON file dtserve can load.
//
// Examples:
//
//	dtree -n 50000 -algo hybrid -procs 16
//	dtgen -n 20000 -o train.csv && dtree -data train.csv -algo sprint -prune
//	dtree -n 50000 -algo hunt -forest 100 -feature-frac 0.7 -save grove.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"partree/internal/build"
	"partree/internal/core"
	"partree/internal/criteria"
	"partree/internal/dataset"
	"partree/internal/discretize"
	"partree/internal/fault"
	"partree/internal/forest"
	"partree/internal/kernel"
	"partree/internal/mp"
	"partree/internal/predict"
	"partree/internal/quest"
	"partree/internal/serve"
	"partree/internal/tree"
)

// options is everything dtree's flags decide.
type options struct {
	spec build.Spec

	data, trace, save, load, ckptDir string
	n, function, attrs, rules        int
	seed                             uint64
	holdout                          float64
	ooc, disc, prune, print          bool
	importance, flat, stats          bool

	// Ensemble mode; trees == 0 trains a single tree.
	trees, workers int
	vote           forest.VoteMode
	featFrac       float64
	bootstrap      bool
}

// parseFlags turns dtree's command line into options; the build.Spec it
// carries has passed Validate. With -ckpt-dir its core.FTOptions has no
// store yet: the caller opens the directory.
func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("dtree", flag.ContinueOnError)
	fs.StringVar(&o.data, "data", "", "Quest-schema CSV file or column store directory (default: generate)")
	fs.IntVar(&o.n, "n", 50000, "records to generate when no -data")
	fs.IntVar(&o.function, "function", 2, "Quest classification function")
	fs.Uint64Var(&o.seed, "seed", 1998, "generator seed")
	fs.IntVar(&o.attrs, "attrs", 0, "widen the schema to this many attributes (0 = the 9 paper attributes; extras are synthetic noise)")
	algo := fs.String("algo", "hybrid", strings.Join(build.Names(), "|"))
	procs := fs.Int("procs", 8, "modeled processors (multi-rank builders)")
	crit := fs.String("criterion", "entropy", "entropy|gini")
	binary := fs.Bool("binary", true, "binary splits (as in the paper's experiments)")
	maxDepth := fs.Int("maxdepth", 0, "depth limit (0 = grow to purity)")
	minSplit := fs.Int("minsplit", 2, "minimum records to split a node")
	fs.BoolVar(&o.prune, "prune", false, "apply pessimistic pruning after building")
	fs.Float64Var(&o.holdout, "holdout", 0.2, "fraction of records held out for test accuracy")
	fs.BoolVar(&o.print, "print", false, "print the tree")
	fs.StringVar(&o.save, "save", "", "write the trained model as JSON to this file")
	fs.StringVar(&o.load, "load", "", "skip training; load a JSON model and evaluate it")
	fs.IntVar(&o.rules, "rules", 0, "print the top-N extracted rules")
	fs.BoolVar(&o.importance, "importance", false, "print split-based feature importance")
	fs.BoolVar(&o.disc, "discretize", true, "uniform pre-discretization for multi-rank builders (false = per-node clustering)")
	reuse := fs.Bool("reuse", false, "enable sibling-subtraction histogram reuse and sparse reduction encoding")
	voteK := fs.Int("vote-k", 0, "voted split selection: each rank nominates its top-k attributes per election group and only the ≤2k elected candidates reduce full histograms (0 = exact; k ≥ attribute count is also exact)")
	sparse := fs.Float64("sparse", kernel.DefaultSparseThreshold, "density threshold for sparse reduction encoding (with -reuse; 0 keeps reductions dense)")
	fs.BoolVar(&o.stats, "stats", false, "print the per-phase × per-collective modeled-cost breakdown (multi-rank builders)")
	fs.StringVar(&o.trace, "trace", "", "write the modeled per-rank event timeline as JSONL to this file (multi-rank builders)")
	fs.BoolVar(&o.flat, "flat", false, "evaluate through the compiled flat tree and the batched parallel engine")
	faultSpec := fs.String("fault", "", "inject a fault (multi-rank builders): crash:RANK:OP | delay:RANK:OP:SECONDS | drop:RANK:SEND | halt:OP | torn:RANK:SAVE | bitflip:RANK:SAVE:BIT | random:SEED")
	recoverFT := fs.Bool("recover", false, "checkpoint at level/partition boundaries and recover from injected faults (sync|partitioned|hybrid|scalparc|parallel-sprint)")
	fs.StringVar(&o.ckptDir, "ckpt-dir", "", "durable checkpoint directory (implies -recover); survives the process for -resume")
	resumeFT := fs.Bool("resume", false, "resume from the last committed checkpoint in -ckpt-dir (possibly with fewer -procs than the crashed run)")
	topology := fs.String("topology", "", "interconnect model: hypercube|flat|ring|torus|fattree (default hypercube; only priced when -hop-latency > 0)")
	collAlgo := fs.String("coll-algo", "", "collective algorithms: default|auto|rdbl|ring|rhd|red+bcast, or coll=algo pairs like allreduce=ring,bcast=scatter-ag")
	hopLat := fs.Float64("hop-latency", 0, "per-hop routing latency t_h in seconds (0 = cut-through, all topologies price identically)")
	diskRate := fs.Float64("disk-rate", 0, "modeled per-byte disk transfer time t_d in seconds (out-of-core reads and durable checkpoints; 0 keeps historic clocks)")

	fs.IntVar(&o.trees, "forest", 0, "train a bagged ensemble of this many trees with -algo as the member builder (0 = single tree)")
	vote := fs.String("vote", "majority", "forest vote aggregation: majority|weighted (weighted uses member train accuracy)")
	fs.Float64Var(&o.featFrac, "feature-frac", 1, "fraction of attributes each forest member may split on (random subspace)")
	noSample := fs.Bool("no-bootstrap", false, "train every forest member on the full data instead of a bootstrap sample")
	fs.IntVar(&o.workers, "forest-workers", 0, "concurrent member builds (0 = GOMAXPROCS; the forest is identical for any value)")

	ooc := fs.Bool("ooc", false, "train out-of-core: -data must be a column store directory (dtgen -ooc); implied when -data is one")
	if err := fs.Parse(args); err != nil {
		return o, err
	}

	topts := tree.Options{Binary: *binary, MaxDepth: *maxDepth, MinSplit: *minSplit}
	switch *crit {
	case "entropy":
		topts.Criterion = criteria.Entropy
	case "gini":
		topts.Criterion = criteria.Gini
	default:
		return o, fmt.Errorf("unknown criterion %q", *crit)
	}
	if *reuse {
		topts.Reuse = kernel.Options{Subtraction: true, SparseThreshold: *sparse}
	}
	if *voteK < 0 {
		return o, fmt.Errorf("-vote-k must be ≥ 0, got %d", *voteK)
	}
	topts.Vote = kernel.VoteOptions{K: *voteK}
	switch *vote {
	case "majority":
		o.vote = forest.Majority
	case "weighted":
		o.vote = forest.Weighted
	default:
		return o, fmt.Errorf("unknown -vote %q (want majority|weighted)", *vote)
	}
	o.bootstrap = !*noSample
	o.ooc = *ooc || (o.data != "" && dataset.IsStoreDir(o.data))

	o.spec = build.Spec{
		Builder:  *algo,
		Procs:    *procs,
		Machine:  mp.SP2().WithHopLatency(*hopLat).WithDiskRate(*diskRate),
		Topology: *topology,
		Coll:     *collAlgo,
		Options:  core.Options{Tree: topts},
		Trace:    o.trace != "",
	}
	if *faultSpec != "" {
		plan, err := parseFault(*faultSpec, *procs)
		if err != nil {
			return o, err
		}
		o.spec.Fault = plan
	}
	switch {
	case o.ckptDir != "":
		o.spec.Options.FT = &core.FTOptions{Resume: *resumeFT}
	case *recoverFT:
		o.spec.Options.FT = &core.FTOptions{Store: fault.NewStore()}
	case *resumeFT:
		return o, errors.New("-resume needs -ckpt-dir (the checkpoints of the crashed run)")
	}
	return o, o.spec.Validate()
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dtree:", err)
		os.Exit(2)
	}
	if o.ooc {
		runOOC(o)
		return
	}

	full, err := load(o.data, o.n, o.function, o.seed, o.attrs)
	if err != nil {
		fatal(err)
	}
	cut := full.Len() - int(float64(full.Len())*o.holdout)
	train, test := full.Slice(0, cut), full.Slice(cut, full.Len())

	if o.trees > 0 {
		runForest(o, train, test)
		return
	}

	algo := o.spec.Builder
	var t *tree.Tree
	if o.load != "" {
		f, err := os.Open(o.load)
		if err != nil {
			fatal(err)
		}
		t, err = tree.ReadJSON(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		algo = "loaded:" + o.load
	} else {
		t = trainTree(o, train)
	}

	if o.prune {
		removed := tree.Prune(t, tree.DefaultPruneZ)
		fmt.Printf("pruned %d internal nodes\n", removed)
	}
	st := t.Stats()
	fmt.Printf("algorithm      %s\n", algo)
	fmt.Printf("training cases %d\n", train.Len())
	fmt.Printf("tree           %d nodes, %d leaves, depth %d\n", st.Nodes, st.Leaves, st.MaxDepth)
	eval := accuracyOn
	if o.flat {
		var done func()
		eval, done = flatEvaluator(t)
		defer done()
	}
	fmt.Printf("train accuracy %.4f\n", eval(t, train))
	if test.Len() > 0 {
		fmt.Printf("test accuracy  %.4f (holdout %d)\n", eval(t, test), test.Len())
	}
	if o.print {
		fmt.Print(t.String())
	}
	if o.rules > 0 {
		rs := t.Rules()
		if len(rs) > o.rules {
			rs = rs[:o.rules]
		}
		fmt.Println("top rules:")
		for _, r := range rs {
			fmt.Println("  " + r.String())
		}
	}
	if o.importance {
		fmt.Println("feature importance:")
		for a, v := range t.Importance() {
			if v > 0 {
				fmt.Printf("  %-12s %.3f\n", t.Schema.Attrs[a].Name, v)
			}
		}
	}
	if o.save != "" {
		save(o.save, "model", func(w io.Writer) error { return tree.WriteJSON(w, t) })
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dtree:", err)
	os.Exit(1)
}

// save writes a model with write, then its checksum sidecar.
func save(path, what string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := write(f); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	if err := serve.WriteChecksumFile(path); err != nil {
		fatal(err)
	}
	fmt.Printf("%s saved to %s (checksum sidecar %s%s)\n", what, path, path, serve.ChecksumSuffix)
}

// runForest trains, evaluates and optionally saves a bagged ensemble.
// Any builder can grow members (the multi-rank formulations run their
// modeled worlds per member); evaluation routes through the fused
// flat-forest layout — the serving path.
func runForest(o options, train, test *dataset.Dataset) {
	cfg := forest.Config{
		Trees:           o.trees,
		Builder:         o.spec.Builder,
		Procs:           o.spec.Procs,
		Seed:            o.seed,
		Bootstrap:       o.bootstrap,
		FeatureFraction: o.featFrac,
		Vote:            o.vote,
		Tree:            o.spec.Options.Tree,
		Workers:         o.workers,
	}
	if b, _ := build.Lookup(o.spec.Builder); b.MultiRank {
		if o.disc {
			train = uniform(train)
		} else {
			cfg.MicroBins = 32
			cfg.NodeBins = 6
		}
	}

	start := time.Now()
	f, err := forest.Train(train, cfg)
	if err != nil {
		fatal(err)
	}
	trainSecs := time.Since(start).Seconds()
	if cfg.Vote == forest.Weighted {
		for m, t := range f.Trees {
			f.Weights[m] = t.Accuracy(train)
		}
	}
	fz, err := forest.Compile(f)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("algorithm      forest(%s) x%d, %s vote\n", cfg.Builder, cfg.Trees, f.Vote)
	fmt.Printf("training cases %d (bootstrap %v, feature fraction %g)\n", train.Len(), cfg.Bootstrap, cfg.FeatureFraction)
	fmt.Printf("trained in     %.2fs wall\n", trainSecs)
	fmt.Printf("fused forest   %d trees, %d nodes, %d leaves\n", fz.Trees(), fz.Nodes(), fz.Leaves())
	fmt.Printf("train accuracy %.4f\n", fz.Accuracy(recode(fz.Schema, train)))
	if test.Len() > 0 {
		fmt.Printf("test accuracy  %.4f (holdout %d)\n", fz.Accuracy(recode(fz.Schema, test)), test.Len())
	}

	if o.save != "" {
		save(o.save, "forest", func(w io.Writer) error { return forest.WriteJSON(w, f) })
	}
}

// recode recodes raw rows under the paper's uniform discretization when
// the model was trained on pre-discretized rows (its schema differs).
func recode(model *dataset.Schema, d *dataset.Dataset) *dataset.Dataset {
	if model.NumContinuous() != d.Schema.NumContinuous() {
		d = uniform(d)
	}
	return d
}

// uniform applies the paper's uniform discretization to raw Quest rows.
// Rows that already carry it (a dtgen -discretize file) pass unchanged.
func uniform(d *dataset.Dataset) *dataset.Dataset {
	if d.Schema.Attrs[quest.Salary].Kind != dataset.Continuous {
		return d
	}
	return discretize.UniformPaper(d, quest.PaperBins(), quest.Ranges())
}

// trainTree grows the tree from resident rows (multi-rank builders on
// -discretize'd rows), checkpointing to -ckpt-dir if set.
func trainTree(o options, train *dataset.Dataset) *tree.Tree {
	if b, _ := build.Lookup(o.spec.Builder); b.MultiRank && o.disc {
		train = uniform(train)
	}
	if o.ckptDir != "" {
		dst, err := fault.OpenDiskStore(o.ckptDir)
		if err != nil {
			fatal(err)
		}
		defer dst.Close()
		if o.spec.Fault != nil {
			dst.SetFaultPlan(o.spec.Fault)
		}
		o.spec.Options.FT.Store = dst
	}
	res, err := build.Run(o.spec, train)
	return finish(o, res, err, false)
}

// finish reports a build and returns its tree, exiting on a failed
// build: a detected fault the build did not recover from, an unsupported
// spec, or no surviving rank.
func finish(o options, res build.Result, err error, ooc bool) *tree.Tree {
	var fe *fault.Error
	var ue *build.UnsupportedError
	switch {
	case errors.As(err, &fe):
		fmt.Fprintf(os.Stderr, "dtree: fault detected and build aborted (run with -recover to survive it): %v\n", err)
		os.Exit(1)
	case errors.As(err, &ue):
		fmt.Fprintln(os.Stderr, "dtree:", err)
		os.Exit(2)
	case err != nil:
		fatal(err)
	}
	if res.World != nil {
		report(o, res.World, ooc)
	}
	if res.Tree == nil {
		fatal(errors.New("no surviving rank produced a tree"))
	}
	return res.Tree
}

// report prints a multi-rank build's modeled run: time and traffic, the
// disk reads of an out-of-core build, fired faults, checkpoint traffic,
// and the -stats breakdown and -trace timeline.
func report(o options, w *mp.World, ooc bool) {
	tr := w.Traffic()
	fmt.Printf("modeled time   %.3fs on %d processors (SP-2-like machine)\n", w.MaxClock(), o.spec.Procs)
	fmt.Printf("traffic        %d messages, %.2f MB, comm %.2fs / comp %.2fs (rank-summed)\n",
		tr.Msgs, float64(tr.Bytes)/1e6, tr.CommTime, tr.CompTime)
	if ooc {
		fmt.Printf("disk (modeled) %.2f MB read, %.3fs at t_d=%g (rank-summed)\n",
			float64(tr.DiskBytes)/1e6, tr.DiskTime, o.spec.Machine.TD)
	}
	if o.spec.Fault != nil {
		for _, ev := range w.Faults() {
			fmt.Printf("fault          %v\n", ev)
		}
		if dead := w.DeadRanks(); len(dead) > 0 {
			fmt.Printf("dead ranks     %v (build recovered on the %d survivors)\n", dead, o.spec.Procs-len(dead))
		}
	}
	if ft := o.spec.Options.FT; ft != nil {
		s := ft.Store.Stats()
		fmt.Printf("checkpoints    %d saved (%.2f MB), %d restored (%.2f MB)\n",
			s.Checkpoints, float64(s.Bytes)/1e6, s.Restores, float64(s.RestoredB)/1e6)
		if rec := w.Breakdown().Phase(core.PhaseRecovery); rec.Calls > 0 || rec.CommTime > 0 {
			fmt.Printf("recovery cost  comm %.3fs / comp %.3fs over %d collective calls (rank-summed)\n",
				rec.CommTime, rec.CompTime, rec.Calls)
		}
		if dst, ok := ft.Store.(*fault.DiskStore); ok {
			io := dst.DiskIO()
			fmt.Printf("ckpt store     %s: %.2f MB written, %.2f MB read back, %d fsyncs\n",
				dst.Dir(), float64(io.WrittenB)/1e6, float64(io.ReadB)/1e6, io.Syncs)
			for _, note := range dst.Notes() {
				fmt.Printf("ckpt note      %s\n", note)
			}
		}
	}
	if o.stats {
		fmt.Println("\nper-phase / per-collective modeled breakdown (rank-summed seconds):")
		fmt.Print(w.Breakdown().Table())
		if enc := w.EncodingByPhase(); len(enc) > 0 {
			fmt.Println("\nper-phase reduction encoding (rank-summed):")
			fmt.Print(mp.EncodingTable(enc))
		}
	}
	if o.trace != "" {
		if err := writeTrace(o.trace, w.Events()); err != nil {
			fatal(err)
		}
		fmt.Printf("trace          %d events written to %s\n", len(w.Events()), o.trace)
	}
}

func accuracyOn(t *tree.Tree, d *dataset.Dataset) float64 { return t.Accuracy(recode(t.Schema, d)) }

// flatEvaluator compiles the tree once, as the one-member fused table
// dtserve serves it from, and returns an accuracy function that routes
// every dataset through the batched parallel engine (the serving path),
// printing the compiled shape and per-batch throughput. done stops the
// engine's worker pool; the accuracy function must not be called after it.
func flatEvaluator(t *tree.Tree) (eval func(*tree.Tree, *dataset.Dataset) float64, done func()) {
	fz, err := forest.Compile(&forest.Forest{Schema: t.Schema, Trees: []*tree.Tree{t}})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("flat tree      %d nodes compiled (%d leaves)\n", fz.Nodes(), fz.Leaves())
	pool := predict.NewPool(0)
	eng := predict.NewBatchEngine(pool, fz, fz.Schema)
	return func(_ *tree.Tree, d *dataset.Dataset) float64 {
		d = recode(t.Schema, d)
		out := make([]int32, d.Len())
		before := eng.Stats()
		if err := eng.PredictBatch(d, out); err != nil {
			fatal(err)
		}
		after := eng.Stats()
		ok := 0
		for i, c := range out {
			if c == d.Class[i] {
				ok++
			}
		}
		ms := float64(after.WallNS-before.WallNS) / 1e6
		if ms > 0 {
			fmt.Printf("flat batch     %d rows in %.2fms (%.0f rows/s)\n",
				d.Len(), ms, float64(d.Len())/(ms/1e3))
		}
		if d.Len() == 0 {
			return 0
		}
		return float64(ok) / float64(d.Len())
	}, pool.Close
}

// load generates the rows, or reads a CSV of raw Quest rows or of the
// paper-discretized rows dtgen -discretize writes. A file whose first row
// does not read as raw is read as discretized; if that fails too, the
// error of the reading that got further is reported.
func load(path string, n, fn int, seed uint64, attrs int) (*dataset.Dataset, error) {
	if path == "" {
		return quest.Generate(quest.Config{Function: fn, Seed: seed, Attrs: attrs}, n)
	}
	raw := quest.SchemaN(attrs)
	d, rows, err := readCSV(path, raw)
	if err != nil && rows == 0 {
		binned := discretize.UniformPaperRecoder(raw, quest.PaperBins(), quest.Ranges()).Schema()
		if bd, brows, berr := readCSV(path, binned); berr == nil || brows > 0 {
			return bd, berr
		}
	}
	return d, err
}

// readCSV reads the CSV file at path under schema s and returns the rows
// read before any error.
func readCSV(path string, s *dataset.Schema) (*dataset.Dataset, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	d := dataset.New(s, 0)
	rows, err := dataset.ReadCSVTo(f, s, d)
	return d, rows, err
}

// runOOC trains from an on-disk column store with bounded resident
// memory. Every builder runs: the streaming ones keep only a slot vector
// resident, the others materialize their rows (or, on a world, their
// rank's block) through the chunk interface; multi-rank reads are charged
// to the modeled disk cost class.
func runOOC(o options) {
	if o.data == "" || !dataset.IsStoreDir(o.data) {
		fmt.Fprintln(os.Stderr, "dtree: -ooc requires -data pointing at a column store directory (write one with dtgen -ooc)")
		os.Exit(2)
	}
	store, err := dataset.OpenStore(o.data)
	if err != nil {
		fatal(err)
	}
	defer store.Close()
	cut := store.Len() - int(float64(store.Len())*o.holdout)
	train := dataset.SectionOf(store, 0, cut)
	test := dataset.SectionOf(store, cut, store.Len())

	if o.spec.Builder == "bfs" && store.Schema().NumContinuous() > 0 {
		// The in-RAM bfs sorts each node's rows for exact continuous
		// splits; a streaming pass cannot, so it bins per node like the
		// parallel formulations.
		fmt.Fprintln(os.Stderr, "dtree: continuous attributes are discretized per node out-of-core (as in sync); in-RAM bfs uses exact splits")
	}
	res, err := build.RunTable(o.spec, train)
	t := finish(o, res, err, true)

	st := t.Stats()
	fmt.Printf("algorithm      %s (out-of-core)\n", o.spec.Builder)
	fmt.Printf("training cases %d (store %s, %d chunks of %d rows)\n", train.Len(), o.data, store.NumChunks(), store.ChunkRows())
	fmt.Printf("tree           %d nodes, %d leaves, depth %d\n", st.Nodes, st.Leaves, st.MaxDepth)
	trainAcc, err := t.AccuracyTable(train)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("train accuracy %.4f\n", trainAcc)
	if test.Len() > 0 {
		testAcc, err := t.AccuracyTable(test)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("test accuracy  %.4f (holdout %d)\n", testAcc, test.Len())
	}
	fmt.Printf("store reads    %.2f MB encoded\n", float64(store.ReadBytes())/1e6)
	if o.save != "" {
		save(o.save, "model", func(w io.Writer) error { return tree.WriteJSON(w, t) })
	}
}

// parseFault turns the -fault spec into a plan for a world of procs ranks.
func parseFault(spec string, procs int) (*fault.Plan, error) {
	part := strings.Split(spec, ":")
	form, ok := map[string]string{"crash": "RANK:OP", "delay": "RANK:OP:SECONDS", "drop": "RANK:SEND",
		"halt": "OP", "torn": "RANK:SAVE", "bitflip": "RANK:SAVE:BIT", "random": "SEED"}[part[0]]
	if !ok {
		return nil, fmt.Errorf("unknown -fault kind %q (want crash|delay|drop|halt|torn|bitflip|random)", part[0])
	}
	if len(part) != strings.Count(form, ":")+2 {
		return nil, fmt.Errorf("-fault %s wants %s:%s, got %q", part[0], part[0], form, spec)
	}
	n := make([]int, len(part))
	for i := 1; i < len(part); i++ {
		if part[0] == "delay" && i == 3 {
			continue // SECONDS
		}
		v, err := strconv.Atoi(part[i])
		if err != nil {
			return nil, fmt.Errorf("bad -fault field %q", part[i])
		}
		n[i] = v
	}
	switch part[0] {
	case "crash":
		return fault.NewPlan(fault.CrashAt(n[1], fault.CollStart, n[2])), nil
	case "delay":
		secs, err := strconv.ParseFloat(part[3], 64)
		if err != nil {
			return nil, fmt.Errorf("-fault delay seconds: %v", err)
		}
		return fault.NewPlan(fault.DelayAt(n[1], fault.CollStart, n[2], secs)), nil
	case "drop":
		return fault.NewPlan(fault.DropAt(n[1], n[2], fault.AnyTag)), nil
	case "halt":
		// Crash every rank at the same operation index: in the lockstep
		// collective schedule all ranks die deterministically mid-build,
		// modeling a whole-process kill. The durable checkpoints survive
		// for a later -resume run.
		var fs []fault.Fault
		for r := 0; r < procs; r++ {
			fs = append(fs, fault.CrashAt(r, fault.CollStart, n[1]))
		}
		return fault.NewPlan(fs...), nil
	case "torn":
		return fault.NewPlan(fault.TornWriteAt(n[1], n[2])), nil
	case "bitflip":
		return fault.NewPlan(fault.BitFlipAt(n[1], n[2], n[3])), nil
	default:
		if procs < 1 {
			return nil, fmt.Errorf("-fault random needs -procs ≥ 1, got %d", procs)
		}
		return fault.Random(uint64(n[1]), procs, 40), nil
	}
}

// writeTrace exports the event timeline as one JSON object per line.
func writeTrace(path string, events []mp.TraceEvent) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
