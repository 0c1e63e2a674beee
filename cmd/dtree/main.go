// Command dtree trains and evaluates a classification decision tree with
// any of the library's algorithms: the serial builders (hunt = depth-first
// C4.5 style, bfs = breadth-first reference, sprint = pre-sorted attribute
// lists) or the paper's three parallel formulations (sync, partitioned,
// hybrid) on a modeled P-processor machine.
//
// Data comes from a Quest-schema CSV written by dtgen (-data) or is
// generated on the fly (-n/-function/-seed). A holdout fraction measures
// test accuracy. For parallel algorithms the modeled runtime, speedup
// ingredients and message traffic are reported; -stats adds the
// per-phase × per-collective modeled-cost breakdown and -trace exports
// the deterministic per-rank event timeline as JSONL.
//
// With -forest N an ensemble of N trees is trained instead — bagged
// bootstrap samples (disable with -no-bootstrap), optional random
// feature subspaces (-feature-frac), majority or accuracy-weighted
// voting — using -algo as the member builder (any formulation,
// including scalparc and vertical). The ensemble is evaluated through
// the fused flat-forest serving layout and saved with -save as a
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
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"partree/internal/core"
	"partree/internal/criteria"
	"partree/internal/dataset"
	"partree/internal/discretize"
	"partree/internal/fault"
	"partree/internal/flat"
	"partree/internal/forest"
	"partree/internal/kernel"
	"partree/internal/mp"
	"partree/internal/predict"
	"partree/internal/quest"
	"partree/internal/serve"
	"partree/internal/sliq"
	"partree/internal/sprint"
	"partree/internal/tree"
)

func main() {
	var (
		data      = flag.String("data", "", "Quest-schema CSV file (default: generate)")
		n         = flag.Int("n", 50000, "records to generate when no -data")
		fn        = flag.Int("function", 2, "Quest classification function")
		seed      = flag.Uint64("seed", 1998, "generator seed")
		attrs     = flag.Int("attrs", 0, "widen the schema to this many attributes (0 = the 9 paper attributes; extras are synthetic noise)")
		algo      = flag.String("algo", "hybrid", "hunt|bfs|sprint|sliq|sync|partitioned|hybrid")
		procs     = flag.Int("procs", 8, "modeled processors (parallel algorithms)")
		crit      = flag.String("criterion", "entropy", "entropy|gini")
		binary    = flag.Bool("binary", true, "binary splits (as in the paper's experiments)")
		maxDepth  = flag.Int("maxdepth", 0, "depth limit (0 = grow to purity)")
		minSplit  = flag.Int("minsplit", 2, "minimum records to split a node")
		prune     = flag.Bool("prune", false, "apply pessimistic pruning after building")
		holdout   = flag.Float64("holdout", 0.2, "fraction of records held out for test accuracy")
		printTree = flag.Bool("print", false, "print the tree")
		saveModel = flag.String("save", "", "write the trained model as JSON to this file")
		loadModel = flag.String("load", "", "skip training; load a JSON model and evaluate it")
		rules     = flag.Int("rules", 0, "print the top-N extracted rules")
		importanc = flag.Bool("importance", false, "print split-based feature importance")
		disc      = flag.Bool("discretize", true, "uniform pre-discretization for parallel algorithms (false = per-node clustering)")
		reuse     = flag.Bool("reuse", false, "enable sibling-subtraction histogram reuse and sparse reduction encoding")
		voteK     = flag.Int("vote-k", 0, "voted split selection: each rank nominates its top-k attributes per election group and only the ≤2k elected candidates reduce full histograms (0 = exact; k ≥ attribute count is also exact)")
		sparse    = flag.Float64("sparse", kernel.DefaultSparseThreshold, "density threshold for sparse reduction encoding (with -reuse; 0 keeps reductions dense)")
		stats     = flag.Bool("stats", false, "print the per-phase × per-collective modeled-cost breakdown (parallel algorithms)")
		traceOut  = flag.String("trace", "", "write the modeled per-rank event timeline as JSONL to this file (parallel algorithms)")
		useFlat   = flag.Bool("flat", false, "evaluate through the compiled flat tree and the batched parallel engine")
		faultSpec = flag.String("fault", "", "inject a fault (parallel algorithms): crash:RANK:OP | delay:RANK:OP:SECONDS | drop:RANK:SEND | halt:OP | torn:RANK:SAVE | bitflip:RANK:SAVE:BIT | random:SEED")
		recoverFT = flag.Bool("recover", false, "checkpoint at level/partition boundaries and recover from injected faults (parallel algorithms)")
		ckptDir   = flag.String("ckpt-dir", "", "durable checkpoint directory (implies -recover); survives the process for -resume")
		resumeFT  = flag.Bool("resume", false, "resume from the last committed checkpoint in -ckpt-dir (possibly with fewer -procs than the crashed run)")

		forestN   = flag.Int("forest", 0, "train a bagged ensemble of this many trees with -algo as the member builder (0 = single tree)")
		vote      = flag.String("vote", "majority", "forest vote aggregation: majority|weighted (weighted uses member train accuracy)")
		featFrac  = flag.Float64("feature-frac", 1, "fraction of attributes each forest member may split on (random subspace)")
		noSample  = flag.Bool("no-bootstrap", false, "train every forest member on the full data instead of a bootstrap sample")
		forestWrk = flag.Int("forest-workers", 0, "concurrent member builds (0 = GOMAXPROCS; the forest is identical for any value)")

		ooc = flag.Bool("ooc", false, "train out-of-core: -data must be a column store directory (dtgen -ooc); implied when -data is one")
	)
	flag.Parse()

	criterion := criteria.Entropy
	switch *crit {
	case "entropy":
	case "gini":
		criterion = criteria.Gini
	default:
		fmt.Fprintf(os.Stderr, "dtree: unknown criterion %q\n", *crit)
		os.Exit(2)
	}
	topts := tree.Options{Criterion: criterion, Binary: *binary, MaxDepth: *maxDepth, MinSplit: *minSplit}
	if *reuse {
		topts.Reuse = kernel.Options{Subtraction: true, SparseThreshold: *sparse}
	}
	if *voteK < 0 {
		fmt.Fprintf(os.Stderr, "dtree: -vote-k must be ≥ 0, got %d\n", *voteK)
		os.Exit(2)
	}
	topts.Vote = kernel.VoteOptions{K: *voteK}

	if *ooc || (*data != "" && dataset.IsStoreDir(*data)) {
		runOOC(oocRun{data: *data, algo: *algo, procs: *procs, topts: topts, holdout: *holdout, stats: *stats, save: *saveModel})
		return
	}

	full, err := load(*data, *n, *fn, *seed, *attrs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dtree:", err)
		os.Exit(1)
	}
	cut := full.Len() - int(float64(full.Len())**holdout)
	train, test := full.Slice(0, cut), full.Slice(cut, full.Len())

	if *forestN > 0 {
		runForest(forestRun{
			algo:     *algo,
			trees:    *forestN,
			procs:    *procs,
			seed:     *seed,
			vote:     *vote,
			featFrac: *featFrac,
			sample:   !*noSample,
			workers:  *forestWrk,
			disc:     *disc,
			topts:    topts,
			save:     *saveModel,
		}, train, test)
		return
	}

	var t *tree.Tree
	if *loadModel != "" {
		f, err := os.Open(*loadModel)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dtree:", err)
			os.Exit(1)
		}
		t, err = tree.ReadJSON(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "dtree:", err)
			os.Exit(1)
		}
		*algo = "loaded:" + *loadModel
	}
	if t == nil {
		t = trainTree(*algo, train, *procs, topts, *disc, *stats, *traceOut, *faultSpec, *recoverFT, *ckptDir, *resumeFT)
	}

	if *prune {
		removed := tree.Prune(t, tree.DefaultPruneZ)
		fmt.Printf("pruned %d internal nodes\n", removed)
	}
	st := t.Stats()
	fmt.Printf("algorithm      %s\n", *algo)
	fmt.Printf("training cases %d\n", train.Len())
	fmt.Printf("tree           %d nodes, %d leaves, depth %d\n", st.Nodes, st.Leaves, st.MaxDepth)
	eval := accuracyOn
	if *useFlat {
		eval = flatEvaluator(t)
	}
	fmt.Printf("train accuracy %.4f\n", eval(t, train))
	if test.Len() > 0 {
		fmt.Printf("test accuracy  %.4f (holdout %d)\n", eval(t, test), test.Len())
	}
	if *printTree {
		fmt.Print(t.String())
	}
	if *rules > 0 {
		rs := t.Rules()
		if len(rs) > *rules {
			rs = rs[:*rules]
		}
		fmt.Println("top rules:")
		for _, r := range rs {
			fmt.Println("  " + r.String())
		}
	}
	if *importanc {
		fmt.Println("feature importance:")
		for a, v := range t.Importance() {
			if v > 0 {
				fmt.Printf("  %-12s %.3f\n", t.Schema.Attrs[a].Name, v)
			}
		}
	}
	if *saveModel != "" {
		saveTree(*saveModel, t)
	}
}

// saveTree writes t as JSON to path, with its checksum sidecar.
func saveTree(path string, t *tree.Tree) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dtree:", err)
		os.Exit(1)
	}
	if err := tree.WriteJSON(f, t); err != nil {
		fmt.Fprintln(os.Stderr, "dtree:", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "dtree:", err)
		os.Exit(1)
	}
	if err := serve.WriteChecksumFile(path); err != nil {
		fmt.Fprintln(os.Stderr, "dtree:", err)
		os.Exit(1)
	}
	fmt.Printf("model saved to %s (checksum sidecar %s%s)\n", path, path, serve.ChecksumSuffix)
}

// forestRun bundles the ensemble-mode parameters.
type forestRun struct {
	algo     string
	trees    int
	procs    int
	seed     uint64
	vote     string
	featFrac float64
	sample   bool
	workers  int
	disc     bool
	topts    tree.Options
	save     string
}

// runForest trains, evaluates and optionally saves a bagged ensemble.
// Any builder can grow members (the multi-rank formulations run their
// modeled worlds per member); evaluation routes through the fused
// flat-forest layout — the serving path.
func runForest(r forestRun, train, test *dataset.Dataset) {
	cfg := forest.Config{
		Trees:           r.trees,
		Builder:         r.algo,
		Procs:           r.procs,
		Seed:            r.seed,
		Bootstrap:       r.sample,
		FeatureFraction: r.featFrac,
		Tree:            r.topts,
		Workers:         r.workers,
	}
	switch r.vote {
	case "majority":
		cfg.Vote = forest.Majority
	case "weighted":
		cfg.Vote = forest.Weighted
	default:
		fmt.Fprintf(os.Stderr, "dtree: unknown -vote %q (want majority|weighted)\n", r.vote)
		os.Exit(2)
	}
	switch r.algo {
	case "sync", "partitioned", "hybrid", "scalparc", "vertical":
		if r.disc {
			train = discretize.UniformPaper(train, quest.PaperBins(), quest.Ranges())
		} else {
			cfg.MicroBins = 32
			cfg.NodeBins = 6
		}
	}

	start := time.Now()
	f, err := forest.Train(train, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dtree:", err)
		os.Exit(1)
	}
	trainSecs := time.Since(start).Seconds()
	if cfg.Vote == forest.Weighted {
		for m, t := range f.Trees {
			f.Weights[m] = t.Accuracy(train)
		}
	}
	fz, err := forest.Compile(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dtree:", err)
		os.Exit(1)
	}

	fmt.Printf("algorithm      forest(%s) x%d, %s vote\n", r.algo, r.trees, f.Vote)
	fmt.Printf("training cases %d (bootstrap %v, feature fraction %g)\n", train.Len(), r.sample, r.featFrac)
	fmt.Printf("trained in     %.2fs wall\n", trainSecs)
	fmt.Printf("fused forest   %d trees, %d nodes, %d leaves\n", fz.Trees(), fz.Nodes(), fz.Leaves())
	fmt.Printf("train accuracy %.4f\n", forestAccuracy(fz, train))
	if test.Len() > 0 {
		fmt.Printf("test accuracy  %.4f (holdout %d)\n", forestAccuracy(fz, test), test.Len())
	}

	if r.save != "" {
		out, err := os.Create(r.save)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dtree:", err)
			os.Exit(1)
		}
		if err := forest.WriteJSON(out, f); err != nil {
			fmt.Fprintln(os.Stderr, "dtree:", err)
			os.Exit(1)
		}
		if err := out.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "dtree:", err)
			os.Exit(1)
		}
		if err := serve.WriteChecksumFile(r.save); err != nil {
			fmt.Fprintln(os.Stderr, "dtree:", err)
			os.Exit(1)
		}
		fmt.Printf("forest saved to %s (checksum sidecar %s%s)\n", r.save, r.save, serve.ChecksumSuffix)
	}
}

// forestAccuracy evaluates through the fused layout, recoding raw rows
// when the forest was trained on pre-discretized data.
func forestAccuracy(fz *forest.Fused, d *dataset.Dataset) float64 {
	if fz.Schema.NumContinuous() != d.Schema.NumContinuous() {
		d = discretize.UniformPaper(d, quest.PaperBins(), quest.Ranges())
	}
	return fz.Accuracy(d)
}

// trainTree dispatches to the selected algorithm.
func trainTree(algo string, train *dataset.Dataset, procs int, topts tree.Options, disc, stats bool, traceOut, faultSpec string, recoverFT bool, ckptDir string, resumeFT bool) *tree.Tree {
	switch algo {
	case "hunt":
		return tree.BuildHunt(train, topts)
	case "sprint":
		return sprint.Build(train, topts)
	case "sliq":
		return sliq.Build(train, topts)
	case "bfs":
		o := core.Options{Tree: topts}
		return tree.BuildBFS(train, o.SerialOptions(train))
	case "sync", "partitioned", "hybrid":
		return runParallel(algo, train, procs, topts, disc, stats, traceOut, faultSpec, recoverFT, ckptDir, resumeFT)
	default:
		fmt.Fprintf(os.Stderr, "dtree: unknown algorithm %q\n", algo)
		os.Exit(2)
		return nil
	}
}

// accuracyOn classifies a raw dataset through the possibly-discretized
// tree: when the tree was trained on pre-binned data its schema differs
// from the raw records, which are then recoded first.
func accuracyOn(t *tree.Tree, d *dataset.Dataset) float64 {
	if t.Schema.NumContinuous() == d.Schema.NumContinuous() {
		return t.Accuracy(d)
	}
	recoded := discretize.UniformPaper(d, quest.PaperBins(), quest.Ranges())
	return t.Accuracy(recoded)
}

// flatEvaluator compiles the tree once and returns an accuracy function
// that routes every dataset through the batched parallel engine (the
// serving path), printing the compiled shape and per-batch throughput.
func flatEvaluator(t *tree.Tree) func(*tree.Tree, *dataset.Dataset) float64 {
	m, err := flat.Compile(t)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dtree:", err)
		os.Exit(1)
	}
	fmt.Printf("flat tree      %d nodes compiled (%d leaves)\n", m.Len(), m.Leaves())
	pool := predict.NewPool(0)
	eng := predict.NewEngine(pool, m)
	return func(_ *tree.Tree, d *dataset.Dataset) float64 {
		if t.Schema.NumContinuous() != d.Schema.NumContinuous() {
			d = discretize.UniformPaper(d, quest.PaperBins(), quest.Ranges())
		}
		out := make([]int32, d.Len())
		before := eng.Stats()
		if err := eng.PredictBatch(d, out); err != nil {
			fmt.Fprintln(os.Stderr, "dtree:", err)
			os.Exit(1)
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
	}
}

func load(path string, n, fn int, seed uint64, attrs int) (*dataset.Dataset, error) {
	if path == "" {
		return quest.Generate(quest.Config{Function: fn, Seed: seed, Attrs: attrs}, n)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.ReadCSV(f, quest.SchemaN(attrs))
}

// Network-model flags (parallel algorithms only). Package-level so the
// training dispatch doesn't thread three more parameters through.
var (
	topology = flag.String("topology", "", "interconnect model: hypercube|flat|ring|torus|fattree (default hypercube; only priced when -hop-latency > 0)")
	collAlgo = flag.String("coll-algo", "", "collective algorithms: default|auto|rdbl|ring|rhd|red+bcast, or coll=algo pairs like allreduce=ring,bcast=scatter-ag")
	hopLat   = flag.Float64("hop-latency", 0, "per-hop routing latency t_h in seconds (0 = cut-through, all topologies price identically)")
	diskRate = flag.Float64("disk-rate", 0, "modeled per-byte disk transfer time t_d in seconds (out-of-core builds; 0 keeps historic clocks)")
)

// oocRun bundles the out-of-core mode parameters.
type oocRun struct {
	data    string
	algo    string
	procs   int
	topts   tree.Options
	holdout float64
	stats   bool
	save    string
}

// runOOC trains from an on-disk column store with bounded resident
// memory. bfs, sliq and sprint run serially over the chunked table; sync
// runs its modeled world with every rank streaming its block section of
// the shared store, the encoded reads charged to the disk cost class.
func runOOC(r oocRun) {
	if r.data == "" || !dataset.IsStoreDir(r.data) {
		fmt.Fprintln(os.Stderr, "dtree: -ooc requires -data pointing at a column store directory (write one with dtgen -ooc)")
		os.Exit(2)
	}
	store, err := dataset.OpenStore(r.data)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dtree:", err)
		os.Exit(1)
	}
	defer store.Close()
	cut := store.Len() - int(float64(store.Len())*r.holdout)
	train := dataset.SectionOf(store, 0, cut)
	test := dataset.SectionOf(store, cut, store.Len())

	var t *tree.Tree
	switch r.algo {
	case "bfs":
		o := core.Options{Tree: r.topts}
		to, oerr := o.SerialOptionsTable(train)
		if oerr != nil {
			err = oerr
			break
		}
		for _, a := range store.Schema().Attrs {
			if a.Kind == dataset.Continuous {
				// The in-RAM bfs sorts each node's rows for exact continuous
				// splits; a streaming pass cannot, so it bins per node like
				// the parallel formulations.
				fmt.Fprintln(os.Stderr, "dtree: continuous attributes are discretized per node out-of-core (as in sync); in-RAM bfs uses exact splits")
				break
			}
		}
		t, err = tree.BuildBFSOOC(train, to)
	case "sliq":
		t, err = sliq.BuildTable(train, r.topts)
	case "sprint":
		t, err = sprint.BuildTable(train, r.topts)
	case "sync":
		t, err = runParallelOOC(train, r)
	default:
		fmt.Fprintf(os.Stderr, "dtree: algorithm %q is not supported out-of-core (use bfs|sliq|sprint|sync)\n", r.algo)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dtree:", err)
		os.Exit(1)
	}

	st := t.Stats()
	fmt.Printf("algorithm      %s (out-of-core)\n", r.algo)
	fmt.Printf("training cases %d (store %s, %d chunks of %d rows)\n", train.Len(), r.data, store.NumChunks(), store.ChunkRows())
	fmt.Printf("tree           %d nodes, %d leaves, depth %d\n", st.Nodes, st.Leaves, st.MaxDepth)
	trainAcc, err := t.AccuracyTable(train)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dtree:", err)
		os.Exit(1)
	}
	fmt.Printf("train accuracy %.4f\n", trainAcc)
	if test.Len() > 0 {
		testAcc, err := t.AccuracyTable(test)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dtree:", err)
			os.Exit(1)
		}
		fmt.Printf("test accuracy  %.4f (holdout %d)\n", testAcc, test.Len())
	}
	fmt.Printf("store reads    %.2f MB encoded\n", float64(store.ReadBytes())/1e6)
	if r.save != "" {
		saveTree(r.save, t)
	}
}

// runParallelOOC runs the synchronous formulation's modeled world over
// the store, every rank streaming its block section.
func runParallelOOC(train dataset.Table, r oocRun) (*tree.Tree, error) {
	o := core.Options{Tree: r.topts}
	m := mp.SP2()
	if *hopLat != 0 {
		m = m.WithHopLatency(*hopLat)
	}
	if *diskRate != 0 {
		m = m.WithDiskRate(*diskRate)
	}
	w := mp.NewWorld(r.procs, m)
	if *topology != "" {
		topo, err := mp.NewTopology(*topology, r.procs)
		if err != nil {
			return nil, err
		}
		w.SetTopology(topo)
	}
	if *collAlgo != "" {
		cfg, err := mp.ParseCollSpec(*collAlgo)
		if err != nil {
			return nil, err
		}
		w.SetCollConfig(cfg)
	}
	n := train.Len()
	trees := make([]*tree.Tree, r.procs)
	errs := make([]error, r.procs)
	w.Run(func(c *mp.Comm) {
		lo, hi := dataset.BlockBounds(n, r.procs, c.Rank())
		trees[c.Rank()], errs[c.Rank()] = core.BuildSyncOOC(c, dataset.SectionOf(train, lo, hi), o)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	tr := w.Traffic()
	fmt.Printf("modeled time   %.3fs on %d processors (SP-2-like machine)\n", w.MaxClock(), r.procs)
	fmt.Printf("traffic        %d messages, %.2f MB, comm %.2fs / comp %.2fs (rank-summed)\n",
		tr.Msgs, float64(tr.Bytes)/1e6, tr.CommTime, tr.CompTime)
	fmt.Printf("disk (modeled) %.2f MB read, %.3fs at t_d=%g (rank-summed)\n",
		float64(tr.DiskBytes)/1e6, tr.DiskTime, *diskRate)
	if r.stats {
		fmt.Println("\nper-phase / per-collective modeled breakdown (rank-summed seconds):")
		fmt.Print(w.Breakdown().Table())
	}
	return trees[0], nil
}

func runParallel(algo string, train *dataset.Dataset, procs int, topts tree.Options, disc, stats bool, traceOut, faultSpec string, recoverFT bool, ckptDir string, resumeFT bool) *tree.Tree {
	if disc {
		train = discretize.UniformPaper(train, quest.PaperBins(), quest.Ranges())
	}
	o := core.Options{Tree: topts}
	var st fault.Store
	var dst *fault.DiskStore
	switch {
	case ckptDir != "":
		var err error
		dst, err = fault.OpenDiskStore(ckptDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dtree:", err)
			os.Exit(1)
		}
		defer dst.Close()
		st = dst
		o.FT = &core.FTOptions{Store: st, Resume: resumeFT}
	case recoverFT:
		st = fault.NewStore()
		o.FT = &core.FTOptions{Store: st}
	case resumeFT:
		fmt.Fprintln(os.Stderr, "dtree: -resume needs -ckpt-dir (the checkpoints of the crashed run)")
		os.Exit(2)
	}
	build := map[string]func(*mp.Comm, *dataset.Dataset, core.Options) *tree.Tree{
		"sync":        core.BuildSync,
		"partitioned": core.BuildPartitioned,
		"hybrid":      core.BuildHybrid,
	}[algo]
	m := mp.SP2()
	if *hopLat != 0 {
		m = m.WithHopLatency(*hopLat)
	}
	w := mp.NewWorld(procs, m)
	if *topology != "" {
		topo, err := mp.NewTopology(*topology, procs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dtree:", err)
			os.Exit(2)
		}
		w.SetTopology(topo)
	}
	if *collAlgo != "" {
		cfg, err := mp.ParseCollSpec(*collAlgo)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dtree:", err)
			os.Exit(2)
		}
		w.SetCollConfig(cfg)
	}
	if traceOut != "" {
		w.EnableTrace()
	}
	if faultSpec != "" {
		plan, needsTimeout, err := parseFault(faultSpec, procs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dtree:", err)
			os.Exit(2)
		}
		w.SetFaultPlan(plan)
		if dst != nil {
			dst.SetFaultPlan(plan)
		}
		if needsTimeout {
			w.SetRecvTimeout(2 * time.Second)
		}
	}
	blocks := train.BlockPartition(procs)
	trees := make([]*tree.Tree, procs)
	if err := runWorld(w, func(c *mp.Comm) {
		trees[c.Rank()] = build(c, blocks[c.Rank()], o)
	}); err != nil {
		fmt.Fprintf(os.Stderr, "dtree: fault detected and build aborted (run with -recover to survive it): %v\n", err)
		os.Exit(1)
	}
	tr := w.Traffic()
	fmt.Printf("modeled time   %.3fs on %d processors (SP-2-like machine)\n", w.MaxClock(), procs)
	fmt.Printf("traffic        %d messages, %.2f MB, comm %.2fs / comp %.2fs (rank-summed)\n",
		tr.Msgs, float64(tr.Bytes)/1e6, tr.CommTime, tr.CompTime)
	if faultSpec != "" {
		for _, ev := range w.Faults() {
			fmt.Printf("fault          %v\n", ev)
		}
		if dead := w.DeadRanks(); len(dead) > 0 {
			fmt.Printf("dead ranks     %v (build recovered on the %d survivors)\n", dead, procs-len(dead))
		}
	}
	if st != nil {
		s := st.Stats()
		fmt.Printf("checkpoints    %d saved (%.2f MB), %d restored (%.2f MB)\n",
			s.Checkpoints, float64(s.Bytes)/1e6, s.Restores, float64(s.RestoredB)/1e6)
		if rec := w.Breakdown().Phase(core.PhaseRecovery); rec.Calls > 0 || rec.CommTime > 0 {
			fmt.Printf("recovery cost  comm %.3fs / comp %.3fs over %d collective calls (rank-summed)\n",
				rec.CommTime, rec.CompTime, rec.Calls)
		}
		if dst != nil {
			io := dst.DiskIO()
			fmt.Printf("ckpt store     %s: %.2f MB written, %.2f MB read back, %d fsyncs\n",
				dst.Dir(), float64(io.WrittenB)/1e6, float64(io.ReadB)/1e6, io.Syncs)
			for _, note := range dst.Notes() {
				fmt.Printf("ckpt note      %s\n", note)
			}
		}
	}
	if stats {
		fmt.Println("\nper-phase / per-collective modeled breakdown (rank-summed seconds):")
		fmt.Print(w.Breakdown().Table())
		if enc := w.EncodingByPhase(); len(enc) > 0 {
			fmt.Println("\nper-phase reduction encoding (rank-summed):")
			fmt.Print(mp.EncodingTable(enc))
		}
	}
	if traceOut != "" {
		if err := writeTrace(traceOut, w.Events()); err != nil {
			fmt.Fprintln(os.Stderr, "dtree:", err)
			os.Exit(1)
		}
		fmt.Printf("trace          %d events written to %s\n", len(w.Events()), traceOut)
	}
	for _, t := range trees {
		if t != nil {
			return t
		}
	}
	fmt.Fprintln(os.Stderr, "dtree: no surviving rank produced a tree")
	os.Exit(1)
	return nil
}

// runWorld runs body on every rank, converting a typed fault panic
// (detection without recovery) into an error instead of crashing the CLI.
func runWorld(w *mp.World, body func(*mp.Comm)) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if fe, ok := fault.AsError(r); ok {
				err = fe
				return
			}
			panic(r)
		}
	}()
	w.Run(body)
	return nil
}

// parseFault turns the -fault spec into a plan. The second result is true
// when the plan needs a receive timeout to surface (silent drops).
func parseFault(spec string, procs int) (*fault.Plan, bool, error) {
	part := strings.Split(spec, ":")
	atoi := func(s string) int {
		v, err := strconv.Atoi(s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dtree: bad -fault field %q\n", s)
			os.Exit(2)
		}
		return v
	}
	switch part[0] {
	case "crash":
		if len(part) != 3 {
			return nil, false, fmt.Errorf("-fault crash wants crash:RANK:OP, got %q", spec)
		}
		return fault.NewPlan(fault.CrashAt(atoi(part[1]), fault.CollStart, atoi(part[2]))), false, nil
	case "delay":
		if len(part) != 4 {
			return nil, false, fmt.Errorf("-fault delay wants delay:RANK:OP:SECONDS, got %q", spec)
		}
		secs, err := strconv.ParseFloat(part[3], 64)
		if err != nil {
			return nil, false, fmt.Errorf("-fault delay seconds: %v", err)
		}
		return fault.NewPlan(fault.DelayAt(atoi(part[1]), fault.CollStart, atoi(part[2]), secs)), false, nil
	case "drop":
		if len(part) != 3 {
			return nil, false, fmt.Errorf("-fault drop wants drop:RANK:SEND, got %q", spec)
		}
		return fault.NewPlan(fault.DropAt(atoi(part[1]), atoi(part[2]), fault.AnyTag)), true, nil
	case "halt":
		// Crash every rank at the same operation index: in the lockstep
		// collective schedule all ranks die deterministically mid-build,
		// modeling a whole-process kill. The durable checkpoints survive
		// for a later -resume run.
		if len(part) != 2 {
			return nil, false, fmt.Errorf("-fault halt wants halt:OP, got %q", spec)
		}
		var fs []fault.Fault
		for r := 0; r < procs; r++ {
			fs = append(fs, fault.CrashAt(r, fault.CollStart, atoi(part[1])))
		}
		return fault.NewPlan(fs...), false, nil
	case "torn":
		if len(part) != 3 {
			return nil, false, fmt.Errorf("-fault torn wants torn:RANK:SAVE, got %q", spec)
		}
		return fault.NewPlan(fault.TornWriteAt(atoi(part[1]), atoi(part[2]))), false, nil
	case "bitflip":
		if len(part) != 4 {
			return nil, false, fmt.Errorf("-fault bitflip wants bitflip:RANK:SAVE:BIT, got %q", spec)
		}
		return fault.NewPlan(fault.BitFlipAt(atoi(part[1]), atoi(part[2]), atoi(part[3]))), false, nil
	case "random":
		if len(part) != 2 {
			return nil, false, fmt.Errorf("-fault random wants random:SEED, got %q", spec)
		}
		return fault.Random(uint64(atoi(part[1])), procs, 40), true, nil
	default:
		return nil, false, fmt.Errorf("unknown -fault kind %q (want crash|delay|drop|halt|torn|bitflip|random)", part[0])
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
