package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"partree/internal/core"
	"partree/internal/dataset"
	"partree/internal/discretize"
	"partree/internal/kernel"
	"partree/internal/mp"
	"partree/internal/quest"
	"partree/internal/tree"
)

// buildCfg is one tree-construction workload. All of them train on Quest
// function 2 discretized with the paper's uniform bins (nine categorical
// attributes, two classes). The multiset of rows comes from dataSeed and is
// the same for every -seed; -seed decides the order of the rows, hence
// which rows each rank holds and what every tabulate and route pass streams
// through. Split decisions are functions of counts, so every seed grows the
// same tree: node counts repeat exactly and wall times are comparable
// across seeds, where a fresh multiset moves a deep tree's size by ±15 %.
type buildCfg struct {
	rows     int
	binary   bool
	maxDepth int  // 0 = grow to purity
	hybrid   bool // core.BuildHybrid in place of core.BuildSync
	store    bool // core.BuildSyncOOC over an on-disk dataset.Store
}

func buildWorkload(cfg buildCfg) func(e *env) map[string]float64 {
	return func(e *env) map[string]float64 { return runBuild(cfg, e) }
}

func (cfg buildCfg) options() core.Options {
	return core.Options{Tree: tree.Options{Binary: cfg.binary, MaxDepth: cfg.maxDepth}}
}

// buildData is what set-up hands to the builder: per-rank blocks in RAM, or
// an open column store. full is the whole training set in RAM; the store
// workload has none unless the traced run materializes one for the replay.
type buildData struct {
	rows   int
	full   *dataset.Dataset
	blocks []*dataset.Dataset
	st     *dataset.Store
}

func (bd *buildData) close() {
	if bd != nil && bd.st != nil {
		bd.st.Close() // read-only handle
	}
}

// recodeSink discretizes each generated record on its way into the store
// writer, so the store workload never holds the training set (this is what
// dtgen -ooc -discretize does).
type recodeSink struct {
	rc  *discretize.Recoder
	dst dataset.RowSink
	rec dataset.Record
}

func (s *recodeSink) AppendRow(r dataset.Record) error {
	s.rc.Recode(r, &s.rec)
	return s.dst.AppendRow(s.rec)
}

// setup generates, recodes, orders and distributes the training set: all
// the work before the first build. dir receives the store, if any.
func (cfg buildCfg) setup(e *env, parent int, dir string) (*buildData, error) {
	n := e.rows(cfg.rows)
	qc := quest.Config{Function: 2, Seed: dataSeed}
	rng := rand.New(rand.NewPCG(e.seed, 0x62656e6368))
	bd := &buildData{rows: n}
	if cfg.store {
		// A streamed store cannot be shuffled, so the seed rotates it: rows
		// [off, n) then [0, off) of the stream, the same multiset.
		off := rng.IntN(n)
		id := e.rec.begin("dataset.store_write", parent, 0, 0)
		rc := discretize.UniformPaperRecoder(qc.SchemaOf(), quest.PaperBins(), quest.Ranges())
		w, err := dataset.NewStoreWriter(dir, rc.Schema(), dataset.DefaultChunkRows)
		if err != nil {
			return nil, err
		}
		sink := &recodeSink{rc: rc, dst: w, rec: dataset.NewRecord(rc.Schema())}
		err = quest.GenerateTo(qc, off, n, sink)
		if err == nil {
			err = quest.GenerateTo(qc, 0, off, sink)
		}
		if cerr := w.Close(); err == nil {
			err = cerr
		}
		e.rec.end(id)
		if err != nil {
			return nil, err
		}
		bd.st, err = dataset.OpenStore(dir)
		return bd, err
	}
	id := e.rec.begin("quest.generate", parent, 0, 0)
	raw, err := quest.GenerateBlock(qc, 0, n)
	e.rec.end(id)
	if err != nil {
		return nil, err
	}
	id = e.rec.begin("discretize.recode", parent, 0, 0)
	disc := discretize.UniformPaper(raw, quest.PaperBins(), quest.Ranges())
	e.rec.end(id)
	id = e.rec.begin("dataset.select", parent, 0, 0)
	order := make([]int32, n)
	for i, p := range rng.Perm(n) {
		order[i] = int32(p)
	}
	bd.full = disc.Select(order)
	e.rec.end(id)
	id = e.rec.begin("dataset.block_partition", parent, 0, 0)
	bd.blocks = bd.full.BlockPartition(procs)
	e.rec.end(id)
	return bd, nil
}

// reference grows the serial tree every build must equal.
func (cfg buildCfg) reference(bd *buildData) (*tree.Tree, error) {
	o := cfg.options()
	if bd.full != nil {
		return tree.BuildBFS(bd.full, o.SerialOptions(bd.full)), nil
	}
	to, err := o.SerialOptionsTable(bd.st)
	if err != nil {
		return nil, err
	}
	return tree.BuildBFSOOC(bd.st, to)
}

// buildOut is one complete parallel build.
type buildOut struct {
	tr    *tree.Tree
	wall  time.Duration
	world *mp.World
	err   error
}

// buildOnce times one build as a caller sees it: world creation, World.Run
// and the builder on every rank. rec, when not nil, gets one span per rank.
func (cfg buildCfg) buildOnce(bd *buildData, rec *recorder, parent, rep int) buildOut {
	opts := cfg.options()
	trees := make([]*tree.Tree, procs)
	errs := make([]error, procs)
	t0 := time.Now()
	w := mp.NewWorld(procs, mp.SP2())
	w.Run(func(c *mp.Comm) {
		r := c.Rank()
		id := rec.begin("core.build", parent, r+1, rep)
		switch {
		case cfg.store:
			lo, hi := dataset.BlockBounds(bd.st.Len(), procs, r)
			trees[r], errs[r] = core.BuildSyncOOC(c, dataset.SectionOf(bd.st, lo, hi), opts)
		case cfg.hybrid:
			trees[r] = core.BuildHybrid(c, bd.blocks[r], opts)
		default:
			trees[r] = core.BuildSync(c, bd.blocks[r], opts)
		}
		rec.end(id)
	})
	return buildOut{tr: trees[0], wall: time.Since(t0), world: w, err: errors.Join(errs...)}
}

// checker holds the oracles of a build workload: the serial tree, and the
// modeled clock and traffic of the first build, which later ones must repeat.
type checker struct {
	ref   *tree.Tree
	clock float64
	bytes int64
	seen  bool
}

func (ck *checker) check(out buildOut) error {
	if out.err != nil {
		return out.err
	}
	if !tree.Equal(out.tr, ck.ref) {
		return fmt.Errorf("tree differs from the serial reference: %s", tree.Diff(out.tr, ck.ref))
	}
	clock, bytes := out.world.MaxClock(), out.world.Traffic().Bytes
	if !ck.seen {
		ck.clock, ck.bytes, ck.seen = clock, bytes, true
	}
	if clock != ck.clock || bytes != ck.bytes {
		return fmt.Errorf("modeled clock or traffic moved between builds: %g s %d B, first build %g s %d B", clock, bytes, ck.clock, ck.bytes)
	}
	return nil
}

// minBuildReps is the fewest timed builds a window holds, however short.
const minBuildReps = 9

// An end-to-end run sets up several times and reports the median as
// setup_s: up to setupReps times, while the set-ups so far and one more fit
// in setupBudget seconds. A traced run sets up once, under spans.
const (
	setupReps   = 3
	setupBudget = 5.0
)

// setupMedian runs setup as often as the rule above allows, stopping each
// result but the last with stop, and returns the last result and the median
// set-up time.
func setupMedian[T any](e *env, stop func(T), setup func(parent int) T) (T, float64) {
	var last T
	var took []float64
	start := time.Now()
	for i := 0; i == 0 || (e.rec == nil && i < setupReps && time.Since(start).Seconds()+median(took) <= setupBudget); i++ {
		if i > 0 {
			stop(last)
		}
		var zero T
		last = zero
		runtime.GC()
		t0 := time.Now()
		id := e.rec.begin("setup", -1, 0, i)
		last = setup(id)
		e.rec.end(id)
		took = append(took, time.Since(t0).Seconds())
	}
	e.note("%d set-ups, median of %v s", len(took), took)
	return last, median(took)
}

func runBuild(cfg buildCfg, e *env) map[string]float64 {
	dir := ""
	if cfg.store {
		tmp, err := os.MkdirTemp(e.outDir, "store-")
		if err != nil {
			panic(err)
		}
		defer os.RemoveAll(tmp)
		dir = filepath.Join(tmp, "train.store")
	}
	bd, setupS := setupMedian(e, (*buildData).close, func(parent int) *buildData {
		bd, err := cfg.setup(e, parent, dir)
		if err != nil {
			panic(err)
		}
		return bd
	})
	defer bd.close()
	if e.rec != nil {
		return traceBuild(cfg, e, bd)
	}

	ref, err := cfg.reference(bd)
	if err != nil {
		panic(err)
	}
	rss := startRSS()
	ck := &checker{ref: ref}
	e.op(ck.check(cfg.buildOnce(bd, nil, -1, -1))) // warm-up: pools, heap, page faults
	var wallMS []float64
	start := time.Now()
	for rep := 0; len(wallMS) < minBuildReps || time.Since(start).Seconds()+median(wallMS)/1e3 < e.seconds; rep++ {
		// Collect the previous tree before the clock starts, so a rep pays
		// for its own garbage only.
		runtime.GC()
		out := cfg.buildOnce(bd, nil, -1, rep)
		e.op(ck.check(out))
		wallMS = append(wallMS, float64(out.wall.Nanoseconds())/1e6)
	}
	st := ref.Stats()
	e.count("tree.nodes", float64(st.Nodes))
	e.count("tree.depth", float64(st.MaxDepth))
	e.count("mp.comm_bytes", float64(ck.bytes))
	e.count("mp.modeled_s", ck.clock)
	e.note("%d timed builds of %d rows after 1 warm-up", len(wallMS), bd.rows)
	m := timedMetrics(e, wallMS, float64(bd.rows)/(median(wallMS)/1e3))
	m["setup_s"], m["peak_rss_mb"] = setupS, rss.peakMB()
	return m
}

// levelReplay is what the replay measured on one level of the tree.
type levelReplay struct {
	tab, score, route  time.Duration
	scoreN, routeN     int // nodes tabulated and scored; nodes routed
	tabRows, routeRows int64
	start              time.Duration
}

// replay grows the tree with a serial level loop written from the public
// functions the builders share, reading the clock around every call into a
// layer. It is the benchmark's account of where a serial build's time goes:
// the tree must equal the reference and the three layers must add up to
// about tree.BuildBFS (tree.replay_coverage).
func replay(d *dataset.Dataset, o tree.Options, rec *recorder) (*tree.Tree, []levelReplay, time.Duration) {
	o = o.WithDefaults()
	s := d.Schema
	spec := tree.NewStatsSpec(d, o)
	flat := make([]int64, tree.StatsLen(s, o))
	root := &tree.Node{ID: 0, Kind: tree.Leaf, Dist: make([]int64, s.NumClasses())}
	ids := tree.NewIDGen(1)
	frontier := []tree.FrontierItem{{Node: root, Idx: d.AllIndex()}}
	var levels []levelReplay
	var rootTab time.Duration
	for len(frontier) > 0 {
		lv := levelReplay{start: rec.since()}
		var next []tree.FrontierItem
		for _, it := range frontier {
			clear(flat)
			t0 := time.Now()
			kernel.TabulateInto(flat, it.Idx, spec)
			t1 := time.Now()
			kids, childSlot, split := tree.ExpandNodeOOC(it, tree.DecodeStats(flat, s, o), s, o, ids)
			t2 := time.Now()
			lv.tab += t1.Sub(t0)
			lv.tabRows += int64(len(it.Idx))
			lv.score += t2.Sub(t1)
			lv.scoreN++
			if !split {
				continue
			}
			parts, _ := tree.PartitionRows(it.Node, d, it.Idx)
			lv.route += time.Since(t2)
			lv.routeN++
			lv.routeRows += int64(len(it.Idx))
			for ci, part := range parts {
				if sl := childSlot[ci]; sl >= 0 {
					kids[sl].Idx = part
				}
			}
			next = append(next, kids...)
		}
		if len(levels) == 0 {
			rootTab = lv.tab
		}
		levels = append(levels, lv)
		frontier = next
	}
	return &tree.Tree{Schema: s, Root: root}, levels, rootTab
}

// allreduceReplay has every rank call mp.AllreduceSum with the payload
// sizes a synchronous build of the tree flushes: per level, the frontier
// width in chunks of SyncEveryNodes nodes, StatsLen words per node.
func allreduceReplay(ref *tree.Tree, o core.Options, rec *recorder, parent int) (wall time.Duration, calls int, bytes int64) {
	o = o.WithDefaults()
	statsLen := tree.StatsLen(ref.Schema, o.Tree)
	var sizes []int
	for _, width := range ref.LevelWidths() {
		for lo := 0; lo < width; lo += o.SyncEveryNodes {
			n := min(o.SyncEveryNodes, width-lo)
			sizes = append(sizes, n*statsLen)
			bytes += int64(8 * n * statsLen)
		}
	}
	w := mp.NewWorld(procs, mp.SP2())
	t0 := time.Now()
	w.Run(func(c *mp.Comm) {
		id := rec.begin("mp.allreduce_replay", parent, c.Rank()+1, 0)
		buf := make([]int64, o.SyncEveryNodes*statsLen)
		for _, n := range sizes {
			mp.AllreduceSum(c, buf[:n], 0)
		}
		rec.end(id)
	})
	return time.Since(t0), len(sizes), bytes
}

// phaseCommTime sums a phase's modeled communication seconds in a fixed cell
// order, so the float total repeats bit for bit (Breakdown.Phase sums in map
// order).
func phaseCommTime(b mp.Breakdown, phase string) float64 {
	var cells []mp.Cell
	for c := range b.Cells {
		if c.Phase == phase {
			cells = append(cells, c)
		}
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].Coll != cells[j].Coll {
			return cells[i].Coll < cells[j].Coll
		}
		return cells[i].Algo < cells[j].Algo
	})
	total := 0.0
	for _, c := range cells {
		total += b.Cells[c].CommTime
	}
	return total
}

// dirBytes is the summed size of the regular files directly under dir.
func dirBytes(dir string) int64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, ent := range ents {
		if fi, err := ent.Info(); err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
	}
	return n
}

// rate is n per second, 0 when nothing was timed.
func rate(n float64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return n / d.Seconds()
}

// traceBuild is the traced run of a build workload: it takes the set-up
// stages from their spans, replays the serial level loop layer by layer,
// exercises the reduction, codec and store layers alone, and then times
// real builds with and without per-rank spans.
func traceBuild(cfg buildCfg, e *env, bd *buildData) map[string]float64 {
	rec := e.rec
	opts := cfg.options()
	m := map[string]float64{}
	n := float64(bd.rows)

	if cfg.store {
		// The streamed write has no separate generate and recode stages;
		// time the two layers alone, as the streaming path calls them.
		qc := quest.Config{Function: 2, Seed: dataSeed}
		sample := min(bd.rows, 200000)
		id := rec.begin("quest.generate", -1, 0, 0)
		raw, err := quest.GenerateBlock(qc, 0, sample)
		rec.end(id)
		if err != nil {
			panic(err)
		}
		rc := discretize.UniformPaperRecoder(qc.SchemaOf(), quest.PaperBins(), quest.Ranges())
		src, dst := dataset.NewRecord(raw.Schema), dataset.NewRecord(rc.Schema())
		id = rec.begin("discretize.recode", -1, 0, 0)
		for i := 0; i < sample; i++ {
			raw.RowInto(i, &src)
			rc.Recode(src, &dst)
		}
		rec.end(id)
		g := rec.total("quest.generate")
		r := rec.total("discretize.recode")
		m["quest.generate_rows_per_s"] = rate(float64(sample), g)
		m["discretize.recode_rows_per_s"] = rate(float64(sample), r)
		w := rec.total("dataset.store_write")
		m["dataset.store_write_rows_per_s"] = rate(n, w)
		m["dataset.store_encoded_mb"] = float64(dirBytes(bd.st.Dir())) / 1e6

		id = rec.begin("dataset.store_read", -1, 0, 0)
		var ch dataset.Chunk
		var read int64
		for k := 0; k < bd.st.NumChunks(); k++ {
			nb, err := bd.st.ReadChunk(k, &ch)
			if err != nil {
				panic(err)
			}
			read += nb
		}
		rec.end(id)
		rd := rec.total("dataset.store_read")
		m["dataset.store_read_rows_per_s"] = rate(n, rd)
		m["dataset.store_read_bytes"] = float64(read)

		bd.full, _, err = dataset.Materialize(bd.st)
		if err != nil {
			panic(err)
		}
		bd.blocks = bd.full.BlockPartition(procs)
	} else {
		g := rec.total("quest.generate")
		r := rec.total("discretize.recode")
		p := rec.total("dataset.block_partition")
		m["quest.generate_rows_per_s"] = rate(n, g)
		m["discretize.recode_rows_per_s"] = rate(n, r)
		m["dataset.block_partition_s"] = p.Seconds()
	}

	// The plain single-threaded build of the same data, the baseline, and
	// the replay that accounts for it layer by layer: three passes of each,
	// alternating, medians reported, because a single pass of either moves
	// by a tenth on this host and their ratio is a metric.
	serialOpts := opts.SerialOptions(bd.full)
	var ref *tree.Tree
	var serialS, tabS, scoreS, routeS, rootS []float64
	var tabRows, routeRows int64
	scoreN := 0
	for pass := 0; pass < 3; pass++ {
		runtime.GC()
		id := rec.begin("tree.serial_bfs", -1, 0, pass)
		t0 := time.Now()
		ref = tree.BuildBFS(bd.full, serialOpts)
		serialS = append(serialS, time.Since(t0).Seconds())
		rec.end(id)

		runtime.GC()
		rid := rec.begin("replay", -1, 0, pass)
		rt, levels, rootTab := replay(bd.full, serialOpts, rec)
		rec.end(rid)
		var err error
		if !tree.Equal(rt, ref) {
			err = fmt.Errorf("replay tree differs from tree.BuildBFS: %s", tree.Diff(rt, ref))
		}
		e.op(err)
		var tab, score, route time.Duration
		tabRows, routeRows, scoreN = 0, 0, 0
		for l, lv := range levels {
			lid := rec.add("replay.level", rid, lv.start, lv.tab+lv.score+lv.route, l, 1)
			rec.add("kernel.tabulate", lid, lv.start, lv.tab, l, lv.scoreN)
			rec.add("tree.score", lid, lv.start+lv.tab, lv.score, l, lv.scoreN)
			rec.add("tree.route", lid, lv.start+lv.tab+lv.score, lv.route, l, lv.routeN)
			tab, score, route = tab+lv.tab, score+lv.score, route+lv.route
			tabRows, routeRows, scoreN = tabRows+lv.tabRows, routeRows+lv.routeRows, scoreN+lv.scoreN
		}
		tabS, scoreS, routeS = append(tabS, tab.Seconds()), append(scoreS, score.Seconds()), append(routeS, route.Seconds())
		rootS = append(rootS, rootTab.Seconds())
	}
	st := ref.Stats()
	serial := median(serialS)
	m["tree.serial_bfs_s"] = serial
	m["tree.nodes"] = float64(st.Nodes)
	m["tree.depth"] = float64(st.MaxDepth)
	m["tree.max_level_width"] = float64(slices.Max(ref.LevelWidths()))
	m["kernel.tabulate_s"] = median(tabS)
	m["kernel.tabulate_rows"] = float64(tabRows)
	m["kernel.tabulate_rows_per_s"] = float64(tabRows) / median(tabS)
	m["kernel.tabulate_root_rows_per_s"] = n / median(rootS)
	m["tree.score_s"] = median(scoreS)
	m["tree.score_nodes"] = float64(scoreN)
	m["tree.score_us_per_node"] = median(scoreS) * 1e6 / float64(scoreN)
	m["tree.route_s"] = median(routeS)
	m["tree.route_rows"] = float64(routeRows)
	m["tree.route_rows_per_s"] = float64(routeRows) / median(routeS)
	layers := median(tabS) + median(scoreS) + median(routeS)
	m["tree.replay_coverage"] = layers / serial

	var empty []float64
	for i := 0; i < 200; i++ {
		w := mp.NewWorld(procs, mp.SP2())
		t0 := time.Now()
		w.Run(func(c *mp.Comm) {})
		empty = append(empty, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	m["mp.world_run_us"] = median(empty)
	aid := rec.begin("mp.allreduce", -1, 0, 0)
	arWall, arCalls, arBytes := allreduceReplay(ref, opts, rec, aid)
	rec.end(aid)
	m["mp.allreduce_s"] = arWall.Seconds()
	m["mp.allreduce_calls"] = float64(arCalls)
	m["mp.allreduce_mb_per_s"] = rate(float64(arBytes)/1e6, arWall)

	// One rank's rows through the record codec, as the hybrid's shuffle
	// moves them.
	blk := bd.blocks[0]
	id := rec.begin("dataset.codec_encode", -1, 0, 0)
	wire := dataset.EncodeRows(nil, blk, blk.AllIndex())
	rec.end(id)
	id = rec.begin("dataset.codec_decode", -1, 0, 0)
	err := dataset.Decode(dataset.New(blk.Schema, blk.Len()), blk.Schema, wire)
	rec.end(id)
	if err != nil {
		panic(err)
	}
	enc := rec.total("dataset.codec_encode")
	dec := rec.total("dataset.codec_decode")
	m["dataset.codec_encode_mb_per_s"] = rate(float64(len(wire))/1e6, enc)
	m["dataset.codec_decode_mb_per_s"] = rate(float64(len(wire))/1e6, dec)
	wire = nil

	// Real builds, alternately without and with per-rank spans: the plain
	// ones give core.build_s, the difference is the cost of tracing.
	ck := &checker{ref: ref}
	e.op(ck.check(cfg.buildOnce(bd, nil, -1, -1)))
	var plain, traced, allocMB, mallocs, gcs []float64
	var last buildOut
	bid := rec.begin("core.builds", -1, 0, 0)
	start := time.Now()
	for rep := 0; len(traced) < 2 || time.Since(start).Seconds()+median(plain) < e.seconds/2; rep++ {
		r := rec
		if rep%2 == 0 {
			r = nil
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out := cfg.buildOnce(bd, r, bid, rep)
		runtime.ReadMemStats(&after)
		e.op(ck.check(out))
		if r == nil {
			plain = append(plain, out.wall.Seconds())
		} else {
			traced = append(traced, out.wall.Seconds())
		}
		allocMB = append(allocMB, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
		mallocs = append(mallocs, float64(after.Mallocs-before.Mallocs))
		gcs = append(gcs, float64(after.NumGC-before.NumGC))
		last = out
	}
	rec.end(bid)
	build := median(plain)
	m["core.build_s"] = build
	m["core.parallel_vs_serial"] = serial / build
	m["core.overhead_vs_replay"] = build / (layers / procs)
	m["core.alloc_mb_per_build"] = median(allocMB)
	m["core.mallocs_per_build"] = median(mallocs)
	m["core.gc_cycles_per_build"] = median(gcs)
	m["core.rep_spread"] = spread(append(plain, traced...))
	m["bench.trace_overhead_share"] = median(traced)/build - 1
	bk := last.world.Breakdown()
	m["mp.comm_bytes"] = float64(last.world.Traffic().Bytes)
	m["mp.modeled_s"] = last.world.MaxClock()
	m["mp.modeled_reduction_s"] = phaseCommTime(bk, core.PhaseReduction)
	m["mp.modeled_moving_s"] = phaseCommTime(bk, core.PhaseMoving)
	e.note("%d plain and %d traced builds of %d rows; replay covers %.2f of tree.BuildBFS", len(plain), len(traced), bd.rows, m["tree.replay_coverage"])
	return m
}
