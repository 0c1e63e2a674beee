package main

// The benchmark's vocabulary: workloads, end-to-end metrics and per-layer
// metrics. BENCHMARK.json at the repository root declares the same names;
// TestSpecMatchesBenchmarkJSON keeps the two lists equal.

// procs is both GOMAXPROCS and the number of mp ranks: the sandbox has two
// cores, and with more ranks than cores wall-clock scaling says nothing.
const procs = 2

// runSeconds is how long one run measures unless -seconds says otherwise;
// BENCHMARK.json declares the same number as run_seconds.
const runSeconds = 12

// dataSeed fixes the Quest training multiset of every workload, hence the
// tree or model: -seed only reorders rows and draws the scored records, so
// every seed grows the same tree and counts repeat exactly across seeds (a
// fresh multiset moves a grown-to-purity tree's size by ±15 %).
const dataSeed = 1998

// httpClients is the closed-loop client count of serve_tree1: dtserve's
// callers (dtload, batch scorers) each wait for a reply before sending the
// next request, and two of them keep both cores busy.
const httpClients = 2

type workloadDef struct {
	Name string
	Why  string
	run  func(e *env) map[string]float64
}

var workloads = []workloadDef{
	{"stc_shallow", "BuildSync, 500k rows, binary, depth 6: few big nodes, so kernel tabulate and tree row routing are the work", buildWorkload(buildCfg{rows: 500000, binary: true, maxDepth: 6})},
	{"stc_deep", "BuildSync, 100k rows, binary, unlimited depth: thousands of small nodes, so criteria/tree split scoring is the work", buildWorkload(buildCfg{rows: 100000, binary: true})},
	{"stc_wide", "BuildSync, 1M rows, multiway, unlimited depth: 1e5-node frontier, so mp reduction and per-level allocation are the work", buildWorkload(buildCfg{rows: 1000000})},
	{"hybrid_wide", "BuildHybrid on the stc_wide data: same tree, but mp shuffles records through the dataset codec instead of reducing", buildWorkload(buildCfg{rows: 1000000, hybrid: true})},
	{"stc_store", "BuildSyncOOC over an on-disk dataset.Store of the stc_shallow rows: same tree through chunk decode and int32 slots", buildWorkload(buildCfg{rows: 500000, binary: true, maxDepth: 6, store: true})},
	{"serve_tree1", "in-process dtserve, one sprint tree, 2 closed-loop clients posting 256-record JSON bodies: request decode and encode are the work", runServe},
	{"score_forest100", "PredictBatch of a 100-tree fused forest over a 100k-row columnar batch: the fused walk is the work, JSON none", runScore},
}

type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only: share of the parent's median it may worsen
	Count  bool    // per-layer only: repeats exactly for a fixed seed and scale
}

var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "rows_per_s", Unit: "rows/s", Better: "higher", Bound: 0.20},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "latency_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10},
}

var perLayer = []metricDef{
	// set-up layers
	{Name: "quest.generate_rows_per_s", Unit: "rows/s", Better: "higher"},
	{Name: "discretize.recode_rows_per_s", Unit: "rows/s", Better: "higher"},
	{Name: "dataset.block_partition_s", Unit: "s", Better: "lower"},
	{Name: "forest.train_s", Unit: "s", Better: "lower"},
	{Name: "forest.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "flat.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "tree.model_read_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.registry_load_ms", Unit: "ms", Better: "lower"},
	// statistics kernel
	{Name: "kernel.tabulate_s", Unit: "s", Better: "lower"},
	{Name: "kernel.tabulate_rows", Unit: "count", Better: "lower", Count: true},
	{Name: "kernel.tabulate_rows_per_s", Unit: "rows/s", Better: "higher"},
	{Name: "kernel.tabulate_root_rows_per_s", Unit: "rows/s", Better: "higher"},
	// split scoring and row routing
	{Name: "tree.score_s", Unit: "s", Better: "lower"},
	{Name: "tree.score_nodes", Unit: "count", Better: "lower", Count: true},
	{Name: "tree.score_us_per_node", Unit: "us", Better: "lower"},
	{Name: "tree.route_s", Unit: "s", Better: "lower"},
	{Name: "tree.route_rows", Unit: "count", Better: "lower", Count: true},
	{Name: "tree.route_rows_per_s", Unit: "rows/s", Better: "higher"},
	{Name: "tree.serial_bfs_s", Unit: "s", Better: "lower"},
	{Name: "tree.replay_coverage", Unit: "ratio", Better: "higher"},
	{Name: "tree.nodes", Unit: "count", Better: "lower", Count: true},
	{Name: "tree.depth", Unit: "count", Better: "lower", Count: true},
	{Name: "tree.max_level_width", Unit: "count", Better: "lower", Count: true},
	// message passing
	{Name: "mp.world_run_us", Unit: "us", Better: "lower"},
	{Name: "mp.allreduce_s", Unit: "s", Better: "lower"},
	{Name: "mp.allreduce_calls", Unit: "count", Better: "lower", Count: true},
	{Name: "mp.allreduce_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "mp.comm_bytes", Unit: "count", Better: "lower", Count: true},
	{Name: "mp.modeled_s", Unit: "s", Better: "lower", Count: true},
	{Name: "mp.modeled_reduction_s", Unit: "s", Better: "lower", Count: true},
	{Name: "mp.modeled_moving_s", Unit: "s", Better: "lower", Count: true},
	// record codec and column store
	{Name: "dataset.codec_encode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "dataset.codec_decode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "dataset.store_write_rows_per_s", Unit: "rows/s", Better: "higher"},
	{Name: "dataset.store_read_rows_per_s", Unit: "rows/s", Better: "higher"},
	{Name: "dataset.store_read_bytes", Unit: "count", Better: "lower", Count: true},
	{Name: "dataset.store_encoded_mb", Unit: "MB", Better: "lower", Count: true},
	// the parallel builder as a whole
	{Name: "core.build_s", Unit: "s", Better: "lower"},
	{Name: "core.parallel_vs_serial", Unit: "ratio", Better: "higher"},
	{Name: "core.overhead_vs_replay", Unit: "ratio", Better: "lower"},
	{Name: "core.alloc_mb_per_build", Unit: "MB", Better: "lower"},
	{Name: "core.mallocs_per_build", Unit: "count", Better: "lower"},
	{Name: "core.gc_cycles_per_build", Unit: "count", Better: "lower"},
	{Name: "core.rep_spread", Unit: "ratio", Better: "lower"},
	// inference
	{Name: "forest.fused_rows_per_s", Unit: "rows/s", Better: "higher"},
	{Name: "flat.rows_per_s", Unit: "rows/s", Better: "higher"},
	{Name: "forest.fused_nodes", Unit: "count", Better: "lower", Count: true},
	{Name: "predict.batch_rows_per_s", Unit: "rows/s", Better: "higher"},
	{Name: "predict.batch256_us", Unit: "us", Better: "lower"},
	{Name: "predict.pool_overhead_us", Unit: "us", Better: "lower"},
	// serving
	{Name: "serve.handler_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.http_conc1_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.transport_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.server_window_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.json_decode_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.request_bytes", Unit: "count", Better: "lower", Count: true},
	{Name: "serve.response_bytes", Unit: "count", Better: "lower", Count: true},
	{Name: "serve.http_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.requests", Unit: "count", Better: "higher"},
	{Name: "serve.sheds", Unit: "count", Better: "lower"},
	{Name: "serve.errors", Unit: "count", Better: "lower"},
	// the benchmark itself
	{Name: "bench.trace_overhead_share", Unit: "ratio", Better: "lower"},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
