// Command dtload is the closed-loop load harness for the serving stack.
// It has two modes, both feeding the committed BENCH_serve.json
// trajectory:
//
// HTTP mode (default) drives a running dtserve with a fixed number of
// concurrent closed-loop workers — each worker POSTs a prebuilt
// /v1/predict batch, waits for the reply, and immediately posts the next
// — sweeping a list of concurrency levels and recording client-side
// throughput and latency quantiles per level:
//
//	dtserve -addr :8080 -model grove=grove.json &
//	dtload -url http://localhost:8080 -model grove -conc 1,2,4,8 -duration 5s
//
// Self-bench mode (-selfbench) needs no server: it trains forests of the
// configured sizes in process, compiles them, and measures the fused
// interleaved layout against the naive per-tree serving baseline (every
// member walks the whole batch through its own flat model, votes in a
// full row×class matrix) and against a single flat tree — the numbers
// behind the fused-layout acceptance gates (≥5x naive at 100 trees,
// within 10% of a single tree at 1 tree):
//
//	dtload -selfbench -rows 100000 -trees 1,10,100 -o BENCH_serve.json
//
// With -o the results merge into the named JSON file ("local" section
// for -selfbench, "http" section for HTTP runs), preserving the other
// section — CI regenerates one row and diffs schema keys.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"partree/internal/dataset"
	"partree/internal/forest"
	"partree/internal/quest"
	"partree/internal/serve"
	"partree/internal/tree"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	var f flagError
	if err != nil && !errors.Is(err, flag.ErrHelp) && !errors.As(err, &f) {
		fmt.Fprintln(os.Stderr, "dtload:", err)
	}
	os.Exit(exitCode(err))
}

// usageError is a rejected command line. It is returned before anything
// is measured or written.
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

// run parses args, runs the self-bench or the HTTP sweep, and merges the
// result into -o when one is named.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dtload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		url      = fs.String("url", "http://localhost:8080", "dtserve base URL (HTTP mode)")
		model    = fs.String("model", "quest", "model name to query (HTTP mode)")
		batch    = fs.Int("batch", 256, "records per request (HTTP mode)")
		concList = fs.String("conc", "1,2,4,8", "comma-separated closed-loop worker counts to sweep (HTTP mode)")
		duration = fs.Duration("duration", 5*time.Second, "measurement window per concurrency level (HTTP mode)")
		warmup   = fs.Duration("warmup", 500*time.Millisecond, "per-level warmup excluded from measurement (HTTP mode)")

		selfbench = fs.Bool("selfbench", false, "run the in-process fused-vs-naive benchmark instead of HTTP load")
		rows      = fs.Int("rows", 100000, "batch rows for -selfbench")
		trainRows = fs.Int("train-rows", 20000, "training rows per -selfbench forest (batch size is -rows)")
		treesList = fs.String("trees", "1,10,100", "comma-separated forest sizes for -selfbench")
		maxDepth  = fs.Int("maxdepth", 8, "member depth limit for -selfbench forests")
		builder   = fs.String("builder", "hunt", "member builder for -selfbench forests")
		minTime   = fs.Duration("min-time", 2*time.Second, "minimum measurement time per -selfbench configuration")

		fn   = fs.Int("function", 2, "Quest classification function for generated records")
		seed = fs.Uint64("seed", 1998, "generator seed")
		out  = fs.String("o", "", "merge results into this BENCH JSON file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return flagError{err}
	}

	if *selfbench {
		sizes, err := parseInts(*treesList)
		if err != nil {
			return err
		}
		res, err := runSelfBench(stdout, *rows, *trainRows, sizes, *maxDepth, *builder, *fn, *seed, *minTime)
		if err != nil {
			return err
		}
		return emit(stdout, *out, "local", res)
	}
	concs, err := parseInts(*concList)
	if err != nil {
		return err
	}
	res, err := runHTTP(stdout, *url, *model, *batch, concs, *duration, *warmup, *fn, *seed)
	if err != nil {
		return err
	}
	return emit(stdout, *out, "http", res)
}

// parseInts parses a comma-separated list of positive integers.
func parseInts(s string) ([]int, error) {
	var out []int
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.Atoi(p)
		if err != nil || v < 1 {
			return nil, usageError(fmt.Sprintf("bad list entry %q", p))
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, usageError("empty list")
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Self-bench mode

// selfConfig is one measured forest size in the "local" section.
type selfConfig struct {
	Trees              int     `json:"trees"`
	MaxDepth           int     `json:"maxdepth"`
	Builder            string  `json:"builder"`
	FusedNodes         int     `json:"fused_nodes"`
	FusedRowsPerSec    float64 `json:"fused_rows_per_sec"`
	NaiveRowsPerSec    float64 `json:"naive_rows_per_sec"`
	SingleRowsPerSec   float64 `json:"single_tree_rows_per_sec"`
	SpeedupVsNaive     float64 `json:"speedup_fused_vs_naive"`
	FusedVsSingleRatio float64 `json:"fused_vs_single_ratio"`
}

type selfResult struct {
	BatchRows int          `json:"batch_rows"`
	TrainRows int          `json:"train_rows"`
	Function  int          `json:"function"`
	Seed      uint64       `json:"seed"`
	Configs   []selfConfig `json:"configs"`
}

func runSelfBench(stdout io.Writer, rows, trainRows int, sizes []int, maxDepth int, builder string, fn int, seed uint64, minTime time.Duration) (*selfResult, error) {
	train, err := quest.Generate(quest.Config{Function: fn, Seed: seed}, trainRows)
	if err != nil {
		return nil, err
	}
	batch, err := quest.Generate(quest.Config{Function: fn, Seed: seed + 1}, rows)
	if err != nil {
		return nil, err
	}
	res := &selfResult{BatchRows: rows, TrainRows: trainRows, Function: fn, Seed: seed}
	out := make([]int32, rows)
	for _, trees := range sizes {
		f, err := forest.Train(train, forest.Config{
			Trees:     trees,
			Builder:   builder,
			Seed:      seed,
			Bootstrap: true,
			Tree:      tree.Options{Binary: true, MaxDepth: maxDepth},
		})
		if err != nil {
			return nil, err
		}
		fz, err := forest.Compile(f)
		if err != nil {
			return nil, err
		}
		single := fz.Members[0]
		fused := measure(minTime, rows, func() { fz.PredictInto(batch, out, 0, rows) })
		naive := measure(minTime, rows, func() { fz.PredictNaiveInto(batch, out, 0, rows) })
		singleRate := measure(minTime, rows, func() { single.PredictInto(batch, out, 0, rows) })
		cfg := selfConfig{
			Trees:              trees,
			MaxDepth:           maxDepth,
			Builder:            builder,
			FusedNodes:         fz.Nodes(),
			FusedRowsPerSec:    fused,
			NaiveRowsPerSec:    naive,
			SingleRowsPerSec:   singleRate,
			SpeedupVsNaive:     fused / naive,
			FusedVsSingleRatio: fused / singleRate,
		}
		res.Configs = append(res.Configs, cfg)
		fmt.Fprintf(stdout, "trees=%-4d nodes=%-7d fused %.0f rows/s  naive %.0f rows/s  single %.0f rows/s  speedup %.2fx  vs-single %.3f\n",
			trees, cfg.FusedNodes, fused, naive, singleRate, cfg.SpeedupVsNaive, cfg.FusedVsSingleRatio)
	}
	return res, nil
}

// measure repeats body until minTime has elapsed and returns rows/sec.
func measure(minTime time.Duration, rows int, body func()) float64 {
	body() // warm caches and page in tables
	start := time.Now()
	reps := 0
	for time.Since(start) < minTime {
		body()
		reps++
	}
	return float64(rows*reps) / time.Since(start).Seconds()
}

// ---------------------------------------------------------------------------
// HTTP mode

// httpLevel is one concurrency level of the sweep.
type httpLevel struct {
	Conc       int     `json:"conc"`
	Requests   int64   `json:"requests"`
	Errors     int64   `json:"errors"`
	ReqPerSec  float64 `json:"requests_per_sec"`
	RowsPerSec float64 `json:"rows_per_sec"`
	P50MS      float64 `json:"p50_ms"`
	P95MS      float64 `json:"p95_ms"`
	P99MS      float64 `json:"p99_ms"`
}

type httpResult struct {
	Model    string      `json:"model"`
	BatchPer int         `json:"rows_per_request"`
	Levels   []httpLevel `json:"levels"`
}

func runHTTP(stdout io.Writer, base, model string, batch int, concs []int, duration, warmup time.Duration, fn int, seed uint64) (*httpResult, error) {
	// Prebuild a handful of distinct request bodies so the server sees
	// varied rows while the client does no JSON work on the hot path.
	const bodies = 8
	d, err := quest.Generate(quest.Config{Function: fn, Seed: seed}, batch*bodies)
	if err != nil {
		return nil, err
	}
	reqs := make([][]byte, bodies)
	for b := 0; b < bodies; b++ {
		reqs[b], err = predictBody(model, d, b*batch, (b+1)*batch)
		if err != nil {
			return nil, err
		}
	}
	maxConc := 0
	for _, c := range concs {
		if c > maxConc {
			maxConc = c
		}
	}
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        maxConc * 2,
		MaxIdleConnsPerHost: maxConc * 2,
	}}
	// Fail fast if the server or model is absent before sweeping.
	if err := probe(client, base, model, reqs[0]); err != nil {
		return nil, err
	}

	res := &httpResult{Model: model, BatchPer: batch}
	for _, conc := range concs {
		lv, err := runLevel(client, base, conc, batch, duration, warmup, reqs)
		if err != nil {
			return nil, err
		}
		res.Levels = append(res.Levels, *lv)
		fmt.Fprintf(stdout, "conc=%-3d %7.1f req/s  %9.0f rows/s  p50 %.2fms  p95 %.2fms  p99 %.2fms  errors %d\n",
			conc, lv.ReqPerSec, lv.RowsPerSec, lv.P50MS, lv.P95MS, lv.P99MS, lv.Errors)
	}
	return res, nil
}

func probe(client *http.Client, base, model string, body []byte) error {
	resp, err := client.Post(base+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("probing %s: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("probe of model %q got %d: %s", model, resp.StatusCode, msg)
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

// runLevel runs one closed-loop concurrency level: conc workers, each
// posting its next prebuilt body the moment the previous reply is fully
// read. Client-side latency lands in a lock-free histogram; the
// measurement window starts after the warmup so connection setup and
// first-touch effects stay out of the quantiles.
func runLevel(client *http.Client, base string, conc, batch int, duration, warmup time.Duration, reqs [][]byte) (*httpLevel, error) {
	hist := serve.NewHist()
	var requests, errs atomic.Int64
	var measuring atomic.Bool
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				start := time.Now()
				resp, err := client.Post(base+"/v1/predict", "application/json",
					bytes.NewReader(reqs[i%len(reqs)]))
				ok := err == nil && resp.StatusCode == http.StatusOK
				if resp != nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				if measuring.Load() {
					requests.Add(1)
					if !ok {
						errs.Add(1)
					}
					hist.Observe(float64(time.Since(start).Nanoseconds()) / 1e6)
				}
			}
		}(w)
	}
	time.Sleep(warmup)
	measuring.Store(true)
	measStart := time.Now()
	time.Sleep(duration)
	measuring.Store(false)
	elapsed := time.Since(measStart).Seconds()
	close(stop)
	wg.Wait()

	n := requests.Load()
	lv := &httpLevel{
		Conc:       conc,
		Requests:   n,
		Errors:     errs.Load(),
		ReqPerSec:  float64(n) / elapsed,
		RowsPerSec: float64(n) * float64(batch) / elapsed,
		P50MS:      hist.Quantile(0.5),
		P95MS:      hist.Quantile(0.95),
		P99MS:      hist.Quantile(0.99),
	}
	if n == 0 {
		return nil, fmt.Errorf("concurrency %d completed no requests in %s", conc, duration)
	}
	return lv, nil
}

// predictBody renders rows [lo, hi) of d as a /v1/predict request body.
func predictBody(model string, d *dataset.Dataset, lo, hi int) ([]byte, error) {
	records := make([]map[string]interface{}, 0, hi-lo)
	for i := lo; i < hi; i++ {
		rec := make(map[string]interface{}, d.Schema.NumAttrs())
		for a, attr := range d.Schema.Attrs {
			if attr.Kind == dataset.Categorical {
				rec[attr.Name] = attr.Values[d.Cat[a][i]]
			} else {
				rec[attr.Name] = d.Cont[a][i]
			}
		}
		records = append(records, rec)
	}
	return json.Marshal(map[string]interface{}{"model": model, "records": records})
}

// ---------------------------------------------------------------------------
// BENCH JSON merge

// emit merges section into the BENCH file at path under key, preserving
// other sections; with no path it writes nothing.
func emit(stdout io.Writer, path, key string, section interface{}) error {
	if path == "" {
		return nil
	}
	doc := map[string]json.RawMessage{}
	if old, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(old, &doc); err != nil {
			return fmt.Errorf("existing %s is not a JSON object: %w", path, err)
		}
	}
	doc["benchmark"], _ = json.Marshal("serve")
	raw, err := json.Marshal(section)
	if err != nil {
		return err
	}
	doc[key] = raw
	// Deterministic key order for a committed artifact.
	keys := make([]string, 0, len(doc))
	for k := range doc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf bytes.Buffer
	buf.WriteString("{\n")
	for i, k := range keys {
		var pretty bytes.Buffer
		if err := json.Indent(&pretty, doc[k], " ", " "); err != nil {
			return err
		}
		fmt.Fprintf(&buf, " %q: %s", k, pretty.Bytes())
		if i < len(keys)-1 {
			buf.WriteString(",")
		}
		buf.WriteString("\n")
	}
	buf.WriteString("}\n")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s section written to %s\n", key, path)
	return nil
}
