// Command bench is partree's wall-clock benchmark: seven build and serve
// workloads, five end-to-end metrics and a per-layer replay trace. It is a
// module of its own, with its own build file, as the benchmark contract asks
// of a compiled benchmark; layers are timed from outside, through their
// public functions. See README.md.
//
//	bench -workload NAME -seed N -seconds S -trace 0|1   one workload, in this process
//	bench [-sets N]                                      every workload, traced and untraced, each in a child process
//	bench compare A.json B.json                          verdict per (metric × workload)
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// metric is one reported value, in the shape the driver reads.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a workload run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what one workload run is given and what it reports back.
type env struct {
	seed    uint64 // row order, request bodies, scoring batch
	seconds float64
	scale   float64
	outDir  string
	rec     *recorder // nil unless tracing

	attempted, failed int
	notes             []string
	counts            map[string]float64 // untraced runs: per-layer counts seen on the way
}

// rows scales a row count for smoke runs, keeping enough rows to split on.
func (e *env) rows(n int) int {
	n = int(float64(n) * e.scale)
	if n < 2000 {
		n = 2000
	}
	return n
}

func (e *env) note(format string, args ...any) {
	e.notes = append(e.notes, fmt.Sprintf(format, args...))
}

// count keeps a per-layer count an untraced run came by (tree size, modeled
// clock, bytes), under the name the traced run reports it by, so the two
// kinds of run can be held against each other.
func (e *env) count(name string, v float64) {
	if e.counts == nil {
		e.counts = map[string]float64{}
	}
	e.counts[name] = v
	e.note("count %s %v", name, v)
}

// op counts one attempted operation; a failed one carries its reason.
func (e *env) op(err error) {
	e.attempted++
	if err != nil {
		e.failed++
		if e.failed <= 5 {
			e.note("failed operation: %v", err)
		}
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run this one workload in this process and print its result as the last line; empty runs every workload in child processes")
		seed     = fs.Uint64("seed", 1998, "workload seed: training row order, request bodies, scoring batch")
		seconds  = fs.Float64("seconds", runSeconds, "how long one run measures")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics and a Chrome trace")
		scale    = fs.Float64("scale", 1, "shrinks row counts for smoke runs; committed numbers use 1")
		sets     = fs.Int("sets", 1, "suite mode: interleaved sets of runs, for the repeatability check")
		outDir   = fs.String("out", filepath.Join("bench", "out"), "directory for results.json, traces and scratch files")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || *scale <= 0 || *sets < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: bad arguments; see -h")
		return 2
	}
	runtime.GOMAXPROCS(procs)
	if *workload == "" {
		return runSuite(*seed, *seconds, *scale, *sets, *outDir, stdout, stderr)
	}
	w := findWorkload(*workload)
	if w == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	e := &env{seed: *seed, seconds: *seconds, scale: *scale, outDir: *outDir}
	defs := endToEnd
	if *trace == 1 {
		e.rec = newRecorder(w.Name)
		defs = perLayer
	}
	res, err := runWorkload(w, e, defs)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g scale %g trace %d\n", w.Name, *seed, *seconds, *scale, *trace)
	for _, n := range e.notes {
		fmt.Fprintln(stdout, "#", n)
	}
	for _, d := range defs {
		fmt.Fprintf(stdout, "%-34s %16.6g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	fmt.Fprintf(stdout, "%-34s %16.6g ratio (%d of %d operations)\n", "failed_share", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runWorkload runs w and shapes what it measured into a result holding
// exactly the metrics of defs. A per-layer metric the workload has no layer
// for reads 0: that layer did no work.
func runWorkload(w *workloadDef, e *env, defs []metricDef) (res result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("workload %s: %v\n%s", w.Name, p, debug.Stack())
		}
	}()
	got := w.run(e)
	if e.rec != nil {
		path := filepath.Join(e.outDir, "trace_"+w.Name+".json")
		if err := e.rec.writeChrome(path); err != nil {
			return res, err
		}
		e.note("trace %s: %d spans; self time, ms: %s", path, len(e.rec.spans), e.rec.selfSummary())
	}
	res.Metrics = make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := got[d.Name]
		if !ok && e.rec == nil {
			return res, fmt.Errorf("workload %s did not measure %s", w.Name, d.Name)
		}
		delete(got, d.Name)
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	for name := range got {
		return res, fmt.Errorf("workload %s measured undeclared metric %s", w.Name, name)
	}
	if e.attempted == 0 {
		return res, fmt.Errorf("workload %s attempted no operation", w.Name)
	}
	res.Attempted, res.Failed = e.attempted, e.failed
	res.Correct = e.failed == 0
	return res, nil
}

// rssSampler polls the resident set of this process and keeps the maximum.
// ru_maxrss cannot serve: it never comes down, so it would report the peak
// of set-up (generating and recoding data, training a model) for workloads
// whose measured phase needs far less.
type rssSampler struct {
	stop chan struct{}
	done chan float64
}

// startRSS hands the memory set-up no longer needs back to the system and
// starts polling, every 10 ms: resident memory grows by page faults and
// shrinks only by the slow background scavenger, so a peak outlasts the gap.
func startRSS() *rssSampler {
	debug.FreeOSMemory()
	r := &rssSampler{stop: make(chan struct{}), done: make(chan float64)}
	go func() {
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		peak := residentMB()
		for {
			select {
			case <-tick.C:
				peak = max(peak, residentMB())
			case <-r.stop:
				r.done <- max(peak, residentMB())
				return
			}
		}
	}()
	return r
}

// peakMB stops the sampler and returns the highest resident set it saw.
func (r *rssSampler) peakMB() float64 {
	close(r.stop)
	return <-r.done
}

// residentMB reads the resident set from /proc/self/statm.
func residentMB() float64 {
	buf, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		panic(err)
	}
	var size, resident int64
	if _, err := fmt.Sscan(string(buf), &size, &resident); err != nil {
		panic(err)
	}
	return float64(resident*int64(os.Getpagesize())) / (1 << 20)
}

// suiteRun is one child run as results.json keeps it.
type suiteRun struct {
	Set      int      `json:"set"`
	Workload string   `json:"workload"`
	Trace    int      `json:"trace"`
	Notes    []string `json:"notes"`
	result
}

// suiteFile is bench/out/results.json.
type suiteFile struct {
	Host struct {
		NumCPU     int    `json:"nproc"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		GoVersion  string `json:"go_version"`
		Commit     string `json:"commit"`
	} `json:"host"`
	Seed    uint64     `json:"seed"`
	Seconds float64    `json:"seconds"`
	Scale   float64    `json:"scale"`
	Sets    int        `json:"sets"`
	Runs    []suiteRun `json:"runs"`
}

// commit is the revision the binary was built from; run.sh sets it.
var commit = "unknown"

// runSuite runs every workload untraced and traced, each in a child process
// so that peak_rss_mb belongs to one workload, and writes results.json.
// Sets are interleaved (set 0 of every workload, then set 1, …) so that slow
// drift of the host lands on every workload alike.
func runSuite(seed uint64, seconds, scale float64, sets int, outDir string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	var out suiteFile
	out.Host.NumCPU, out.Host.GOMAXPROCS = runtime.NumCPU(), procs
	out.Host.GoVersion, out.Host.Commit = runtime.Version(), commit
	out.Seed, out.Seconds, out.Scale, out.Sets = seed, seconds, scale, sets
	fmt.Fprintf(stdout, "host nproc %d GOMAXPROCS %d %s commit %s\n", out.Host.NumCPU, procs, out.Host.GoVersion, out.Host.Commit)
	status := 0
	for set := 0; set < sets; set++ {
		for _, w := range workloads {
			for trace := 0; trace <= 1; trace++ {
				cmd := exec.Command(self,
					"-workload", w.Name, "-seed", fmt.Sprint(seed),
					"-seconds", fmt.Sprint(seconds), "-scale", fmt.Sprint(scale), "-trace", fmt.Sprint(trace), "-out", outDir)
				var buf bytes.Buffer
				cmd.Stdout, cmd.Stderr = &buf, stderr
				if err := cmd.Run(); err != nil {
					fmt.Fprintf(stderr, "bench: %s trace %d: %v\n", w.Name, trace, err)
					status = 1
					continue
				}
				r := suiteRun{Set: set, Workload: w.Name, Trace: trace}
				var last string
				sc := bufio.NewScanner(&buf)
				sc.Buffer(nil, 1<<20)
				for sc.Scan() {
					last = sc.Text()
					if note, ok := strings.CutPrefix(last, "# "); ok {
						r.Notes = append(r.Notes, note)
					}
					if !strings.HasPrefix(last, "{") {
						fmt.Fprintf(stdout, "[set %d] %s\n", set, last)
					}
				}
				if err := json.Unmarshal([]byte(last), &r.result); err != nil {
					fmt.Fprintf(stderr, "bench: %s trace %d printed no result: %v\n", w.Name, trace, err)
					status = 1
					continue
				}
				if !r.Correct {
					status = 1
				}
				out.Runs = append(out.Runs, r)
			}
		}
	}
	buf, err := json.MarshalIndent(out, "", " ")
	if err == nil {
		err = os.WriteFile(filepath.Join(outDir, "results.json"), append(buf, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s\n", filepath.Join(outDir, "results.json"))
	return status
}
