package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecMatchesBenchmarkJSON keeps the program's vocabulary and the
// declared one equal, and both inside the limits the driver enforces.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Paths) != 1 || decl.Paths[0] != "bench" || strings.Join(decl.Command, " ") != "bash bench/run.sh" {
		t.Errorf("command %v paths %v", decl.Command, decl.Paths)
	}
	if decl.RunSeconds != runSeconds || decl.RunSeconds < 1 || decl.RunSeconds > 60 {
		t.Errorf("run_seconds %d", decl.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		name(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: declared %q %q, implemented %q %q", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
	}
	if len(decl.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d implemented", len(decl.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range decl.EndToEnd {
		name(m.Name)
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: declared %+v, implemented %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end %s: unit %q better %q bound %g", m.Name, m.Unit, m.Better, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(decl.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics declared, %d implemented", len(decl.PerLayer), len(perLayer))
	}
	for i, m := range decl.PerLayer {
		name(m.Name)
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || !unitRE.MatchString(m.Unit) {
			t.Errorf("per-layer %d: declared %+v, implemented %+v", i, m, d)
		}
	}
}

// smoke runs one workload in this process at a hundredth of its size and
// returns its result and the counts it came by on the way.
func smoke(t *testing.T, w *workloadDef, trace bool) (result, map[string]float64) {
	t.Helper()
	e := &env{seed: 7, seconds: 0.2, scale: 0.01, outDir: t.TempDir()}
	defs := endToEnd
	if trace {
		e.rec = newRecorder(w.Name)
		defs = perLayer
	}
	res, err := runWorkload(w, e, defs)
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s trace %v: %d of %d operations failed: %v", w.Name, trace, res.Failed, res.Attempted, e.notes)
	}
	if trace {
		buf, err := os.ReadFile(filepath.Join(e.outDir, "trace_"+w.Name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var tr struct {
			TraceEvents []struct {
				Name string  `json:"name"`
				Ph   string  `json:"ph"`
				Dur  float64 `json:"dur"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf, &tr); err != nil || len(tr.TraceEvents) == 0 {
			t.Fatalf("%s: trace file does not load: %v", w.Name, err)
		}
	}
	return res, e.counts
}

// TestWorkloadsSmoke runs every workload untraced once and traced twice. The
// oracles must pass (every build equals the serial tree, the replay tree
// equals tree.BuildBFS, served and scored classes equal the pointer walk),
// the emitted names must be exactly the declared ones, timed end-to-end
// metrics must not be 0, and counts must repeat exactly: between the two
// traced runs, and between the untraced run and a traced one for the counts
// an untraced run comes by.
func TestWorkloadsSmoke(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			res, plainCounts := smoke(t, w, false)
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("%d end-to-end metrics, want %d", len(res.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit || !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %+v", d.Name, m)
				}
			}
			a, _ := smoke(t, w, true)
			b, _ := smoke(t, w, true)
			if len(plainCounts) == 0 {
				t.Error("the untraced run kept no count")
			}
			for name, v := range plainCounts {
				if got, ok := a.Metrics[name]; !ok || got.Value != v {
					t.Errorf("count %s: %v untraced, %+v traced", name, v, got)
				}
			}
			if len(a.Metrics) != len(perLayer) {
				t.Errorf("%d per-layer metrics, want %d", len(a.Metrics), len(perLayer))
			}
			for _, d := range perLayer {
				ma, ok := a.Metrics[d.Name]
				if !ok || ma.Unit != d.Unit || math.IsNaN(ma.Value) || math.IsInf(ma.Value, 0) {
					t.Errorf("%s = %+v", d.Name, ma)
				}
				if d.Count && ma.Value != b.Metrics[d.Name].Value {
					t.Errorf("count %s moved between two runs: %v, %v", d.Name, ma.Value, b.Metrics[d.Name].Value)
				}
			}
		})
	}
}

// TestResultLine checks the shape of the line the driver reads.
func TestResultLine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var out, errw bytes.Buffer
	code := run([]string{"--workload", "stc_deep", "--seed", "3", "--seconds", "1", "--trace", "0", "-scale", "0.01", "-out", t.TempDir()}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
		t.Errorf("last line has keys %v", got)
	}
	if code := run([]string{"--workload", "nope"}, &out, &errw); code == 0 {
		t.Error("unknown workload accepted")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles %g %g, want 3.5 31", q1, q3)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median %g", m)
	}
	if p := percentile([]float64{5, 1, 4, 2, 3}, 0.95); p != 5 {
		t.Errorf("p95 %g", p)
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name  string
		b     []float64
		lower bool
		want  string
	}{
		{"same", []float64{101, 100, 100, 99, 103}, true, "same"},
		{"worse", []float64{120, 121, 119, 122, 120}, true, "worse"},
		{"better", []float64{80, 81, 79, 82, 80}, true, "better"},
		{"higher is better", []float64{80, 81, 79, 82, 80}, false, "worse"},
		{"wide and overlapping", []float64{80, 130, 95, 140, 70}, true, "unresolved"},
		{"wide but separated", []float64{150, 190, 230, 170, 300}, true, "worse"},
		{"missing", nil, true, "missing"},
	} {
		if got := verdict(steady, c.b, c.lower, 0.10); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	r := newRecorder("t")
	p := r.add("parent", -1, 0, 10, 0, 1)
	r.add("step", p, 0, 3, 0, 1) // two steps on the parent's own track add up
	r.add("step", p, 3, 4, 0, 1)
	q := r.add("fanout", -1, 10, 10, 0, 1)
	r.spans = append(r.spans, span{Name: "rank", Parent: q, Tid: 1, Dur: 6}, span{Name: "rank", Parent: q, Tid: 2, Dur: 8}) // side by side: the longer counts
	self := r.selfTimes()
	if self["parent"] != 3 || self["step"] != 7 || self["fanout"] != 2 || self["rank"] != 14 {
		t.Errorf("self times %v", self)
	}
}

// TestCompareFailedShare: one failed operation on side B is a regression,
// whatever the timed metrics say.
func TestCompareFailedShare(t *testing.T) {
	write := func(failed int) string {
		var f suiteFile
		for _, w := range workloads {
			f.Runs = append(f.Runs, suiteRun{Workload: w.Name, result: result{Attempted: 10, Metrics: map[string]metric{}}})
		}
		f.Runs[2].Failed = failed
		buf, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "results.json")
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	clean, failing := write(0), write(1)
	var out, errw bytes.Buffer
	if code := runCompare([]string{failing, clean}, &out, &errw); code != 0 {
		t.Errorf("clean side B: exit %d\n%s%s", code, out.String(), errw.String())
	}
	out.Reset()
	if code := runCompare([]string{clean, failing}, &out, &errw); code != 1 || !strings.Contains(out.String(), "0.1 (1 of 10)") {
		t.Errorf("failing side B: exit %d\n%s", code, out.String())
	}
}
