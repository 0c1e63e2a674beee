package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"partree/internal/build"
	"partree/internal/dataset"
	"partree/internal/discretize"
	"partree/internal/fault"
	"partree/internal/flat"
	"partree/internal/kernel"
	"partree/internal/quest"
	"partree/internal/tree"
)

// TestParseFlags pins the flag → build.Spec translation, including the
// combinations it must reject before any data is loaded.
func TestParseFlags(t *testing.T) {
	for _, name := range build.Names() {
		o, err := parseFlags([]string{"-algo", name, "-procs", "3"})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if o.spec.Builder != name || o.spec.Procs != 3 {
			t.Fatalf("%s: spec %+v", name, o.spec)
		}
	}

	cases := []struct {
		name  string
		args  []string
		check func(t *testing.T, o options)
	}{
		{"defaults", nil, func(t *testing.T, o options) {
			if o.spec.Builder != "hybrid" || o.spec.Procs != 8 || !o.spec.Options.Tree.Binary {
				t.Fatalf("spec %+v", o.spec)
			}
			if o.spec.Options.Tree.Reuse != (kernel.Options{}) || o.spec.Options.FT != nil || o.spec.Fault != nil {
				t.Fatalf("defaults enable reuse, fault tolerance or faults: %+v", o.spec)
			}
		}},
		{"reuse", []string{"-reuse"}, func(t *testing.T, o options) {
			want := kernel.Options{Subtraction: true, SparseThreshold: kernel.DefaultSparseThreshold}
			if got := o.spec.Options.Tree.Reuse; got != want {
				t.Fatalf("reuse %+v, want %+v", got, want)
			}
		}},
		{"reuse-sparse", []string{"-reuse", "-sparse", "0.3"}, func(t *testing.T, o options) {
			if got := o.spec.Options.Tree.Reuse; got != (kernel.Options{Subtraction: true, SparseThreshold: 0.3}) {
				t.Fatalf("reuse %+v", got)
			}
		}},
		{"sparse-without-reuse", []string{"-sparse", "0.3"}, func(t *testing.T, o options) {
			if got := o.spec.Options.Tree.Reuse; got != (kernel.Options{}) {
				t.Fatalf("reuse %+v without -reuse", got)
			}
		}},
		{"vote", []string{"-vote-k", "3"}, func(t *testing.T, o options) {
			if o.spec.Options.Tree.Vote.K != 3 {
				t.Fatalf("vote %+v", o.spec.Options.Tree.Vote)
			}
		}},
		{"network", []string{"-topology", "torus", "-coll-algo", "ring", "-hop-latency", "5e-6", "-disk-rate", "2e-9"}, func(t *testing.T, o options) {
			s := o.spec
			if s.Topology != "torus" || s.Coll != "ring" || s.Machine.TH != 5e-6 || s.Machine.TD != 2e-9 {
				t.Fatalf("network spec %+v", s)
			}
		}},
		{"recover", []string{"-algo", "sync", "-recover", "-fault", "crash:1:3"}, func(t *testing.T, o options) {
			if ft := o.spec.Options.FT; ft == nil || ft.Store == nil || ft.Resume {
				t.Fatalf("FT %+v", ft)
			}
			if f := o.spec.Fault.Faults; len(f) != 1 || f[0] != fault.CrashAt(1, fault.CollStart, 3) {
				t.Fatalf("fault plan %+v", f)
			}
		}},
		{"resume", []string{"-algo", "hybrid", "-ckpt-dir", "ck", "-resume", "-fault", "halt:4", "-procs", "3"}, func(t *testing.T, o options) {
			if ft := o.spec.Options.FT; ft == nil || ft.Store != nil || !ft.Resume || o.ckptDir != "ck" {
				t.Fatalf("FT %+v, ckpt dir %q", ft, o.ckptDir)
			}
			if n := len(o.spec.Fault.Faults); n != 3 {
				t.Fatalf("halt plan has %d faults, want one per rank", n)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o, err := parseFlags(tc.args)
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, o)
		})
	}

	for _, args := range [][]string{
		{"-vote-k", "-1"},
		{"-resume"},
		{"-topology", "mesh"},
		{"-coll-algo", "allreduce=bogus"},
		{"-criterion", "chi2"},
		{"-vote", "plurality"},
		{"-fault", "crash:1"},
		{"-fault", "crash:x:3"},
		{"-fault", "meteor:1"},
		{"-procs", "0"},
		{"-algo", "hunt", "-procs", "0", "-fault", "random:1"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("%v: accepted", args)
		}
	}

	for _, args := range [][]string{
		{"-algo", "cart"},
		{"-algo", "hunt", "-recover"},
		{"-algo", "vertical", "-ckpt-dir", "ck"},
	} {
		var ue *build.UnsupportedError
		if _, err := parseFlags(args); !errors.As(err, &ue) {
			t.Errorf("%v: got %v, want an *build.UnsupportedError", args, err)
		}
	}
}

// TestLoadDiscretizedCSV: a CSV of paper-discretized rows, as dtgen
// -discretize writes it, loads to the rows discretize.UniformPaper gives,
// on the paper schema and a widened one; raw rows still load raw, and
// discretizing loaded rows again leaves them as they are.
func TestLoadDiscretizedCSV(t *testing.T) {
	for _, attrs := range []int{0, 12} {
		raw, err := quest.Generate(quest.Config{Function: 2, Seed: 5, Attrs: attrs}, 60)
		if err != nil {
			t.Fatal(err)
		}
		binned := discretize.UniformPaper(raw, quest.PaperBins(), quest.Ranges())
		for _, want := range []*dataset.Dataset{raw, binned} {
			path := filepath.Join(t.TempDir(), "train.csv")
			var buf bytes.Buffer
			if err := dataset.WriteCSV(&buf, want); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := load(path, 0, 0, 0, attrs)
			if err != nil {
				t.Fatalf("attrs=%d, %d continuous: %v", attrs, want.Schema.NumContinuous(), err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("attrs=%d, %d continuous: loaded rows differ from the written ones", attrs, want.Schema.NumContinuous())
			}
			if want == binned && uniform(got) != got {
				t.Fatalf("attrs=%d: discretized rows were discretized again", attrs)
			}
		}
	}
}

// TestLoadReportsFurthestError: a malformed row past the first is
// reported under the schema the file's first row matched.
func TestLoadReportsFurthestError(t *testing.T) {
	raw, err := quest.Generate(quest.Config{Function: 2, Seed: 5}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*dataset.Dataset{raw, discretize.UniformPaper(raw, quest.PaperBins(), quest.Ranges())} {
		var buf bytes.Buffer
		if err := dataset.WriteCSV(&buf, d); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "train.csv")
		if err := os.WriteFile(path, append(buf.Bytes(), "short,row\n"...), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := load(path, 0, 0, 0, 0)
		var ce *dataset.ColumnCountError
		if !errors.As(err, &ce) || ce.Line != 6 {
			t.Fatalf("%d continuous: error %v, want a column count error on line 6", d.Schema.NumContinuous(), err)
		}
	}
}

// TestFlatEvaluator: -flat's accuracy, through the one-member fused
// table and the batch engine, equals the pointer tree's on a multiway
// tree over discretized rows (the bounds-checked walk) and a binary tree
// over raw rows (the step walk). Raw test rows are recoded for the
// discretized model as the CLI does.
func TestFlatEvaluator(t *testing.T) {
	start := runtime.NumGoroutine()
	raw, err := quest.Generate(quest.Config{Function: 2, Seed: 9}, 1500)
	if err != nil {
		t.Fatal(err)
	}
	train, test := raw.Slice(0, 1000), raw.Slice(1000, 1500)
	for _, c := range []struct {
		name string
		tr   *tree.Tree
	}{
		{"multiway", tree.BuildHunt(uniform(train), tree.Options{MaxDepth: 6})},
		{"binary", tree.BuildHunt(train, tree.Options{Binary: true, MaxDepth: 8})},
	} {
		m, err := flat.Compile(c.tr)
		if err != nil {
			t.Fatal(err)
		}
		if multiway := slices.Contains(m.Kind, tree.CatMultiway); multiway != (c.name == "multiway") {
			t.Fatalf("%s tree has CatMultiway nodes: %v", c.name, multiway)
		}
		eval, done := flatEvaluator(c.tr)
		for _, d := range []*dataset.Dataset{train, test} {
			if got, want := eval(c.tr, d), accuracyOn(c.tr, d); got != want {
				t.Fatalf("%s: -flat accuracy %v, pointer tree %v", c.name, got, want)
			}
		}
		done()
	}
	// done stopped every worker the evaluators started. Exiting goroutines
	// may still be unwinding when Close returns, so wait briefly.
	for i := 0; runtime.NumGoroutine() > start; i++ {
		if i == 100 {
			t.Fatalf("%d goroutines after closing the evaluators, %d before", runtime.NumGoroutine(), start)
		}
		time.Sleep(time.Millisecond)
	}
}
