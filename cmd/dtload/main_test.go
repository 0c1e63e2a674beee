package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"partree/internal/quest"
	"partree/internal/serve"
	"partree/internal/tree"
)

// configKeys returns the sorted keys of doc's local.configs[0].
func configKeys(t *testing.T, doc []byte) []string {
	t.Helper()
	var v struct {
		Local struct {
			Configs []map[string]json.RawMessage `json:"configs"`
		} `json:"local"`
	}
	if err := json.Unmarshal(doc, &v); err != nil {
		t.Fatal(err)
	}
	if len(v.Local.Configs) == 0 {
		t.Fatal("no local.configs")
	}
	var keys []string
	for k := range v.Local.Configs[0] {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// TestRunSelfBench: a tiny -selfbench run writes one local config per
// forest size, keyed like the committed BENCH_serve.json.
func TestRunSelfBench(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	var stdout, stderr bytes.Buffer
	err := run([]string{"-selfbench", "-rows", "2000", "-train-rows", "1000", "-trees", "1,2",
		"-min-time", "1ms", "-o", out}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v (stderr %q)", err, stderr.String())
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	committed, err := os.ReadFile(filepath.Join("..", "..", "BENCH_serve.json"))
	if err != nil {
		t.Fatal(err)
	}
	if g, w := configKeys(t, got), configKeys(t, committed); !slices.Equal(g, w) {
		t.Fatalf("local.configs[0] keys %v, BENCH_serve.json has %v", g, w)
	}
	var v struct {
		Local selfResult `json:"local"`
	}
	if err := json.Unmarshal(got, &v); err != nil {
		t.Fatal(err)
	}
	if len(v.Local.Configs) != 2 || v.Local.Configs[0].Trees != 1 || v.Local.Configs[1].Trees != 2 {
		t.Fatalf("configs %+v, want trees 1 and 2", v.Local.Configs)
	}
}

// TestRunRejectsBadList: a malformed -trees list exits with status 2
// before anything is trained, printed or written.
func TestRunRejectsBadList(t *testing.T) {
	for _, list := range []string{"1,x", "0", ","} {
		out := filepath.Join(t.TempDir(), "bench.json")
		var stdout, stderr bytes.Buffer
		err := run([]string{"-selfbench", "-trees", list, "-o", out}, &stdout, &stderr)
		if code := exitCode(err); code != 2 {
			t.Errorf("-trees %q: error %v exits %d, want 2", list, err, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("-trees %q: wrote %q to stdout", list, stdout.String())
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("-trees %q: -o file exists (stat error %v)", list, err)
		}
	}
}

// TestRunHTTP: an HTTP sweep against a server with one small tree loaded
// records every level, with requests and no errors.
func TestRunHTTP(t *testing.T) {
	d, err := quest.Generate(quest.Config{Function: 2, Seed: 3}, 500)
	if err != nil {
		t.Fatal(err)
	}
	var model bytes.Buffer
	if err := tree.WriteJSON(&model, tree.BuildHunt(d, tree.Options{Binary: true, MaxDepth: 4})); err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Config{Workers: 1})
	defer srv.Close()
	if _, err := srv.Registry().Load("small", &model); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	out := filepath.Join(t.TempDir(), "bench.json")
	var stdout, stderr bytes.Buffer
	err = run([]string{"-url", ts.URL, "-model", "small", "-batch", "16", "-conc", "1,2",
		"-duration", "100ms", "-warmup", "10ms", "-o", out}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v (stderr %q)", err, stderr.String())
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var v struct {
		HTTP httpResult `json:"http"`
	}
	if err := json.Unmarshal(got, &v); err != nil {
		t.Fatal(err)
	}
	if v.HTTP.Model != "small" || v.HTTP.BatchPer != 16 || len(v.HTTP.Levels) != 2 {
		t.Fatalf("http section %+v, want model small, 16 rows per request, 2 levels", v.HTTP)
	}
	for _, lv := range v.HTTP.Levels {
		if lv.Requests == 0 || lv.Errors != 0 {
			t.Errorf("conc %d: %d requests, %d errors", lv.Conc, lv.Requests, lv.Errors)
		}
	}
}
