package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"partree/internal/quest"
	"partree/internal/tree"
)

// writeModel writes a small tree-JSON model and returns its path.
func writeModel(t *testing.T) string {
	t.Helper()
	d, err := quest.Generate(quest.Config{Function: 2, Seed: 3}, 200)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.WriteJSON(f, tree.BuildHunt(d, tree.Options{Binary: true, MaxDepth: 3})); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunRejects: a malformed -model spec or an unknown flag exits with
// status 2 before any model is loaded, even when a valid spec precedes
// the bad one.
func TestRunRejects(t *testing.T) {
	ok := "a=" + writeModel(t)
	for _, args := range [][]string{
		{"-model", ok, "-model", "bogus"},
		{"-model", ok, "-model", "=x.json"},
		{"-model", ok, "-model", "b="},
		{"-nosuch"},
		{"-max-batch", "many"},
	} {
		var stdout, stderr bytes.Buffer
		err := run(append(args, "-addr", "127.0.0.1:0"), &stdout, &stderr)
		if code := exitCode(err); code != 2 {
			t.Errorf("%v: error %v exits %d, want 2", args, err, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: loaded or served before rejecting: %q", args, stdout.String())
		}
	}
}

// TestRunHelp: -h is not a failure (exit status 0) and loads nothing.
func TestRunHelp(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-h", "-model", "a=" + writeModel(t)}, &stdout, &stderr)
	if code := exitCode(err); code != 0 {
		t.Errorf("-h: error %v exits %d, want 0", err, code)
	}
	if stdout.Len() != 0 {
		t.Errorf("-h: wrote %q to stdout", stdout.String())
	}
	if !strings.Contains(stderr.String(), "-model") {
		t.Errorf("-h: usage %q does not list -model", stderr.String())
	}
}

// TestRunPreloads: well-formed specs preload in order; a model that
// cannot be read is marked degraded instead of failing boot, and a
// listen failure then exits with status 1.
func TestRunPreloads(t *testing.T) {
	var stdout, stderr bytes.Buffer
	missing := filepath.Join(t.TempDir(), "missing.json")
	err := run([]string{"-model", "a=" + writeModel(t), "-model", "b=" + missing, "-addr", "127.0.0.1:99999"}, &stdout, &stderr)
	if code := exitCode(err); code != 1 {
		t.Errorf("bad listen address: error %v exits %d, want 1", err, code)
	}
	if !strings.Contains(stdout.String(), `"a"`) || !strings.Contains(stdout.String(), "1 model(s) degraded") {
		t.Errorf("stdout %q: want model a loaded and one degraded", stdout.String())
	}
	if !strings.Contains(stderr.String(), `model "b" degraded`) {
		t.Errorf("stderr %q: want model b degraded", stderr.String())
	}
}
