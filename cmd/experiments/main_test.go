package main

import (
	"bytes"
	"strings"
	"testing"

	"partree/internal/dataset"
	"partree/internal/tree"
)

// TestRunTables: the Figure 1 block is Hunt's tree of the weather set,
// and it ends the output.
func TestRunTables(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"tables"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	const head = "\n== Figure 1: Hunt's method final tree on Table 1 ==\n"
	out := stdout.String()
	i := strings.Index(out, head)
	if i < 0 {
		t.Fatalf("no Figure 1 block in:\n%s", out)
	}
	want := tree.BuildHunt(dataset.Weather(), tree.Options{}).String()
	if got := out[i+len(head):]; got != want {
		t.Errorf("Figure 1 block:\n%s\nwant:\n%s", got, want)
	}
	if stderr.Len() != 0 {
		t.Errorf("stderr: %s", stderr.String())
	}
}

// TestRunCompare: the §2.2 comparison prints one row per algorithm and
// processor count, each with a positive modeled time.
func TestRunCompare(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-scale", "0.05", "compare"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	rows := map[string]bool{}
	for _, line := range strings.Split(stdout.String(), "\n") {
		f := strings.Fields(line)
		if len(f) != 5 || f[2] == "0.000" {
			continue
		}
		rows[f[0]+"/"+f[1]] = true
	}
	for _, name := range []string{"hybrid", "parallel-sprint", "scalparc", "dp-att"} {
		for _, p := range []string{"8", "16"} {
			if !rows[name+"/"+p] {
				t.Errorf("no %s row at P=%s in:\n%s", name, p, stdout.String())
			}
		}
	}
}

// TestRunRejects: an unknown experiment, even after a known one, and an
// unknown flag exit with status 2 before any experiment prints.
func TestRunRejects(t *testing.T) {
	for _, args := range [][]string{
		{"nosuch"},
		{"tables", "nosuch"},
		{"-nosuch", "tables"},
	} {
		var stdout, stderr bytes.Buffer
		err := run(args, &stdout, &stderr)
		if code := exitCode(err); code != 2 {
			t.Errorf("%v: error %v exits %d, want 2", args, err, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: wrote %d bytes to stdout", args, stdout.Len())
		}
	}
}

// TestRunHelp: -h is not a failure and runs nothing.
func TestRunHelp(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-h"}, &stdout, &stderr)
	if code := exitCode(err); code != 0 {
		t.Errorf("-h: error %v exits %d, want 0", err, code)
	}
	if stdout.Len() != 0 {
		t.Errorf("-h: wrote %d bytes to stdout", stdout.Len())
	}
}
