package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"partree/internal/dataset"
	"partree/internal/discretize"
	"partree/internal/quest"
)

// TestRunRejects: contradictory, out-of-range, unknown or malformed flags
// fail with exit status 2 before anything is written — to stdout, to -o or
// to a store directory.
func TestRunRejects(t *testing.T) {
	for _, args := range [][]string{
		{"-bootstrap", "-ooc", "-o", "DIR"},
		{"-ooc"},
		{"-blocks", "3", "-block", "3", "-o", "DIR"},
		{"-block", "-1", "-o", "DIR"},
		{"-nosuch", "-o", "DIR"},
		{"-n", "many", "-o", "DIR"},
	} {
		dir := filepath.Join(t.TempDir(), "out")
		for i, a := range args {
			if a == "DIR" {
				args[i] = dir
			}
		}
		var stdout bytes.Buffer
		err := run(append(args, "-n", "40"), &stdout)
		if code := exitCode(err); code != 2 {
			t.Errorf("%v: error %v exits %d, want 2", args, err, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: wrote %d bytes to stdout", args, stdout.Len())
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("%v: created %s", args, dir)
		}
	}
}

// TestRunHelp: -h is not a failure (exit status 0) and writes no rows.
func TestRunHelp(t *testing.T) {
	var stdout bytes.Buffer
	err := run([]string{"-h"}, &stdout)
	if code := exitCode(err); code != 0 {
		t.Errorf("-h: error %v exits %d, want 0", err, code)
	}
	if stdout.Len() != 0 {
		t.Errorf("-h: wrote %d bytes to stdout", stdout.Len())
	}
}

// TestRunDiscretizedCSV: the CSV path emits exactly the paper-discretized
// generator block.
func TestRunDiscretizedCSV(t *testing.T) {
	var got bytes.Buffer
	if err := run([]string{"-n", "40", "-discretize"}, &got); err != nil {
		t.Fatal(err)
	}
	d, err := quest.GenerateBlock(quest.Config{Function: 2, Seed: 1998}, 0, 40)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := dataset.WriteCSV(&want, discretize.UniformPaper(d, quest.PaperBins(), quest.Ranges())); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("dtgen -n 40 -discretize emitted\n%s\nwant\n%s", got.Bytes(), want.Bytes())
	}
}

// TestRunStoreMatchesCSV: an -ooc store, over several chunks, reads back
// to the rows the CSV path emits, raw and discretized.
func TestRunStoreMatchesCSV(t *testing.T) {
	for _, disc := range []bool{false, true} {
		args := []string{"-n", "40", "-seed", "7"}
		if disc {
			args = append(args, "-discretize")
		}
		var want bytes.Buffer
		if err := run(args, &want); err != nil {
			t.Fatal(err)
		}
		dir := filepath.Join(t.TempDir(), "train.store")
		var stdout bytes.Buffer
		if err := run(append(args, "-ooc", "-o", dir, "-chunk-rows", "16"), &stdout); err != nil {
			t.Fatal(err)
		}
		if stdout.Len() != 0 {
			t.Fatalf("-ooc wrote %d bytes to stdout", stdout.Len())
		}
		st, err := dataset.OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		d, _, err := dataset.Materialize(st)
		st.Close()
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := dataset.WriteCSV(&got, d); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("discretize=%v: store rows differ from the CSV path's", disc)
		}
	}
}
