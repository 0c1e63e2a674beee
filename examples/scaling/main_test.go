package main

import (
	"strings"
	"testing"
)

// TestRunSmoke exercises the whole example end to end on a shrunken
// per-processor load and machine, and checks every size gets a row.
func TestRunSmoke(t *testing.T) {
	var sb strings.Builder
	if err := run(500, []int{1, 2, 4}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"500 records per processor",
		"     1        500",
		"     2       1000",
		"     4       2000",
		"1.00x",
		"Figure 9",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
}
