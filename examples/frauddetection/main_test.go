package main

import (
	"strings"
	"testing"
)

// TestRunSmoke exercises the whole example end to end on a shrunken
// account base and machine, and checks the report has all its parts.
func TestRunSmoke(t *testing.T) {
	var sb strings.Builder
	if err := run(2500, 4, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"trained on 2000 accounts, 4 modeled processors",
		"unpruned: ",
		"pruned:   ",
		"holdout confusion: tp=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
}
