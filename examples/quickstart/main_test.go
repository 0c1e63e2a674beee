package main

import (
	"strings"
	"testing"
)

// TestRunSmoke exercises the whole example end to end on a shrunken
// training set and machine: the hybrid tree must equal the serial one.
func TestRunSmoke(t *testing.T) {
	var sb strings.Builder
	if err := run(2000, 3, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"serial tree: ",
		"on 3 processors",
		"parallel tree is identical to the serial tree: OK",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
}
