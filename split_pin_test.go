// Whole-tree pin for the categorical split search: the sha256 of the
// serialized tree grown on a fixed Quest training set, captured before the
// binary-subset search was made incremental. The differential oracle in
// internal/criteria compares the search to its reference inside one
// binary; this compares across the commit boundary, so "same trees" does
// not rest on the reference copy having been moved faithfully.
package partree_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"partree/internal/criteria"
	"partree/internal/discretize"
	"partree/internal/quest"
	"partree/internal/tree"
)

func TestSplitSearchTreePin(t *testing.T) {
	raw, err := quest.GenerateBlock(quest.Config{Function: 2, Seed: 1998}, 0, 20000)
	if err != nil {
		t.Fatal(err)
	}
	d := discretize.UniformPaper(raw, quest.PaperBins(), quest.Ranges())
	for _, tc := range []struct {
		crit criteria.Criterion
		want string
	}{
		{criteria.Entropy, "96d4d99f136cfa8c38854ff4ca5ba1fc294a08ef65025c6b0bf33acac2d8ecf1"},
		{criteria.Gini, "b61a748ccee5e0012c0018e5a740fc9e0ebefd8d33985847f3883ed77bde88a3"},
	} {
		tr := tree.BuildBFS(d, tree.Options{Binary: true, Criterion: tc.crit})
		h := sha256.New()
		if err := tree.WriteJSON(h, tr); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%v: %d nodes, tree sha256 %s, pinned %s", tc.crit, tr.Stats().Nodes, got, tc.want)
		}
	}
}
