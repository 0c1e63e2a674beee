package sliq

import (
	"fmt"
	"testing"

	"partree/internal/kernel"
	"partree/internal/quest"
	"partree/internal/tree"
)

// TestVotedSliqIdentity pins the single-voter degeneracy: serial SLIQ is
// a one-rank electorate, and a voter's own argmax always sits in its
// top-k ballot, so an election could never change the chosen split —
// SLIQ runs none (as core skips voting at P = 1), and voted SLIQ must
// equal exact SLIQ bit-for-bit at every K, active ones included. The
// boundary where voting begins to approximate is P > 1 voters
// disagreeing, which SLIQ's serial algorithm structurally cannot reach.
func TestVotedSliqIdentity(t *testing.T) {
	for _, attrs := range []int{0, 24} {
		d, err := quest.Generate(quest.Config{Function: 2, Seed: 51, Attrs: attrs}, 1500)
		if err != nil {
			t.Fatal(err)
		}
		o := tree.Options{Binary: true, MaxDepth: 7}
		want := Build(d, o)
		for _, k := range []int{1, 2, 4, d.Schema.NumAttrs()} {
			t.Run(fmt.Sprintf("attrs%d/k%d", attrs, k), func(t *testing.T) {
				vo := o
				vo.Vote = kernel.VoteOptions{K: k}
				got := Build(d, vo)
				if diff := tree.Diff(want, got); diff != "" {
					t.Fatalf("voted SLIQ (K=%d) differs from exact: %s", k, diff)
				}
			})
		}
	}
}
