package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"partree/internal/kernel"
	"partree/internal/tree"
)

// TestVotedBuildPin pins what an active vote (k < A, P > 1) builds: the
// sha256 over the serialized tree, the Float64bits of every rank's
// modeled clock and the formatted breakdown table, captured before the
// voted level body was folded into the exact one. The vote matrix in
// vote_test.go only checks the exactness boundary and invariances; this
// compares the voted protocol itself across the commit boundary.
func TestVotedBuildPin(t *testing.T) {
	d := genWide(t, 1500, 32, 37)
	want := map[string]string{
		"sync/p3/reuse=false":        "18853898afde7b61d323c305755a6434a019f9c7631aa1842f391e1dd827f3ca",
		"sync/p3/reuse=true":         "165b333338f6119e4b0b23dad9b56b58617f60d2e1064c5cd11d1bb6e01f3ca8",
		"sync/p4/reuse=false":        "e5146218f118033e71f2143630078c3a67028613a8af8b1546efed74ae63c3fe",
		"sync/p4/reuse=true":         "b3a69d03948a82a23b51aa821818a8646f303ff6e7dc31002899d08409fc5a21",
		"partitioned/p3/reuse=false": "be720378a6eaf0148cea668e47f0b2ae4d51f8975aad28605ee39e2f4ff36b0b",
		"partitioned/p3/reuse=true":  "ee5173bc55057aa9f850086378e9df68f215aa85e3646d3dc25b6266897f7236",
		"partitioned/p4/reuse=false": "e94aa01d9dfca275ae26187fea6e541f5582817e184eed017177a7d5f507218f",
		"partitioned/p4/reuse=true":  "fc921849c2994574fc2e131b74fa09807bbd07a5c781703a6abc5635ab672520",
		"hybrid/p3/reuse=false":      "6bc50b6e4e26a692d5882c3866987d4db34ddf610f9057cbf819553900659f9c",
		"hybrid/p3/reuse=true":       "bbf82d34e846ac0621a07daf83fb104ccd6f906ec30e27dfaa4e7f2910c21d21",
		"hybrid/p4/reuse=false":      "0c0f1693768525a276aa9d702017632473df6dfa2f46786a9d7bdb499b0d6a20",
		"hybrid/p4/reuse=true":       "b90bf73e96783a1031470ed396d75786baa76e667d99fb166376597d120db772",
	}
	for _, f := range formulations {
		for _, p := range []int{3, 4} {
			for _, reuse := range []bool{false, true} {
				name := fmt.Sprintf("%s/p%d/reuse=%v", f.name, p, reuse)
				t.Run(name, func(t *testing.T) {
					o := wideOptions()
					o.Tree.Vote = kernel.VoteOptions{K: 3}
					o.Tree.Reuse = kernel.Options{Subtraction: reuse}
					tr, w := runParallel(t, f.build, d, p, o)
					h := sha256.New()
					if err := tree.WriteJSON(h, tr); err != nil {
						t.Fatal(err)
					}
					for r := 0; r < p; r++ {
						h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(w.Clock(r))))
					}
					h.Write([]byte(w.Breakdown().Table()))
					if got := hex.EncodeToString(h.Sum(nil)); got != want[name] {
						t.Errorf("%d nodes, clock %.9f: sha256 %s, pinned %s", tr.Stats().Nodes, w.MaxClock(), got, want[name])
					}
				})
			}
		}
	}
}
