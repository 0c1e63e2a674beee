package partree_test

import (
	"fmt"
	"testing"

	"partree/internal/core"
	"partree/internal/dataset"
	"partree/internal/kernel"
	"partree/internal/mp"
	"partree/internal/quest"
	"partree/internal/tree"
)

// countingTable counts the ReadChunk calls made on each of its chunks.
type countingTable struct {
	dataset.Table
	reads []int
}

func newCountingTable(t dataset.Table) *countingTable {
	return &countingTable{Table: t, reads: make([]int, t.NumChunks())}
}

func (c *countingTable) ReadChunk(k int, ch *dataset.Chunk) (int64, error) {
	c.reads[k]++
	return c.Table.ReadChunk(k, ch)
}

// check fails unless every chunk was read exactly want times.
func (c *countingTable) check(t *testing.T, who string, want int) {
	t.Helper()
	for k, n := range c.reads {
		if n != want {
			t.Fatalf("%s: chunk %d of %d read %d times, want %d", who, k, len(c.reads), n, want)
		}
	}
}

// TestOOCOneReadPerLevel: the out-of-core level loops read every chunk
// exactly once per level — routing the previous level's splits and
// tabulating the next share one read — plus, on a schema with continuous
// attributes, the one binner-ranges pass BuildSyncOOC makes first. Each
// rank's section is wrapped in its own counter; the level count is the
// tree's, so a tree with a single level reads every chunk once.
func TestOOCOneReadPerLevel(t *testing.T) {
	wide, err := quest.Generate(quest.Config{Function: 2, Seed: 11, Attrs: 32}, 1500)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	sets := []struct {
		name string
		d    *dataset.Dataset
		k    int
	}{
		{"discrete", genKernelData(t, true), 0},
		{"continuous", genKernelData(t, false), 0},
		{"wide", wide, 0},
		{"wide-vote", wide, 3},
	}
	for _, set := range sets {
		st := openTestStore(t, set.d, oocStoreChunkRows)
		ranges := 0
		if set.d.Schema.NumContinuous() > 0 {
			ranges = 1
		}
		for _, reuse := range []bool{false, true} {
			o := core.Options{Tree: tree.Options{Binary: true, MaxDepth: 8}, SyncEveryNodes: 8, MicroBins: 32, NodeBins: 6}
			if reuse {
				o.Tree.Reuse = kernel.ReuseAll()
			}
			o.Tree.Vote = kernel.VoteOptions{K: set.k}
			if set.k == 0 { // voting is a multi-rank reduction
				t.Run(fmt.Sprintf("%s/reuse=%v/serial", set.name, reuse), func(t *testing.T) {
					to, err := o.SerialOptionsTable(st)
					if err != nil {
						t.Fatal(err)
					}
					ct := newCountingTable(st)
					tr, err := tree.BuildBFSOOC(ct, to)
					if err != nil {
						t.Fatal(err)
					}
					ct.check(t, "serial", len(tr.LevelWidths()))
				})
			}
			for _, p := range []int{1, 3} {
				t.Run(fmt.Sprintf("%s/reuse=%v/p%d", set.name, reuse, p), func(t *testing.T) {
					tables := make([]*countingTable, p)
					trees := make([]*tree.Tree, p)
					errs := make([]error, p)
					mp.NewWorld(p, mp.SP2()).Run(func(c *mp.Comm) {
						lo, hi := dataset.BlockBounds(st.Len(), p, c.Rank())
						tables[c.Rank()] = newCountingTable(dataset.SectionOf(st, lo, hi))
						trees[c.Rank()], errs[c.Rank()] = core.BuildSyncOOC(c, tables[c.Rank()], o)
					})
					for r := 0; r < p; r++ {
						if errs[r] != nil {
							t.Fatalf("rank %d: %v", r, errs[r])
						}
						tables[r].check(t, fmt.Sprintf("rank %d", r), ranges+len(trees[r].LevelWidths()))
					}
				})
			}
		}
	}
}
