// Fraud detection: the paper's second motivating domain. Here the risky
// class is defined by the Quest function-7 disposable-income rule
// (0.67·(salary+commission) − 0.2·loan − 20000 > 0), a linear boundary
// over raw continuous attributes — the hard case for a decision tree,
// exercised with the paper's Figure 8 configuration: no preprocessing
// discretization; instead every node discretizes its continuous
// attributes by clustering (SPEC-style), parallelized inside the hybrid
// formulation. Pessimistic pruning then trims the boundary-chasing
// overgrowth.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"partree/internal/core"
	"partree/internal/dataset"
	"partree/internal/mp"
	"partree/internal/quest"
	"partree/internal/tree"
)

func main() {
	if err := run(30000, 16, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the whole example, parameterized so the smoke test can shrink
// the account base and machine.
func run(records, procs int, w io.Writer) error {
	raw, err := quest.Generate(quest.Config{Function: 7, Seed: 99}, records)
	if err != nil {
		return err
	}
	cut := records * 4 / 5
	train, test := raw.Slice(0, cut), raw.Slice(cut, records)

	// Per-node clustering discretization: 64 micro-bins reduced to 8
	// clusters per node, recomputed at every node from globally reduced
	// statistics.
	opts := core.Options{
		Tree:      tree.Options{Binary: true},
		MicroBins: 64,
		NodeBins:  8,
	}

	world := mp.NewWorld(procs, mp.SP2())
	blocks := train.BlockPartition(procs)
	trees := make([]*tree.Tree, procs)
	world.Run(func(c *mp.Comm) {
		trees[c.Rank()] = core.BuildHybrid(c, blocks[c.Rank()], opts)
	})
	t := trees[0]

	st := t.Stats()
	fmt.Fprintf(w, "trained on %d accounts, %d modeled processors, %.3fs modeled\n",
		train.Len(), procs, world.MaxClock())
	fmt.Fprintf(w, "unpruned: %d nodes, depth %d, test accuracy %.4f\n",
		st.Nodes, st.MaxDepth, t.Accuracy(test))

	removed := tree.Prune(t, tree.DefaultPruneZ)
	st = t.Stats()
	fmt.Fprintf(w, "pruned:   %d nodes (-%d internal), test accuracy %.4f\n",
		st.Nodes, removed, t.Accuracy(test))

	// Confusion counts on the holdout: fraud review queues care about the
	// false-negative rate, not raw accuracy.
	var tp, fp, fn, tn int
	rec := dataset.NewRecord(test.Schema)
	for i := 0; i < test.Len(); i++ {
		test.RowInto(i, &rec)
		pred := t.Classify(&rec)
		switch {
		case pred == quest.GroupA && test.Class[i] == quest.GroupA:
			tp++
		case pred == quest.GroupA:
			fp++
		case test.Class[i] == quest.GroupA:
			fn++
		default:
			tn++
		}
	}
	fmt.Fprintf(w, "holdout confusion: tp=%d fp=%d fn=%d tn=%d (recall %.3f, precision %.3f)\n",
		tp, fp, fn, tn, float64(tp)/float64(tp+fn), float64(tp)/float64(tp+fp))
	return nil
}
