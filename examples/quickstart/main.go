// Quickstart: generate a synthetic training set, build a decision tree
// serially, then build it again with the paper's hybrid parallel
// formulation on a modeled 8-processor machine, and check that both trees
// are identical — the library's central guarantee.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"partree/internal/core"
	"partree/internal/dataset"
	"partree/internal/discretize"
	"partree/internal/mp"
	"partree/internal/quest"
	"partree/internal/tree"
)

func main() {
	if err := run(20000, 8, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the whole example, parameterized so the smoke test can shrink
// the training set and machine.
func run(records, procs int, w io.Writer) error {
	// 1. Generate records of the SLIQ function-2 dataset and apply the
	// paper's uniform discretization.
	raw, err := quest.Generate(quest.Config{Function: 2, Seed: 7}, records)
	if err != nil {
		return err
	}
	data := discretize.UniformPaper(raw, quest.PaperBins(), quest.Ranges())

	// 2. Serial reference: the breadth-first builder.
	opts := core.Options{Tree: tree.Options{Binary: true}}
	serial := tree.BuildBFS(data, opts.SerialOptions(data))
	st := serial.Stats()
	fmt.Fprintf(w, "serial tree: %d nodes, %d leaves, depth %d, accuracy %.4f\n",
		st.Nodes, st.Leaves, st.MaxDepth, serial.Accuracy(data))

	// 3. Parallel: procs modeled processors, each holding 1/procs of the
	// records.
	t1 := buildHybrid(data, 1, opts, nil)
	var parallel *tree.Tree
	tp := buildHybrid(data, procs, opts, &parallel)
	fmt.Fprintf(w, "hybrid: modeled %.3fs serial, %.3fs on %d processors (speedup %.2f)\n", t1, tp, procs, t1/tp)

	// 4. The parallel tree is identical to the serial one.
	if !tree.Equal(serial, parallel) {
		return fmt.Errorf("TREES DIFFER: %s", tree.Diff(serial, parallel))
	}
	fmt.Fprintln(w, "parallel tree is identical to the serial tree: OK")
	return nil
}

// buildHybrid trains on a modeled machine with p processors and returns
// the modeled runtime, storing rank 0's tree in out when non-nil.
func buildHybrid(data *dataset.Dataset, p int, opts core.Options, out **tree.Tree) float64 {
	world := mp.NewWorld(p, mp.SP2())
	blocks := data.BlockPartition(p)
	trees := make([]*tree.Tree, p)
	world.Run(func(c *mp.Comm) {
		trees[c.Rank()] = core.BuildHybrid(c, blocks[c.Rank()], opts)
	})
	if out != nil {
		*out = trees[0]
	}
	return world.MaxClock()
}
