// Scaling: the paper's scaleup experiment (Figure 9) as a library user
// would run it — keep the per-processor load fixed and grow the machine;
// a scalable algorithm's runtime should stay nearly flat. The residual
// slope is the θ(P log P) isoefficiency of §4.3.
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
	if err := run(8000, []int{1, 2, 4, 8, 16, 32}, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the whole example, parameterized so the smoke test can shrink
// the per-processor load and the machine sizes; procs should start at 1,
// the baseline of the "vs P=1" column.
func run(perProcessor int, procs []int, w io.Writer) error {
	fmt.Fprintf(w, "hybrid formulation, %d records per processor, per-node clustering\n\n", perProcessor)
	fmt.Fprintf(w, "%6s %10s %14s %10s\n", "procs", "records", "modeled sec", "vs P=1")
	var base float64
	for _, p := range procs {
		n := perProcessor * p
		// Each processor's block of the one global dataset.
		blocks := make([]*dataset.Dataset, p)
		for r := range blocks {
			var err error
			if blocks[r], err = quest.GenerateBlock(quest.Config{Function: 2, Seed: 5}, r*n/p, (r+1)*n/p); err != nil {
				return err
			}
		}
		world := mp.NewWorld(p, mp.SP2())
		opts := core.Options{Tree: tree.Options{Binary: true}}
		world.Run(func(c *mp.Comm) {
			core.BuildHybrid(c, blocks[c.Rank()], opts)
		})
		secs := world.MaxClock()
		if base == 0 {
			base = secs
		}
		fmt.Fprintf(w, "%6d %10d %14.3f %9.2fx\n", p, n, secs, secs/base)
	}
	fmt.Fprintln(w, "\nan ideal scaleup curve is flat at 1.00x; θ(P log P) isoefficiency")
	fmt.Fprintln(w, "predicts the slow growth observed here (paper, Figure 9).")
	return nil
}
