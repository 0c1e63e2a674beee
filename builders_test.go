// Shared fixtures of the root differential tests: the data every identity
// suite grows trees from, and kernelBuilders, the list of every
// formulation over the shared statistics kernel that the out-of-core,
// reuse and pin suites compare against.
package partree_test

import (
	"testing"

	"partree/internal/core"
	"partree/internal/dataset"
	"partree/internal/discretize"
	"partree/internal/mp"
	"partree/internal/quest"
	"partree/internal/scalparc"
	"partree/internal/sliq"
	"partree/internal/sprint"
	"partree/internal/tree"
	"partree/internal/vertical"
)

// kernelBuild is one named way of growing a tree from a dataset; world is
// nil for the single-process builders.
type kernelBuild struct {
	name  string
	build func(t *testing.T, d *dataset.Dataset) (*tree.Tree, *mp.World)
}

func runRanks(t *testing.T, d *dataset.Dataset, p int, f func(c *mp.Comm, local *dataset.Dataset) *tree.Tree) (*tree.Tree, *mp.World) {
	t.Helper()
	w := mp.NewWorld(p, mp.SP2())
	blocks := d.BlockPartition(p)
	trees := make([]*tree.Tree, p)
	w.Run(func(c *mp.Comm) {
		trees[c.Rank()] = f(c, blocks[c.Rank()])
	})
	for r := 1; r < p; r++ {
		if diff := tree.Diff(trees[0], trees[r]); diff != "" {
			t.Fatalf("rank %d tree differs from rank 0: %s", r, diff)
		}
	}
	return trees[0], w
}

// kernelBuilders enumerates every formulation over the shared kernel. The
// discrete flag selects option shapes (the continuous multi-rank builders
// need per-node discretization).
func kernelBuilders(discrete bool) []kernelBuild {
	serialOpts := tree.Options{Binary: true}
	coreOpts := core.Options{Tree: tree.Options{Binary: true}, SyncEveryNodes: 8}
	if !discrete {
		coreOpts.MicroBins = 32
		coreOpts.NodeBins = 6
	}
	const p = 3
	bs := []kernelBuild{
		{"hunt", func(t *testing.T, d *dataset.Dataset) (*tree.Tree, *mp.World) {
			return tree.BuildHunt(d, serialOpts), nil
		}},
		{"bfs", func(t *testing.T, d *dataset.Dataset) (*tree.Tree, *mp.World) {
			return tree.BuildBFS(d, coreOpts.SerialOptions(d)), nil
		}},
		{"sliq", func(t *testing.T, d *dataset.Dataset) (*tree.Tree, *mp.World) {
			return sliq.Build(d, serialOpts), nil
		}},
		{"sprint", func(t *testing.T, d *dataset.Dataset) (*tree.Tree, *mp.World) {
			return sprint.Build(d, serialOpts), nil
		}},
		{"sync", func(t *testing.T, d *dataset.Dataset) (*tree.Tree, *mp.World) {
			return runRanks(t, d, p, func(c *mp.Comm, local *dataset.Dataset) *tree.Tree {
				return core.BuildSync(c, local, coreOpts)
			})
		}},
		{"partitioned", func(t *testing.T, d *dataset.Dataset) (*tree.Tree, *mp.World) {
			return runRanks(t, d, p, func(c *mp.Comm, local *dataset.Dataset) *tree.Tree {
				return core.BuildPartitioned(c, local, coreOpts)
			})
		}},
		{"hybrid", func(t *testing.T, d *dataset.Dataset) (*tree.Tree, *mp.World) {
			return runRanks(t, d, p, func(c *mp.Comm, local *dataset.Dataset) *tree.Tree {
				return core.BuildHybrid(c, local, coreOpts)
			})
		}},
		{"scalparc", func(t *testing.T, d *dataset.Dataset) (*tree.Tree, *mp.World) {
			return runRanks(t, d, p, func(c *mp.Comm, local *dataset.Dataset) *tree.Tree {
				return scalparc.Build(c, local, scalparc.Options{Tree: serialOpts, Mode: scalparc.DistributedHash}).Tree
			})
		}},
		{"vertical", func(t *testing.T, d *dataset.Dataset) (*tree.Tree, *mp.World) {
			// Vertical partitioning divides columns, not rows: every rank
			// holds the full dataset.
			w := mp.NewWorld(p, mp.SP2())
			trees := make([]*tree.Tree, p)
			w.Run(func(c *mp.Comm) {
				trees[c.Rank()] = vertical.Build(c, d, serialOpts)
			})
			for r := 1; r < p; r++ {
				if diff := tree.Diff(trees[0], trees[r]); diff != "" {
					t.Fatalf("rank %d tree differs from rank 0: %s", r, diff)
				}
			}
			return trees[0], w
		}},
	}
	return bs
}

func genKernelData(t *testing.T, discrete bool) *dataset.Dataset {
	t.Helper()
	d, err := quest.Generate(quest.Config{Function: 2, Seed: 77}, 1500)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	if discrete {
		return discretize.UniformPaper(d, quest.PaperBins(), quest.Ranges())
	}
	return d
}
