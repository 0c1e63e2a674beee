// Shared fixtures of the root differential tests: the data every identity
// suite grows trees from, the build.Spec each suite runs a registry
// builder under, and the run helpers that check every rank grew the same
// tree.
package partree_test

import (
	"testing"

	"partree/internal/build"
	"partree/internal/core"
	"partree/internal/dataset"
	"partree/internal/discretize"
	"partree/internal/kernel"
	"partree/internal/mp"
	"partree/internal/quest"
	"partree/internal/tree"
)

// kernelSpec is the spec the identity suites run a registry builder
// under: binary splits, three ranks, flushes of eight nodes, and (for
// continuous data) per-node discretization; ro threads statistics reuse.
func kernelSpec(name string, discrete bool, ro kernel.Options) build.Spec {
	o := core.Options{Tree: tree.Options{Binary: true, Reuse: ro}, SyncEveryNodes: 8}
	if !discrete {
		o.MicroBins = 32
		o.NodeBins = 6
	}
	return build.Spec{Builder: name, Procs: 3, Options: o}
}

// buildRAM runs s on resident rows; the world is nil for a serial builder.
func buildRAM(t *testing.T, s build.Spec, d *dataset.Dataset) (*tree.Tree, *mp.World) {
	t.Helper()
	res, err := build.Run(s, d)
	return checkRanks(t, res, err)
}

// buildTable runs s on chunked rows.
func buildTable(t *testing.T, s build.Spec, tbl dataset.Table) (*tree.Tree, *mp.World) {
	t.Helper()
	res, err := build.RunTable(s, tbl)
	return checkRanks(t, res, err)
}

func checkRanks(t *testing.T, res build.Result, err error) (*tree.Tree, *mp.World) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	for r, tr := range res.Trees {
		if diff := tree.Diff(res.Trees[0], tr); diff != "" {
			t.Fatalf("rank %d tree differs from rank 0: %s", r, diff)
		}
	}
	return res.Tree, res.World
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
