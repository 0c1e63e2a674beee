package core

import (
	"partree/internal/dataset"
	"partree/internal/mp"
	"partree/internal/tree"
)

// BuildSync runs the Synchronous Tree Construction Approach (§3.1): the
// classification tree is grown breadth-first and all processors cooperate
// on every node of every level, exchanging class-distribution statistics
// through global reductions (flushed every SyncEveryNodes frontier nodes).
// Training records never move; every processor finishes with its own
// identical replica of the whole tree, which is returned.
//
// local is this rank's block of the training set (N/P records). The
// returned tree is structurally equal to tree.BuildBFS on the union of all
// blocks.
//
// Modeled charges are attributed to the PhaseStatistics/PhaseReduction
// accounting phases by expandLevelSync (and PhaseReduction by the binner
// setup); read the breakdown back with (*mp.World).Breakdown.
func BuildSync(c *mp.Comm, local *dataset.Dataset, o Options) *tree.Tree {
	o = o.WithDefaults()
	if o.FT.on(c) {
		return buildSyncFT(c, local, o)
	}
	setupBinner(c, local, &o)
	root := newRoot(local.Schema)
	ids := tree.NewIDGen(1)
	frontier := []tree.FrontierItem{{Node: root, Idx: local.AllIndex()}}
	ls := newLevelState(o)
	rows := tree.NewIndexRows(local, o.Tree)
	for len(frontier) > 0 {
		frontier, _ = expandLevelSync(c, rows, frontier, o, ids, ls)
	}
	return &tree.Tree{Schema: local.Schema, Root: root}
}
