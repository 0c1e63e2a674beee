package scalparc

import (
	"partree/internal/core"
	"partree/internal/dataset"
	"partree/internal/mp"
)

// BuildFT is the fault-tolerant variant of Build. The whole construction
// is wrapped in core.RunRestartable: every rank checkpoints its block
// before the attempt, and a detected rank failure makes the survivors
// regroup, re-adopt the lost ranks' records from the checkpoint store and
// rebuild from the root. Because both modes grow a tree that depends only
// on the global record multiset (never on its distribution across ranks),
// the rebuilt tree is bit-identical to the fault-free one.
//
// ft == nil (or a nil store, or one rank) degrades to a plain Build.
func BuildFT(c *mp.Comm, local *dataset.Dataset, o Options, ft *core.FTOptions) Result {
	return core.RunRestartable(c, local, ft, func(c *mp.Comm, d *dataset.Dataset) Result {
		return Build(c, d, o)
	})
}
