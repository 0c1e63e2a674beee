package core

import (
	"partree/internal/dataset"
	"partree/internal/mp"
	"partree/internal/tree"
)

// BuildHybrid runs the hybrid formulation (§3.3). A processor partition
// grows its frontier with the synchronous approach, accumulating the
// modeled cost of its statistics reductions; once
//
//	Σ(communication cost) ≥ SplitRatio · (moving cost + load balancing cost)
//
// — the paper's criterion with its proposed optimum SplitRatio = 1 — the
// partition splits in two, the frontier nodes are divided between the
// halves with balanced training-case totals, the records move to their
// half and are load-balanced within it, and the halves continue
// asynchronously. A partition reduced to one processor finishes its
// subtrees with the sequential algorithm. The complete tree is assembled
// on rank 0 and replicated to every rank.
//
// Unlike the paper's hypercube description, the partition size need not be
// a power of two: the moving and load-balancing phases are realized by one
// order-preserving balanced all-to-all exchange with the same 4(N/P)·t_w
// cost bound (see DESIGN.md §2).
func BuildHybrid(c *mp.Comm, local *dataset.Dataset, o Options) *tree.Tree {
	return buildFromRoot(c, local, o, hybridGrow)
}

// hybridGrow expands every node of the frontier to completion within the
// partition c. Invariant: when it returns, partition rank 0 holds the
// complete subtrees of all frontier items passed in.
func hybridGrow(c *mp.Comm, d *dataset.Dataset, frontier []tree.FrontierItem, o Options, ids *tree.IDGen) {
	if c.Size() == 1 {
		growSequential(c, d, frontier, o, ids)
		return
	}
	recBytes := float64(d.Schema.RecordBytes())
	tw := c.Machine().TW
	commAccum := 0.0
	// The level state (reuse cache, vote families) is local to this
	// partition's synchronous stretch: a split reshapes the frontier (each
	// half keeps a filtered subset, in new positions), so the state is
	// dropped at the split and each recursive invocation starts its own —
	// with parentless singleton vote families.
	ls := newLevelState(o)
	rows := tree.NewIndexRows(d, o.Tree)
	for len(frontier) > 0 {
		next, cost := expandLevelSync(c, rows, frontier, o, ids, ls)
		commAccum += cost
		frontier = next
		if len(frontier) < 2 {
			continue // nothing to partition yet
		}
		// Splitting criterion (§3.3 / §4.2): compare the accumulated
		// reduction cost against the modeled cost of one moving phase plus
		// one load-balancing phase, each ≤ 2·(N/P)·t_w (Equations 3, 4).
		nf := frontierGlobalN(frontier)
		moveCost := 2 * float64(nf) / float64(c.Size()) * tw * recBytes
		lbCost := moveCost
		if commAccum < o.SplitRatio*(moveCost+lbCost) {
			continue
		}
		ls.drop()

		// Split: divide frontier nodes between the two halves with balanced
		// training-case totals, move the records, and continue each half
		// asynchronously.
		group := balanceGroups(globalNs(frontier), 2)
		partitionStep(c, d, frontier, group, []int{0, c.Size() / 2, c.Size()}, func(g int, d *dataset.Dataset, mine []tree.FrontierItem) {
			hybridGrow(splitGroup(c, g), d, mine, o, ids)
		})
		return
	}
	// The frontier emptied while still synchronous: the whole subtree is
	// replicated on every rank of the partition, rank 0 included.
}
