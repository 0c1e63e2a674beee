package core

import (
	"partree/internal/dataset"
	"partree/internal/mp"
	"partree/internal/tree"
)

// BuildPartitioned runs the Partitioned Tree Construction Approach
// (§3.2). The processor group cooperatively expands one node at a time
// (starting from the root, with the same reduction as the synchronous
// approach); after each expansion the group and the training records are
// partitioned across the successor nodes:
//
//   - Case 1 (more successors than processors): the successors are grouped
//     into |P| node groups with roughly equal training cases, records are
//     shuffled so each processor holds exactly its group's records, and
//     each processor grows its subtrees with the sequential algorithm;
//   - Case 2 (otherwise): each successor gets a processor subset
//     proportional to its training cases (at least one), records are
//     shuffled and evenly balanced within each subset, and the subsets
//     recurse independently.
//
// The complete tree is assembled on rank 0 and replicated to every rank.
func BuildPartitioned(c *mp.Comm, local *dataset.Dataset, o Options) *tree.Tree {
	return buildFromRoot(c, local, o, ptcExpand)
}

// buildFromRoot is the skeleton of the record-moving formulations: under
// restart-from-root fault tolerance, grow expands the root to completion,
// leaving the tree on rank 0, which replicates it to every rank.
func buildFromRoot(c *mp.Comm, local *dataset.Dataset, o Options,
	grow func(c *mp.Comm, d *dataset.Dataset, frontier []tree.FrontierItem, o Options, ids *tree.IDGen)) *tree.Tree {
	o = o.WithDefaults()
	return RunRestartable(c, local, o.FT, func(c *mp.Comm, local *dataset.Dataset) *tree.Tree {
		o := o // each attempt installs its own binner
		setupBinner(c, local, &o)
		root := newRoot(local.Schema)
		grow(c, local, []tree.FrontierItem{{Node: root, Idx: local.AllIndex()}}, o, tree.NewIDGen(1))
		return &tree.Tree{Schema: local.Schema, Root: bcastTree(c, root)}
	})
}

// ptcExpand expands the one node of frontier within the processor group
// c: step 1 is expandLevelSync on the one-item frontier, step 2 partitions
// the successors and the processors (Case 1 or Case 2). Invariant: when
// it returns, comm rank 0 holds the complete subtree rooted at the node.
func ptcExpand(c *mp.Comm, d *dataset.Dataset, frontier []tree.FrontierItem, o Options, ids *tree.IDGen) {
	if c.Size() == 1 {
		growSequential(c, d, frontier, o, ids)
		return
	}

	// Step 1: the group expands the node cooperatively (§3.1 method). The
	// level state starts empty and is dropped: the children move to
	// disjoint processor subsets, so no rank sees a whole family again and
	// sibling subtraction has no cache to fill.
	children, _ := expandLevelSync(c, tree.NewIndexRows(d, o.Tree), frontier, o, ids, &levelState{})
	if len(children) == 0 {
		return // leaf: nothing to partition
	}

	// Step 2: partition successors and processors.
	p := c.Size()
	if len(children) > p {
		// Case 1: group the successor nodes, one group per processor; each
		// processor's group is its own, so there is no comm to split.
		bounds := make([]int, p+1)
		for r := range bounds {
			bounds[r] = r
		}
		group := balanceGroups(globalNs(children), p)
		partitionStep(c, d, children, group, bounds, func(_ int, d *dataset.Dataset, mine []tree.FrontierItem) {
			growSequential(c, d, mine, o, ids)
		})
		return
	}

	// Case 2: processor subsets proportional to the successors' cases, one
	// subset per child.
	procs := proportionalProcs(globalNs(children), p)
	bounds := make([]int, len(children)+1)
	group := make([]int, len(children))
	for ki, n := range procs {
		bounds[ki+1] = bounds[ki] + n
		group[ki] = ki
	}
	partitionStep(c, d, children, group, bounds, func(g int, d *dataset.Dataset, mine []tree.FrontierItem) {
		ptcExpand(splitGroup(c, g), d, mine, o, ids)
	})
}

// partitionStep is the record-moving step the partitioned formulation's
// Cases 1 and 2 and the hybrid's split share: move, continue, assemble.
// The ranks of c form contiguous groups — group g is ranks
// [bounds[g], bounds[g+1]), none empty, led by its first rank — and
// group[k] is the group that takes over items[k].
//
// Every item's records move to its group, balanced across the group's
// ranks (redistribute: the moving and load-balancing phases). grow then
// continues this rank's group g on the new dataset with the group's items,
// in frontier order; it must leave the group's completed subtrees on the
// group's leader. Finally every other group's leader ships its subtrees to
// rank 0, which grafts them in ascending group order. Invariant: when it
// returns, rank 0 holds the complete subtrees of all items.
func partitionStep(c *mp.Comm, d *dataset.Dataset, items []tree.FrontierItem, group, bounds []int,
	grow func(g int, d *dataset.Dataset, mine []tree.FrontierItem)) {
	ranks := make([]int, c.Size())
	for r := range ranks {
		ranks[r] = r
	}
	rows := make([][]int32, len(items))
	targets := make([][]int, len(items))
	for k, it := range items {
		rows[k] = it.Idx
		targets[k] = ranks[bounds[group[k]]:bounds[group[k]+1]]
	}
	newD, perKey := redistribute(c, d, rows, targets)

	me := 0
	for c.Rank() >= bounds[me+1] {
		me++
	}
	var keys []int
	for k, g := range group {
		if g == me {
			keys = append(keys, k)
		}
	}
	mine := make([]tree.FrontierItem, len(keys))
	roots := make([]*tree.Node, len(keys))
	for i, k := range keys {
		mine[i] = tree.FrontierItem{Node: items[k].Node, Idx: perKey[k], GlobalN: items[k].GlobalN}
		roots[i] = items[k].Node
	}
	grow(me, newD, mine)

	if c.Rank() == 0 {
		for g := 1; g < len(bounds)-1; g++ {
			ks, built := recvSubtrees(c, bounds[g])
			for i, k := range ks {
				graft(items[k].Node, built[i])
			}
		}
	} else if c.Rank() == bounds[me] {
		sendSubtrees(c, 0, keys, roots)
	}
}

// splitGroup splits c into the contiguous groups of a partitionStep: this
// rank joins group g, keeping its relative order.
func splitGroup(c *mp.Comm, g int) *mp.Comm {
	c.BeginPhase(PhaseLoadBalance)
	defer c.EndPhase()
	return c.Split(g, c.Rank())
}

// growSequential finishes the frontier on one processor with the
// sequential algorithm, charging its scans and word operations to the
// sequential tail.
func growSequential(c *mp.Comm, d *dataset.Dataset, frontier []tree.FrontierItem, o Options, ids *tree.IDGen) {
	c.BeginPhase(PhaseSequential)
	defer c.EndPhase()
	ops, wops := tree.GrowFrontierBFS(d, frontier, o.Tree, ids)
	c.Compute(float64(ops))
	chargeWordOps(c, wops)
}

// globalNs returns the items' global training-case counts, the weights
// both partitionings balance.
func globalNs(items []tree.FrontierItem) []int64 {
	w := make([]int64, len(items))
	for k, it := range items {
		w[k] = it.GlobalN
	}
	return w
}
