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
	o = o.WithDefaults()
	return RunRestartable(c, local, o.FT, func(c *mp.Comm, local *dataset.Dataset) *tree.Tree {
		o := o // each attempt installs its own binner
		setupBinner(c, local, &o)
		root := newRoot(local.Schema)
		ids := tree.NewIDGen(1)
		ptcExpand(c, local, tree.FrontierItem{Node: root, Idx: local.AllIndex()}, o, ids)
		root = bcastTree(c, root)
		return &tree.Tree{Schema: local.Schema, Root: root}
	})
}

// ptcExpand expands the single node it within the processor group c:
// step 1 is expandLevelSync on the one-item frontier, step 2 partitions
// the successors and the processors (Case 1 or Case 2). Invariant: when
// it returns, comm rank 0 holds the complete subtree rooted at it.Node.
func ptcExpand(c *mp.Comm, d *dataset.Dataset, it tree.FrontierItem, o Options, ids *tree.IDGen) {
	if c.Size() == 1 {
		c.BeginPhase(PhaseSequential)
		ops, wops := tree.GrowFrontierBFS(d, []tree.FrontierItem{it}, o.Tree, ids)
		c.Compute(float64(ops))
		chargeWordOps(c, wops)
		c.EndPhase()
		return
	}

	// Step 1: the group expands the node cooperatively (§3.1 method). The
	// level state starts empty and is dropped: the children move to
	// disjoint processor subsets, so no rank sees a whole family again and
	// sibling subtraction has no cache to fill.
	children, _ := expandLevelSync(c, tree.NewIndexRows(d, o.Tree), []tree.FrontierItem{it}, o, ids, &levelState{})
	if len(children) == 0 {
		return // leaf: nothing to partition
	}

	// Step 2: partition successors and processors.
	p := c.Size()
	weights := make([]int64, len(children))
	rows := make([][]int32, len(children))
	for ki, ch := range children {
		weights[ki] = ch.GlobalN
		rows[ki] = ch.Idx
	}
	ranks := make([]int, p)
	for r := range ranks {
		ranks[r] = r
	}
	targets := make([][]int, len(children))

	if len(children) > p {
		// Case 1: group the successor nodes, one group per processor.
		group := balanceGroups(weights, p)
		for ki, g := range group {
			targets[ki] = ranks[g : g+1]
		}
		newD, perKey := redistribute(c, d, rows, targets)
		var mine []tree.FrontierItem
		for ki, ch := range children {
			if group[ki] == c.Rank() {
				mine = append(mine, tree.FrontierItem{Node: ch.Node, Idx: perKey[ki], GlobalN: ch.GlobalN})
			}
		}
		c.BeginPhase(PhaseSequential)
		ops, wops := tree.GrowFrontierBFS(newD, mine, o.Tree, ids)
		c.Compute(float64(ops))
		chargeWordOps(c, wops)
		c.EndPhase()

		// Assembly: every rank ships its completed subtrees to rank 0.
		if c.Rank() == 0 {
			for r := 1; r < p; r++ {
				ks, roots := recvSubtrees(c, r)
				for i, k := range ks {
					graft(children[k].Node, roots[i])
				}
			}
		} else {
			var ks []int
			var roots []*tree.Node
			for ki, ch := range children {
				if group[ki] == c.Rank() {
					ks = append(ks, ki)
					roots = append(roots, ch.Node)
				}
			}
			sendSubtrees(c, 0, ks, roots)
		}
		return
	}

	// Case 2: processor subsets proportional to the successors' cases.
	procs := proportionalProcs(weights, p)
	starts := make([]int, len(children)+1)
	for ki, n := range procs {
		starts[ki+1] = starts[ki] + n
	}
	for ki := range children {
		targets[ki] = ranks[starts[ki]:starts[ki+1]]
	}
	myKi := 0
	for ki := range children {
		if c.Rank() >= starts[ki] && c.Rank() < starts[ki+1] {
			myKi = ki
			break
		}
	}
	newD, perKey := redistribute(c, d, rows, targets)
	c.BeginPhase(PhaseLoadBalance)
	sub := c.Split(myKi, c.Rank())
	c.EndPhase()
	child := children[myKi]
	ptcExpand(sub, newD, tree.FrontierItem{Node: child.Node, Idx: perKey[myKi], GlobalN: child.GlobalN}, o, ids)

	// Assembly: each subset leader forwards its completed child subtree to
	// rank 0 of this group (the subset of child 0 is led by rank 0 itself).
	if c.Rank() == 0 {
		for ki := 1; ki < len(children); ki++ {
			ks, roots := recvSubtrees(c, starts[ki])
			for i, k := range ks {
				graft(children[k].Node, roots[i])
			}
		}
	} else if c.Rank() == starts[myKi] {
		sendSubtrees(c, 0, []int{myKi}, []*tree.Node{child.Node})
	}
}
