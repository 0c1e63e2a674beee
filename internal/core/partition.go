package core

import (
	"partree/internal/dataset"
	"partree/internal/kernel"
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
	if o.FT != nil && o.FT.Store != nil && c.Size() > 1 {
		out := RunRestartable(c, local, o.FT, func(c *mp.Comm, d *dataset.Dataset) any {
			return buildPartitionedOnce(c, d, o)
		})
		return out.(*tree.Tree)
	}
	return buildPartitionedOnce(c, local, o)
}

// buildPartitionedOnce is one (restartable) construction attempt.
func buildPartitionedOnce(c *mp.Comm, local *dataset.Dataset, o Options) *tree.Tree {
	setupBinner(c, local, &o)
	root := newRoot(local.Schema)
	ids := tree.NewIDGen(1)
	ptcExpand(c, local, tree.FrontierItem{Node: root, Idx: local.AllIndex()}, o, ids)
	root = bcastTree(c, root)
	return &tree.Tree{Schema: local.Schema, Root: root}
}

// ptcExpand expands the single node it within the processor group c.
// Invariant: when it returns, comm rank 0 holds the complete subtree
// rooted at it.Node.
func ptcExpand(c *mp.Comm, d *dataset.Dataset, it tree.FrontierItem, o Options, ids *tree.IDGen) {
	if c.Size() == 1 {
		c.BeginPhase(PhaseSequential)
		ops, wops := tree.GrowFrontierBFS(d, []tree.FrontierItem{it}, o.Tree, ids)
		c.Compute(float64(ops))
		chargeWordOps(c, wops)
		c.EndPhase()
		return
	}

	// Step 1: the group expands the node cooperatively (§3.1 method).
	s := d.Schema
	statsLen := tree.StatsLen(s, o.Tree)
	flat := kernel.GetInt64(statsLen)
	c.BeginPhase(PhaseStatistics)
	c.Compute(float64(tree.ComputeStatsInto(flat, d, it.Idx, o.Tree)))
	c.EndPhase()
	if o.Tree.Vote.Active(len(s.Attrs)) {
		// Voted reduction: the level step's two rounds on a one-node root
		// family — nominate from the local statistics already in flat,
		// elect ≤2k candidates, reduce only their blocks (vote.go).
		vr := newVoteRound(s, o.Tree, famsCovering(nil, 1))
		vr.reduce(c, []tree.FrontierItem{it}, 0, 1, []int{0}, flat, new(float64))
	} else {
		c.BeginPhase(PhaseReduction)
		// Sibling subtraction does not apply here — after the expansion the
		// children move to disjoint processor subsets, so no rank sees a whole
		// family again — but the sparse encoding of the single-node reduction
		// still pays near the leaves of deep Case 2 recursions.
		mp.AllreduceSum(c, flat, o.Tree.Reuse.SparseThreshold)
		c.EndPhase()
	}
	c.BeginPhase(PhaseStatistics)
	var routeOps int64
	children := tree.ExpandNode(it, tree.DecodeStats(flat, s, o.Tree), d, o.Tree, ids, &routeOps)
	c.Compute(float64(routeOps))
	c.EndPhase()
	kernel.PutInt64(flat) // stats fully consumed by ExpandNode; recycle before recursing
	if len(children) == 0 {
		return // leaf: nothing to partition
	}

	// Step 2: partition successors and processors.
	p := c.Size()
	weights := make([]int64, len(children))
	keys := make([]int, len(children))
	rows := make(map[int][]int32, len(children))
	for ki, ch := range children {
		weights[ki] = ch.GlobalN
		keys[ki] = ki
		rows[ki] = ch.Idx
	}

	if len(children) > p {
		// Case 1: group the successor nodes, one group per processor.
		group := balanceGroups(weights, p)
		targets := make(map[int][]int, len(children))
		for ki := range children {
			targets[ki] = []int{group[ki]}
		}
		newD, perKey := redistribute(c, d, keys, rows, targets)
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
	targets := make(map[int][]int, len(children))
	for ki := range children {
		sub := make([]int, procs[ki])
		for j := range sub {
			sub[j] = starts[ki] + j
		}
		targets[ki] = sub
	}
	myKi := 0
	for ki := range children {
		if c.Rank() >= starts[ki] && c.Rank() < starts[ki+1] {
			myKi = ki
			break
		}
	}
	newD, perKey := redistribute(c, d, keys, rows, targets)
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
