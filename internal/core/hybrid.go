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
	o = o.WithDefaults()
	if o.FT != nil && o.FT.Store != nil && c.Size() > 1 {
		out := RunRestartable(c, local, o.FT, func(c *mp.Comm, d *dataset.Dataset) any {
			return buildHybridOnce(c, d, o)
		})
		return out.(*tree.Tree)
	}
	return buildHybridOnce(c, local, o)
}

// buildHybridOnce is one (restartable) construction attempt.
func buildHybridOnce(c *mp.Comm, local *dataset.Dataset, o Options) *tree.Tree {
	setupBinner(c, local, &o)
	root := newRoot(local.Schema)
	ids := tree.NewIDGen(1)
	hybridGrow(c, local, []tree.FrontierItem{{Node: root, Idx: local.AllIndex()}}, o, ids)
	root = bcastTree(c, root)
	return &tree.Tree{Schema: local.Schema, Root: root}
}

// hybridGrow expands every node of the frontier to completion within the
// partition c. Invariant: when it returns, partition rank 0 holds the
// complete subtrees of all frontier items passed in.
func hybridGrow(c *mp.Comm, d *dataset.Dataset, frontier []tree.FrontierItem, o Options, ids *tree.IDGen) {
	if c.Size() == 1 {
		c.BeginPhase(PhaseSequential)
		ops, wops := tree.GrowFrontierBFS(d, frontier, o.Tree, ids)
		c.Compute(float64(ops))
		chargeWordOps(c, wops)
		c.EndPhase()
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
	for len(frontier) > 0 {
		next, cost := expandLevelSync(c, newRAMRows(d, o), frontier, o, ids, ls)
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

		// Split: divide frontier nodes into two halves with balanced
		// training-case totals, move records, and recurse asynchronously.
		weights := make([]int64, len(frontier))
		keys := make([]int, len(frontier))
		rows := make(map[int][]int32, len(frontier))
		for ki, it := range frontier {
			weights[ki] = it.GlobalN
			keys[ki] = ki
			rows[ki] = it.Idx
		}
		group := balanceGroups(weights, 2)
		half := c.Size() / 2
		groupRanks := [2][]int{}
		for r := 0; r < c.Size(); r++ {
			g := 0
			if r >= half {
				g = 1
			}
			groupRanks[g] = append(groupRanks[g], r)
		}
		targets := make(map[int][]int, len(frontier))
		for ki := range frontier {
			targets[ki] = groupRanks[group[ki]]
		}
		newD, perKey := redistribute(c, d, keys, rows, targets)

		myGroup := 0
		if c.Rank() >= half {
			myGroup = 1
		}
		c.BeginPhase(PhaseLoadBalance)
		sub := c.Split(myGroup, c.Rank())
		c.EndPhase()
		var mine []tree.FrontierItem
		for ki, it := range frontier {
			if group[ki] == myGroup {
				mine = append(mine, tree.FrontierItem{Node: it.Node, Idx: perKey[ki], GlobalN: it.GlobalN})
			}
		}
		hybridGrow(sub, newD, mine, o, ids)

		// Assembly: the upper half's leader (partition rank `half`) ships
		// its completed subtrees to this partition's rank 0.
		if c.Rank() == 0 {
			ks, roots := recvSubtrees(c, half)
			for i, k := range ks {
				graft(frontier[k].Node, roots[i])
			}
		} else if c.Rank() == half {
			var ks []int
			var roots []*tree.Node
			for ki, it := range frontier {
				if group[ki] == 1 {
					ks = append(ks, ki)
					roots = append(roots, it.Node)
				}
			}
			sendSubtrees(c, 0, ks, roots)
		}
		return
	}
	// The frontier emptied while still synchronous: the whole subtree is
	// replicated on every rank of the partition, rank 0 included.
}
