package core

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"partree/internal/kernel"
	"partree/internal/mp"
	"partree/internal/tree"
)

// levelState is what one synchronous stretch carries across its level
// boundaries. rd/wr is the sibling-subtraction cache (nil when Reuse
// subtraction is off): rd holds the previous level's post-reduction
// parent blocks, wr collects this level's, and the pair swaps at each
// boundary so the steady state allocates nothing per family. vote holds
// the vote families describing the current frontier (nil outside
// voting, or when unknown — see famsCovering). Both halves are
// rank-local state computed from global (post-reduction) data, so every
// rank holds an identical copy with no exchange; the state must be
// dropped whenever the frontier it describes is reshaped — hybrid
// repartitions and checkpoint rollbacks call drop.
type levelState struct {
	rd, wr *kernel.ReuseCache
	vote   []voteFam
}

func newLevelState(o Options) *levelState {
	ls := &levelState{}
	if o.Tree.Reuse.Subtraction {
		ls.rd, ls.wr = kernel.NewReuseCache(), kernel.NewReuseCache()
	}
	return ls
}

// advance crosses a level boundary: the blocks just written become
// readable and the stale read side is recycled for writing.
func (ls *levelState) advance() {
	if ls.rd != nil {
		ls.rd.Reset()
		ls.rd, ls.wr = ls.wr, ls.rd
	}
}

// drop invalidates everything the state holds.
func (ls *levelState) drop() {
	if ls.rd != nil {
		ls.rd.Reset()
		ls.wr.Reset()
	}
	ls.vote = nil
}

// chargeWordOps advances the clock by ops units of t_op — the modeled
// cost of pure in-memory word arithmetic (sibling derivation, cache
// stores), which is the same operation class as a reduction's element-wise
// combine and must not be charged at the disk-scan-amortizing t_c.
func chargeWordOps(c *mp.Comm, ops int64) {
	if ops > 0 {
		c.AdvanceClock(float64(ops) * c.Machine().TOp)
	}
}

// expandLevelSync expands one breadth-first level of the frontier
// synchronously across the ranks of c — the inner loop of the
// synchronous formulation, in RAM and over a chunked table, and of the
// hybrid's synchronous phase; rows says where the local rows live. The
// frontier's statistics are flushed in chunks of at most SyncEveryNodes
// nodes, and each chunk goes through five steps: plan (tree.PlanUnit:
// which members to derive instead of tabulate), tabulate the local
// statistics, reduce them globally, derive the withheld members
// (tree.Unit.Derive), and expand the chunk so every rank takes the
// identical split decisions — the serial level step of tree.GrowFrontierBFS
// with the reduction added; the row source's level passes (Begin, End)
// are charged under PhaseStatistics. Returns the next
// frontier (same order on every rank) and the modeled communication cost
// of this level's reductions, the Σ(Comm Cost) the hybrid's splitting
// criterion accumulates: per flush, Comm.AllreduceCostEstimate of the
// dense reduction volume — under the default collective configuration
// exactly (t_s + t_w·bytes)·⌈log₂P⌉, Equation 2 of the paper, and
// otherwise the fold of the configured algorithm's schedule — the clock
// the live collective is billed on — so the split trigger tracks the
// network the build actually runs on.
//
// With sibling subtraction (ls.rd non-nil), each flush tabulates and
// reduces only the packed blocks of non-derived nodes; every family whose
// parent block is cached derives one child locally after the reduction
// as parent − Σ(tabulated siblings). The derivation plan is a pure
// function of globally identical data (node IDs, GlobalN), so every rank
// packs the same payload and the hybrid's commCost — modeled on the dense
// size of the packed payload — stays identical across ranks. The sparse
// threshold additionally lets the reduction ship near-empty blocks as
// (index, count) pairs. Both transforms are exact: the next frontier is
// bit-identical to the disabled path.
//
// The reduce step is the exact PhaseReduction sum-reduction, unless Vote
// is active (0 < K < A_d) on more than one rank: then it is the voted
// two-round protocol (voteRound, vote.go), the derived sibling is the
// smallest instead of the largest (see voteFam.derVote), derived blocks
// are masked to their usable attribute set, and ls.vote threads the
// vote families to the next level. Under the exact reduction none of
// that runs — every modeled charge is the exact path's — which is what
// makes k ≥ A_d (and P = 1) voted runs bit-identical to exact by
// construction.
func expandLevelSync(c *mp.Comm, rows tree.RowSource, frontier []tree.FrontierItem, o Options, ids *tree.IDGen, ls *levelState) ([]tree.FrontierItem, float64) {
	s := rows.Schema()
	statsLen := tree.StatsLen(s, o.Tree)
	c.BeginPhase(PhaseStatistics)
	rows.Begin(frontier)
	c.EndPhase()
	var vr *voteRound // nil: exact reduction
	if o.Tree.Vote.Active(len(s.Attrs)) && c.Size() > 1 {
		vr = newVoteRound(s, o.Tree, famsCovering(ls.vote, len(frontier)))
	}

	var next []tree.FrontierItem
	var units []tree.Unit
	var kidIDs []int64
	var view tree.NodeStats // every node's decoded statistics, in turn
	commCost := 0.0
	for lo := 0; lo < len(frontier); lo += o.SyncEveryNodes {
		hi := min(lo+o.SyncEveryNodes, len(frontier))
		chunk := frontier[lo:hi]

		// Plan the chunk: slot[j] ≥ 0 places chunk[j]'s block in the packed
		// reduce payload; slot[j] = -(d+1) derives it into derived block d.
		slot := make([]int, len(chunk))
		units = units[:0]
		nTab, nDer := 0, 0
		for j := 0; j < len(chunk); {
			u := tree.PlanUnit(ls.rd, chunk[j:], vr != nil)
			for i := 0; i < u.N; i++ {
				if i == u.Der {
					nDer++
					slot[j+i] = -nDer
				} else {
					slot[j+i] = nTab
					nTab++
				}
			}
			units = append(units, u)
			j += u.N
		}

		red := kernel.GetInt64(nTab * statsLen)
		c.BeginPhase(PhaseStatistics)
		var ops int64
		for j, it := range chunk {
			if sl := slot[j]; sl >= 0 {
				ops += rows.TabulateInto(lo+j, it, red[sl*statsLen:(sl+1)*statsLen])
			}
		}
		c.Compute(float64(ops))
		c.EndPhase()
		if vr != nil {
			vr.reduce(c, frontier, lo, hi, slot, red, &commCost)
		} else if c.Size() > 1 && len(red) > 0 {
			c.BeginPhase(PhaseReduction)
			mp.AllreduceSum(c, red, o.Tree.Reuse.SparseThreshold)
			c.EndPhase()
			commCost += c.AllreduceCostEstimate(8 * len(red))
		}

		// Derive the withheld family members from their cached parents, then
		// expand the chunk in frontier order.
		der := kernel.GetInt64(nDer * statsLen)
		blockOf := func(j int) []int64 {
			if sl := slot[j]; sl >= 0 {
				return red[sl*statsLen : (sl+1)*statsLen]
			}
			d := -slot[j] - 1
			return der[d*statsLen : (d+1)*statsLen]
		}
		c.BeginPhase(PhaseStatistics)
		// Derivation and cache stores are pure in-memory arithmetic on
		// histogram words — the same operation class as the reduction's
		// element-wise combine — so they are charged at t_op, not at t_c
		// (which amortizes the level's disk scan that derivation avoids).
		var derOps int64
		var routeOps int64
		j := 0
		for _, u := range units {
			if u.Der >= 0 {
				derOps += u.Derive(func(i int) []int64 { return blockOf(j + i) })
				derOps += vr.mask(blockOf(j+u.Der), j+u.Der)
			}
			j += u.N
		}
		for j, it := range chunk {
			blk := blockOf(j)
			kids := rows.Expand(lo+j, it, view.Decode(blk, s, o.Tree), ids, &routeOps)
			if len(kids) > 0 {
				// Cache the parent block only when the whole family will land
				// in one flush chunk of the next level: a family straddling a
				// flush boundary cannot be derived (its siblings reduce in
				// different flushes), so storing it would only go stale.
				start := len(next)
				end := start + len(kids)
				if ls.wr != nil && start/o.SyncEveryNodes == (end-1)/o.SyncEveryNodes {
					kidIDs = kidIDs[:0]
					for _, kd := range kids {
						kidIDs = append(kidIDs, kd.Node.ID)
					}
					derOps += ls.wr.Store(blk, kidIDs)
				}
				vr.record(start, len(kids), j)
			}
			next = append(next, kids...)
		}
		c.Compute(float64(routeOps))
		chargeWordOps(c, derOps)
		c.EndPhase()
		kernel.PutInt64(red)
		kernel.PutInt64(der)
	}
	c.BeginPhase(PhaseStatistics)
	rows.End(frontier)
	c.EndPhase()
	ls.advance()
	ls.vote = nil
	if vr != nil {
		ls.vote = vr.next
	}
	return next, commCost
}

// frontierGlobalN sums the global tuple counts of the frontier (set by
// tree.ExpandNodeOOC from the reduced statistics — no extra communication).
func frontierGlobalN(frontier []tree.FrontierItem) int64 {
	var n int64
	for _, it := range frontier {
		n += it.GlobalN
	}
	return n
}

func ceilLog2(p int) int {
	if p <= 1 {
		return 0
	}
	return bits.Len(uint(p - 1))
}

// balanceGroups assigns items with the given weights to ngroups groups so
// group totals are roughly equal: items are taken in descending weight
// (ties by index) and placed on the currently lightest group (ties by
// group index), and every group is guaranteed at least one item when
// len(weights) ≥ ngroups. Deterministic. Returns group of each item.
// This is both the frontier split of the hybrid (ngroups=2) and the node
// grouping of the partitioned formulation's Case 1. Cost: O(n log n) for
// the ordering plus O(n·ngroups) for the placement — the hybrid's
// frontier at its split holds tens of thousands of nodes.
func balanceGroups(weights []int64, ngroups int) []int {
	n := len(weights)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Descending weight, ties by ascending index: a total order, so the
	// unstable sort is deterministic.
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(weights[b], weights[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	group := make([]int, n)
	load := make([]int64, ngroups)
	// Emptiness is tracked explicitly rather than inferred from load==0: a
	// group holding only zero-weight items is occupied but still the
	// lightest, and must keep attracting items instead of being penalized
	// with a phantom unit of load.
	used := make([]bool, ngroups)
	filled := 0
	for pos, i := range order {
		remaining := n - pos
		// Force-fill empty groups when exactly enough items remain.
		g := -1
		if ngroups-filled >= remaining {
			for j := 0; j < ngroups; j++ {
				if !used[j] {
					g = j
					break
				}
			}
		}
		if g < 0 {
			g = lightest(load)
		}
		if !used[g] {
			used[g] = true
			filled++
		}
		group[i] = g
		load[g] += weights[i]
	}
	return group
}

func lightest(load []int64) int {
	g := 0
	for i := 1; i < len(load); i++ {
		if load[i] < load[g] {
			g = i
		}
	}
	return g
}

// proportionalProcs divides p processors among items proportionally to
// their weights, at least one each (requires len(weights) ≤ p). Largest-
// remainder rounding, deterministic ties by index. This is Case 2 of the
// partitioned formulation: "processors assigned to a node proportional to
// the number of training cases".
func proportionalProcs(weights []int64, p int) []int {
	n := len(weights)
	if n > p {
		panic("core: proportionalProcs needs len(weights) <= p")
	}
	var total int64
	for _, w := range weights {
		total += w
	}
	out := make([]int, n)
	rem := make([]float64, n)
	assigned := 0
	for i, w := range weights {
		share := 1.0
		if total > 0 {
			share = float64(w) / float64(total) * float64(p)
		}
		out[i] = int(share)
		if out[i] < 1 {
			out[i] = 1
		}
		rem[i] = share - float64(out[i])
		assigned += out[i]
	}
	// Adjust to exactly p: remove from the smallest-remainder items first
	// (never below 1), then add to the largest-remainder items. Each
	// removal raises an item's remainder by one, past any finite sentinel.
	for assigned > p {
		best, bestRem := -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if out[i] > 1 && rem[i] < bestRem {
				best, bestRem = i, rem[i]
			}
		}
		if best < 0 {
			panic("core: proportionalProcs cannot reduce below one proc per item")
		}
		out[best]--
		rem[best]++
		assigned--
	}
	for assigned < p {
		best, bestRem := 0, -2.0
		for i := 0; i < n; i++ {
			if rem[i] > bestRem {
				best, bestRem = i, rem[i]
			}
		}
		out[best]++
		rem[best]--
		assigned++
	}
	return out
}
