package core

import (
	"fmt"

	"partree/internal/dataset"
	"partree/internal/fault"
	"partree/internal/mp"
	"partree/internal/tree"
)

// This file implements checkpoint/recovery for the three formulations.
//
// The synchronous approach recovers in place: every rank checkpoints its
// frontier row ownership at each level boundary, and on a detected
// failure the survivors shrink to a new communicator, roll back to the
// last globally committed level, adopt the lost ranks' rows, and re-run
// the level. The retried expansion is bit-identical to a fault-free run
// because (a) split decisions are pure functions of globally *summed*
// statistics, which adoption preserves record-for-record, (b)
// tree.ExpandNode fully overwrites a node on re-expansion, and (c) the
// node-id generator is rolled back alongside the frontier.
//
// The partitioned and hybrid approaches (and scalparc, via
// RunRestartable) instead restart from the root: their deeply nested
// communicator/recursion state is not worth checkpointing, and the tree
// they grow is independent of both the processor count and the placement
// of records — only the global record multiset matters — so a restart on
// the shrunken survivor group grows the identical tree. Each rank
// checkpoints its whole local block at the attempt's root partition
// boundary (before the first message-passing operation, so the cut is
// always committed by the time a failure can be detected), and recovery
// restores exactly that cut: each survivor its own block, plus the
// blocks of the lost ranks it inherits. The restart's first record
// shuffle then redistributes the adopted records across the survivor
// group through the ordinary moving path.
//
// Mid-build (per-branch) shuffle boundaries are deliberately NOT used as
// restart cuts, for two reasons established the hard way:
//
//   - a shuffled dataset contains only the records still owned by live
//     frontier nodes — rows retired into leaves at earlier levels are
//     dropped, so the union of post-shuffle blocks underestimates the
//     training set and a root restart from it grows a different tree;
//   - branch shuffles commit per participant *group*, and group-local
//     commits do not compose into a consistent global snapshot: a rank
//     can complete its exchanges of a parent shuffle (records already
//     moved!) and advance into a committed subgroup boundary while a
//     sibling dies before saving the parent cut, leaving restores that
//     double-count the moved records on one side and lose them on the
//     other.
//
// Checkpoint saves are free in modeled time (stable storage off the
// critical path); only recovery itself is charged, under PhaseRecovery,
// so the overhead is directly readable in the breakdown.

// protect runs fn and returns the *fault.Error it panicked with, if any.
// Genuine panics and injected fault.Crashed values propagate — a crashing
// rank must die, not recover itself.
func protect(fn func()) (ferr *fault.Error) {
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		if e, ok := fault.AsError(v); ok {
			ferr = e
			return
		}
		panic(v)
	}()
	fn()
	return nil
}

func worldRankOf(c *mp.Comm) int { return c.WorldRank(c.Rank()) }

// chargeRestore bills restored checkpoint bytes at the wire rate — the
// modeled cost of re-reading state from stable storage during recovery.
func chargeRestore(c *mp.Comm, bytes int) {
	c.AdvanceClock(float64(bytes) * c.Machine().TW)
}

// lostRanks returns the world ranks in old but not in cur, ascending —
// the ranks whose records the survivors must adopt.
func lostRanks(old, cur []int) []int {
	alive := make(map[int]bool, len(cur))
	for _, r := range cur {
		alive[r] = true
	}
	var lost []int
	for _, r := range old {
		if !alive[r] {
			lost = append(lost, r)
		}
	}
	return lost
}

// ---------------------------------------------------------------------------
// Synchronous formulation: level-boundary checkpoints, in-place recovery.

// levelSnap remembers one level boundary in memory: the frontier (whose
// Node pointers and row slices stay valid — records never move in the
// synchronous approach, recovery only appends), the id-generator position,
// and the checkpoint ID saved for it.
type levelSnap struct {
	frontier []tree.FrontierItem
	ids      int64
	ckptID   string
	level    int
	// vote is the voted path's family state entering this level. It is a
	// member of the checkpoint cut: elections exclude each family's
	// derivable member and constrain it to the parent's candidate set, so
	// re-running a level without the families would elect (and mask)
	// differently than the fault-free run did.
	vote []voteFam
}

// encodeFrontier frames each frontier item's local rows, keyed by its
// frontier index, reusing the shuffle codec.
func encodeFrontier(d *dataset.Dataset, frontier []tree.FrontierItem) []byte {
	var buf []byte
	for i, it := range frontier {
		buf = appendFrame(buf, d, int64(i), it.Idx)
	}
	return buf
}

// binnerRanges returns the global attribute ranges currently installed in
// the build's per-node binner (nil before binner setup, i.e. at level 0).
func binnerRanges(o *Options) [][2]float64 {
	if o.Tree.Binner != nil {
		return o.Tree.Binner.Ranges
	}
	return nil
}

func saveLevelCkpt(st fault.Store, c *mp.Comm, d *dataset.Dataset, frontier []tree.FrontierItem,
	root *tree.Node, idsNext int64, ranges [][2]float64, level int, vote []voteFam) string {
	id := fmt.Sprintf("level:%s:%d", c.ID(), level)
	var rows int
	for _, it := range frontier {
		rows += len(it.Idx)
	}
	data := encodeLevelCkpt(d, root, frontier, level, idsNext, ranges, vote)
	st.Save(&fault.Checkpoint{
		ID:           id,
		Rank:         worldRankOf(c),
		Participants: c.Ranks(),
		Meta:         fmt.Sprintf("level %d: %d items, %d rows", level, len(frontier), rows),
		Data:         data,
	})
	if diskBacked(st) {
		c.ChargeDisk(len(data))
	}
	return id
}

// buildSyncFT is BuildSync with level-boundary checkpointing and in-place
// recovery. The comm, dataset, frontier and history variables are only
// replaced when a recovery round fully succeeds, so a fault *during*
// recovery retries from unchanged state.
func buildSyncFT(c *mp.Comm, local *dataset.Dataset, o Options) *tree.Tree {
	ft := o.FT
	st := ft.Store
	root := newRoot(local.Schema)
	ids := tree.NewIDGen(1)
	d := local
	frontier := []tree.FrontierItem{{Node: root, Idx: d.AllIndex()}}
	level := 0
	var history []levelSnap
	retries := 0
	ls := newLevelState(o)
	if ft.Resume {
		if rs, ok := resumeSync(c, st, local, &o); ok {
			c, root, ids, d, frontier, level = rs.c, rs.root, rs.ids, rs.d, rs.frontier, rs.level
			ls.vote = rs.vote
		}
	}
	for len(frontier) > 0 {
		// Re-saved on every attempt: a post-recovery retry checkpoints the
		// adopted rows under the survivor comm's fresh (epoch-suffixed) ID.
		// CheckpointEvery thins the cadence to every k-th level; the first
		// level of an attempt is always saved so recovery (and resume) have
		// a cut belonging to the current attempt.
		if level%ft.ckptEvery() == 0 || len(history) == 0 {
			ckptID := saveLevelCkpt(st, c, d, frontier, root, ids.Snapshot(), binnerRanges(&o), level, ls.vote)
			history = append(history, levelSnap{frontier: frontier, ids: ids.Snapshot(), ckptID: ckptID, level: level, vote: ls.vote})
		}
		var next []tree.FrontierItem
		ferr := protect(func() {
			if level == 0 {
				// The binner's min/max reductions are part of the protected
				// region; re-running them on the survivor group yields the
				// same global ranges (adoption preserves the record multiset).
				setupBinner(c, d, &o)
			}
			next, _ = expandLevelSync(c, tree.NewIndexRows(d, o.Tree), frontier, o, ids, ls)
		})
		if ferr == nil {
			frontier = next
			level++
			continue
		}
		for {
			retries++
			if retries > ft.maxRetries() {
				panic(ferr)
			}
			var nc *mp.Comm
			var nd *dataset.Dataset
			var nf []tree.FrontierItem
			var hi int
			rerr := protect(func() {
				nc, nd, nf, hi = recoverFrontier(c, st, d, history)
			})
			if rerr == nil {
				snap := history[hi]
				ids.Restore(snap.ids)
				c, d, frontier, level, history = nc, nd, nf, snap.level, history[:hi]
				// The reuse cache must not survive a restore: it describes the
				// failed attempt's next level (and may be partially written from
				// the aborted expansion), while the rolled-back frontier re-runs
				// an older level whose parents were never cached. Dropping it
				// costs one full tabulation level, which recovery already pays.
				// Vote families instead roll back with the frontier they
				// describe; the retried level then elects exactly what the
				// aborted attempt did (elections never read the reuse cache).
				ls.drop()
				ls.vote = snap.vote
				break
			}
			ferr = rerr
		}
	}
	return &tree.Tree{Schema: local.Schema, Root: root}
}

// recoverFrontier runs one recovery round for the synchronous builder:
// regroup the survivors, agree on the last committed level, and adopt the
// lost ranks' rows. All message-passing happens before any state is
// built, so a nested fault aborts the round without side effects; the
// local restore that follows cannot fail. Returns the survivor comm, the
// (possibly extended) dataset, the restored frontier and the history
// index of the restored level.
func recoverFrontier(c *mp.Comm, st fault.Store, d *dataset.Dataset, history []levelSnap) (*mp.Comm, *dataset.Dataset, []tree.FrontierItem, int) {
	c.EnterRecovery()
	nc := c.ShrinkAlive()
	nc.BeginPhase(PhaseRecovery)
	defer nc.EndPhase()
	nc.Barrier() // every survivor is past its failed op and in this epoch
	nc.PurgeStale()

	// Local restore: the newest checkpoint every participant committed.
	me := worldRankOf(nc)
	eff := st.Effective(me)
	if eff == nil {
		panic("core: recovery with no committed checkpoint")
	}
	hi := -1
	for i := len(history) - 1; i >= 0; i-- {
		if history[i].ckptID == eff.ID {
			hi = i
			break
		}
	}
	if hi < 0 {
		panic(fmt.Sprintf("core: committed checkpoint %q not in this rank's history", eff.ID))
	}
	snap := history[hi]

	// Fresh frontier with copied row slices (history must stay pristine in
	// case a later fault rolls back here again).
	nf := make([]tree.FrontierItem, len(snap.frontier))
	for i, it := range snap.frontier {
		nf[i] = it
		nf[i].Idx = append([]int32(nil), it.Idx...)
	}

	// Adopt the lost ranks' rows: lost rank i goes to survivor i mod P',
	// every survivor computes the same assignment.
	nd := d
	lost := lostRanks(c.Ranks(), nc.Ranks())
	for i, lr := range lost {
		if nc.Ranks()[i%nc.Size()] != me {
			continue
		}
		lcp := st.Effective(lr)
		if lcp == nil || lcp.ID != eff.ID {
			panic(fmt.Sprintf("core: lost rank %d has no checkpoint for committed cut %q", lr, eff.ID))
		}
		if nd == d {
			nd = d.Slice(0, d.Len()) // copy-on-adopt: keep the caller's block intact
		}
		rows, err := levelCkptRows(lcp.Data)
		if err != nil {
			panic(fmt.Sprintf("core: restoring rank %d's checkpoint: %v", lr, err))
		}
		perKey := make(map[int][]int32, len(nf))
		if err := decodeFrames(nd, perKey, d.Schema, rows); err != nil {
			panic(fmt.Sprintf("core: restoring rank %d's checkpoint: %v", lr, err))
		}
		for j := range nf {
			nf[j].Idx = append(nf[j].Idx, perKey[j]...)
		}
		chargeRestore(nc, len(lcp.Data))
		chargeDiskRead(nc, st, len(lcp.Data))
	}
	return nc, nd, nf, hi
}

// ---------------------------------------------------------------------------
// Partitioned / hybrid / scalparc: restart-from-root recovery.

func saveInitCkpt(st fault.Store, c *mp.Comm, d *dataset.Dataset) {
	data := dataset.EncodeAll(nil, d)
	st.Save(&fault.Checkpoint{
		ID:           "init:" + c.ID(),
		Rank:         worldRankOf(c),
		Participants: c.Ranks(),
		Meta:         fmt.Sprintf("build start: %d rows", d.Len()),
		Data:         data,
	})
	if diskBacked(st) {
		c.ChargeDisk(len(data))
	}
}

// RunRestartable executes body(c, local) with restart-from-root fault
// tolerance: each attempt starts by checkpointing every rank's local
// block, and a detected failure shrinks to the survivor group, restores
// each rank's block from the last committed cut (adopting the lost
// ranks' blocks), and re-runs body from scratch on the new comm. body
// must grow a result that depends only on the *global multiset* of
// training records — true of all builders in this repository — so the
// restarted run is bit-identical. Exported for scalparc.BuildFT.
func RunRestartable(c *mp.Comm, local *dataset.Dataset, ft *FTOptions, body func(c *mp.Comm, local *dataset.Dataset) any) any {
	st := ft.Store
	d := local
	if ft.Resume {
		c, d = resumeRestart(c, st, d)
	}
	retries := 0
	for {
		saveInitCkpt(st, c, d)
		var out any
		ferr := protect(func() { out = body(c, d) })
		if ferr == nil {
			return out
		}
		for {
			retries++
			if retries > ft.maxRetries() {
				panic(ferr)
			}
			var nc *mp.Comm
			var nd *dataset.Dataset
			rerr := protect(func() { nc, nd = recoverRestart(c, st, d) })
			if rerr == nil {
				c, d = nc, nd
				break
			}
			ferr = rerr
		}
	}
}

// recoverRestart regroups the survivors and rebuilds this rank's local
// block from the failed attempt's root-partition cut — "init:<comm>",
// which every rank of the attempt saved before its first message-passing
// operation (a rank can only die *at* an operation, so the cut is always
// fully saved, hence committed, by the time a failure is detected). Each
// survivor restores its own block and the blocks of the lost ranks it
// inherits (lost rank i → survivor i mod P'), so the union is the full
// training multiset by construction.
func recoverRestart(c *mp.Comm, st fault.Store, d *dataset.Dataset) (*mp.Comm, *dataset.Dataset) {
	c.EnterRecovery()
	nc := c.ShrinkAlive()
	nc.BeginPhase(PhaseRecovery)
	defer nc.EndPhase()
	nc.Barrier()
	nc.PurgeStale()

	initID := "init:" + c.ID()
	me := worldRankOf(nc)
	eff := st.Get(me, initID)
	if eff == nil {
		panic(fmt.Sprintf("core: recovery without a committed %q checkpoint", initID))
	}
	nd := dataset.New(d.Schema, 0)
	if err := dataset.Decode(nd, d.Schema, eff.Data); err != nil {
		panic(fmt.Sprintf("core: restoring own checkpoint: %v", err))
	}
	chargeRestore(nc, len(eff.Data))
	chargeDiskRead(nc, st, len(eff.Data))
	lost := lostRanks(c.Ranks(), nc.Ranks())
	for i, lr := range lost {
		if nc.Ranks()[i%nc.Size()] != me {
			continue
		}
		lcp := st.Get(lr, initID)
		if lcp == nil {
			panic(fmt.Sprintf("core: lost rank %d has no %q checkpoint", lr, initID))
		}
		if err := dataset.Decode(nd, d.Schema, lcp.Data); err != nil {
			panic(fmt.Sprintf("core: restoring rank %d's checkpoint: %v", lr, err))
		}
		chargeRestore(nc, len(lcp.Data))
		chargeDiskRead(nc, st, len(lcp.Data))
	}
	return nc, nd
}
