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
// tree.ExpandNodeOOC fully overwrites a node on re-expansion, and (c) the
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
// rank must die, not recover itself. protect is the recovery boundary:
// a caught fault leaves the rank's phase stack as it was on entry (the
// panic skipped the EndPhase of every phase fn opened since), and mp
// panics with c's ID if a collective is still open there.
func protect(c *mp.Comm, fn func()) (ferr *fault.Error) {
	unwind := c.PhaseMark()
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		e, ok := fault.AsError(v)
		if !ok {
			panic(v)
		}
		unwind()
		ferr = e
	}()
	fn()
	return nil
}

// maxRecoveryRounds bounds how many recovery rounds a build attempts
// before giving up and propagating the fault (covers nested faults
// during recovery itself).
const maxRecoveryRounds = 8

// recoverRounds runs round — one recovery from fault ferr — until a round
// completes without a fault of its own. rounds counts them over the
// whole build; the fault propagates once they exceed maxRecoveryRounds.
func recoverRounds(c *mp.Comm, rounds *int, ferr *fault.Error, round func()) {
	for ferr != nil {
		*rounds++
		if *rounds > maxRecoveryRounds {
			panic(ferr)
		}
		ferr = protect(c, round)
	}
}

// regroup moves the caller into the current recovery epoch and returns
// the survivor communicator with PhaseRecovery pushed; the caller pops
// it. A fault inside regroup leaves the phase to the protect boundary.
func regroup(c *mp.Comm) *mp.Comm {
	c.EnterRecovery()
	nc := c.ShrinkAlive()
	nc.BeginPhase(PhaseRecovery)
	nc.Barrier() // every survivor is past its failed op and in this epoch
	nc.PurgeStale()
	return nc
}

func worldRankOf(c *mp.Comm) int { return c.WorldRank(c.Rank()) }

// chargeRestore bills restored checkpoint bytes at the wire rate — the
// modeled cost of re-reading state from stable storage during recovery.
func chargeRestore(c *mp.Comm, bytes int) {
	c.AdvanceClock(float64(bytes) * c.Machine().TW)
}

// chargeDiskRead records checkpoint bytes read back from a durable store
// against the disk cost class (free under an in-memory store).
func chargeDiskRead(c *mp.Comm, st fault.Store, bytes int) {
	if diskBacked(st) {
		c.ChargeDisk(bytes)
	}
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

// ownCopy says where a restore finds this rank's own share of a cut.
type ownCopy int

const (
	// ownIfSaved restores this rank's copy when it saved one. A resumed
	// rank outside the cut's participants holds none: its records live in
	// a participant's copy.
	ownIfSaved ownCopy = iota
	// ownSaved restores this rank's copy, which must exist: every
	// survivor of an in-run restart saved the cut.
	ownSaved
	// ownInMemory leaves this rank's rows to the caller. In-run level
	// recovery keeps them in its history and picked the cut as its newest
	// committed checkpoint, so each lost rank's newest committed
	// checkpoint must be that same cut.
	ownInMemory
)

// restoreCut restores this rank's share of the committed cut id on the
// new communicator nc: its own copy, as own says, then the copy of each
// participant missing from nc that the heir rule hands it — lost rank i
// goes to survivor i mod P′, an assignment every survivor computes
// alike, so nc as a whole restores the cut's full record multiset.
// decode applies one copy's payload. Each restored copy is billed once:
// at the wire rate, and to the disk cost class under a durable store.
func restoreCut(nc *mp.Comm, st fault.Store, id string, participants []int, own ownCopy,
	decode func(cp *fault.Checkpoint) error) {
	restore := func(cp *fault.Checkpoint) {
		if err := decode(cp); err != nil {
			panic(fmt.Sprintf("core: restoring rank %d's copy of %q: %v", cp.Rank, id, err))
		}
		chargeRestore(nc, len(cp.Data))
		chargeDiskRead(nc, st, len(cp.Data))
	}
	me := worldRankOf(nc)
	if own != ownInMemory {
		my := st.Get(me, id)
		if my == nil && own == ownSaved {
			panic(fmt.Sprintf("core: recovery without a committed %q checkpoint", id))
		}
		if my != nil {
			restore(my)
		}
	}
	ranks := nc.Ranks()
	for i, lr := range lostRanks(participants, ranks) {
		if ranks[i%len(ranks)] != me {
			continue
		}
		var lcp *fault.Checkpoint
		if own == ownInMemory {
			lcp = st.Effective(lr)
			if lcp != nil && lcp.ID != id {
				panic(fmt.Sprintf("core: lost rank %d's newest committed checkpoint %q is not the cut %q", lr, lcp.ID, id))
			}
		} else {
			lcp = st.Get(lr, id)
		}
		if lcp == nil {
			panic(fmt.Sprintf("core: lost rank %d has no committed copy of cut %q", lr, id))
		}
		restore(lcp)
	}
}

// ---------------------------------------------------------------------------
// Synchronous formulation: level-boundary checkpoints, in-place recovery.

// levelSnap remembers one level boundary in memory: the frontier (whose
// Node pointers stay valid, with its row ids copied at the cut — the live
// frontier's point into the level layout, which later levels overwrite;
// records never move in the synchronous approach, recovery only appends),
// the id-generator position, and the checkpoint ID saved for it.
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

// copyFrontier returns frontier with its rows copied into one fresh
// array, each item's Idx a cap-limited sub-slice of it.
func copyFrontier(frontier []tree.FrontierItem) []tree.FrontierItem {
	n := 0
	for _, it := range frontier {
		n += len(it.Idx)
	}
	all := make([]int32, 0, n)
	out := make([]tree.FrontierItem, len(frontier))
	for i, it := range frontier {
		lo := len(all)
		all = append(all, it.Idx...)
		out[i] = it
		out[i].Idx = all[lo:len(all):len(all)]
	}
	return out
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
	rounds := 0
	ls := newLevelState(o)
	// The level layout over d, built once the binner is set up. The
	// frontiers it hands out point into it, so history keeps copies.
	var rows tree.RowSource
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
			history = append(history, levelSnap{frontier: copyFrontier(frontier), ids: ids.Snapshot(), ckptID: ckptID, level: level, vote: ls.vote})
		}
		var next []tree.FrontierItem
		ferr := protect(c, func() {
			if level == 0 {
				// The binner's min/max reductions are part of the protected
				// region; re-running them on the survivor group yields the
				// same global ranges (adoption preserves the record multiset).
				setupBinner(c, d, &o)
			}
			if rows == nil {
				rows = tree.NewIndexRows(d, o.Tree)
			}
			next, _ = expandLevelSync(c, rows, frontier, o, ids, ls)
		})
		if ferr == nil {
			frontier = next
			level++
			continue
		}
		var nc *mp.Comm
		var nd *dataset.Dataset
		var nf []tree.FrontierItem
		var hi int
		recoverRounds(c, &rounds, ferr, func() { nc, nd, nf, hi = recoverFrontier(c, st, d, history) })
		snap := history[hi]
		ids.Restore(snap.ids)
		c, d, frontier, level, history = nc, nd, nf, snap.level, history[:hi]
		rows = nil // laid out over the old d, and mid-level when it failed
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
	}
	return &tree.Tree{Schema: local.Schema, Root: root}
}

// recoverFrontier runs one recovery round for the synchronous builder:
// regroup the survivors, roll back to this rank's newest committed level
// cut, and adopt the lost ranks' rows. All message-passing happens before
// any state is built, so a nested fault aborts the round without side
// effects; the local restore that follows cannot fail. Returns the
// survivor comm, the (possibly extended) dataset, the restored frontier
// and the history index of the restored level.
func recoverFrontier(c *mp.Comm, st fault.Store, d *dataset.Dataset, history []levelSnap) (*mp.Comm, *dataset.Dataset, []tree.FrontierItem, int) {
	nc := regroup(c)
	defer nc.EndPhase()

	// The newest checkpoint every participant committed; this rank's own
	// rows are its history snapshot of that level.
	eff := st.Effective(worldRankOf(nc))
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

	// Fresh frontier with copied row slices (history must stay pristine in
	// case a later fault rolls back here again).
	nf := copyFrontier(history[hi].frontier)
	nd := d
	restoreCut(nc, st, eff.ID, c.Ranks(), ownInMemory, func(cp *fault.Checkpoint) error {
		if nd == d {
			nd = d.Slice(0, d.Len()) // copy-on-adopt: keep the caller's block intact
		}
		return adoptLevelRows(nd, nf, cp.Data)
	})
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
// restarted run is bit-identical. Without a store, or on one rank, body
// simply runs once. Exported for scalparc.BuildFT.
func RunRestartable[T any](c *mp.Comm, local *dataset.Dataset, ft *FTOptions, body func(c *mp.Comm, local *dataset.Dataset) T) T {
	if !ft.on(c) {
		return body(c, local)
	}
	st := ft.Store
	d := local
	if ft.Resume {
		c, d = resumeRestart(c, st, d)
	}
	rounds := 0
	for {
		saveInitCkpt(st, c, d)
		var out T
		ferr := protect(c, func() { out = body(c, d) })
		if ferr == nil {
			return out
		}
		var nc *mp.Comm
		var nd *dataset.Dataset
		recoverRounds(c, &rounds, ferr, func() { nc, nd = recoverRestart(c, st, d) })
		c, d = nc, nd
	}
}

// recoverRestart regroups the survivors and rebuilds this rank's local
// block from the failed attempt's root-partition cut — "init:<comm>",
// which every rank of the attempt saved before its first message-passing
// operation (a rank can only die *at* an operation, so the cut is always
// fully saved, hence committed, by the time a failure is detected). Each
// survivor restores its own block and the blocks of the lost ranks it
// inherits, so the union is the full training multiset by construction.
func recoverRestart(c *mp.Comm, st fault.Store, d *dataset.Dataset) (*mp.Comm, *dataset.Dataset) {
	nc := regroup(c)
	defer nc.EndPhase()
	nd := dataset.New(d.Schema, 0)
	restoreCut(nc, st, "init:"+c.ID(), c.Ranks(), ownSaved, decodeInto(nd))
	return nc, nd
}

// decodeInto returns a restore decoder appending a whole-block payload
// to d.
func decodeInto(d *dataset.Dataset) func(cp *fault.Checkpoint) error {
	return func(cp *fault.Checkpoint) error { return dataset.Decode(d, d.Schema, cp.Data) }
}
