package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"partree/internal/dataset"
	"partree/internal/fault"
	"partree/internal/mp"
	"partree/internal/tree"
	"partree/internal/wire"
)

// This file implements process-restart resume: rebuilding a build's state
// from a durable checkpoint store after the whole process died (kill -9
// mid-build), including the elastic case where the new world has fewer
// ranks than the one that crashed (P′ < P).
//
// The synchronous formulation resumes from the last committed *level*
// cut: its durable checkpoint is self-contained — the partial tree above
// the frontier, the frontier items (node identity, global count, path
// from the root), the id-generator position, the global attribute ranges,
// and the rank's frontier rows — so a fresh process reconstructs the
// exact mid-build state and continues expanding. The restart-from-root
// builders resume from their init cut, which is simply every rank's local
// block.
//
// Two rules make resume correct:
//
//   - The cut is chosen by Store.EffectiveCut — the globally newest
//     committed checkpoint — not per-rank Effective. The final cut's
//     participants can be a strict subset of the new world (the crashed
//     run had itself shrunk to survivors, or the resume is elastic), and
//     ranks outside the participant list must NOT restore an older cut of
//     their own: their records already live inside some participant's
//     checkpoint. Such ranks resume with an empty block, which is
//     harmless — every builder's result depends only on the global record
//     multiset.
//   - The resumed attempt runs on a *rebased* communicator
//     ("w~1", "w~2", ... per resume generation), so the boundary IDs it
//     saves never collide with IDs the previous incarnation left on
//     disk. Without the rebase, the commit rule could confuse a stale
//     pre-crash copy of an ID with the current attempt's saves.

// Typed errors of the level-checkpoint codec.
var (
	errLevelCkpt = errors.New("core: malformed level checkpoint")
)

const levelCkptMagic = "PTLV"

// levelCkpt is the decoded form of a synchronous level checkpoint.
type levelCkpt struct {
	level   int
	idsNext int64
	ranges  [][2]float64 // global attribute ranges (empty before binner setup)
	treeJS  []byte       // partial tree above the frontier, tree-JSON
	items   []levelItem
	rows    []byte    // this rank's frontier rows, frame-coded per item index
	vote    []voteFam // vote families entering the level (version ≥ 2; nil in v1 cuts)
}

type levelItem struct {
	id      int64   // frontier node id (drives reuse planning + id determinism)
	globalN int64   // global record count at the node
	path    []int32 // child indices from the root to the node
}

// encodeLevelCkpt serializes the globally shared header (identical on
// every rank: partial tree, items, ids, ranges, vote families) followed
// by this rank's frontier rows. Version 2 appends the voted path's
// family section after the rows; version-1 cuts (pre-vote stores) are
// still decodable and yield nil vote state.
func encodeLevelCkpt(d *dataset.Dataset, root *tree.Node, frontier []tree.FrontierItem,
	level int, idsNext int64, ranges [][2]float64, fams []voteFam) []byte {
	var tj bytes.Buffer
	if err := tree.WriteJSON(&tj, &tree.Tree{Schema: d.Schema, Root: root}); err != nil {
		panic(fmt.Sprintf("core: encoding level checkpoint tree: %v", err))
	}
	paths := frontierPaths(root, frontier)

	buf := []byte(levelCkptMagic)
	buf = binary.LittleEndian.AppendUint32(buf, 2) // version
	buf = binary.LittleEndian.AppendUint32(buf, uint32(level))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(idsNext))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ranges)))
	for _, r := range ranges {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r[0]))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r[1]))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(tj.Len()))
	buf = append(buf, tj.Bytes()...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(frontier)))
	for i, it := range frontier {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(it.Node.ID))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(it.GlobalN))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(paths[i])))
		for _, p := range paths[i] {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(p))
		}
	}
	rows := encodeFrontier(d, frontier)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rows)))
	buf = append(buf, rows...)
	// Version 2: vote families (ballots' election state is a cut member —
	// without it a resumed voted level would elect differently than the
	// crashed run). A sentinel attr count distinguishes a nil (unrestricted)
	// parent set from an empty one.
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(fams)))
	for _, f := range fams {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(f.lo))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(f.n))
		var flags uint32
		if f.root {
			flags |= 1
		}
		buf = binary.LittleEndian.AppendUint32(buf, flags)
		if f.pAttrs == nil {
			buf = binary.LittleEndian.AppendUint32(buf, voteAttrsNil)
			continue
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(f.pAttrs)))
		for _, a := range f.pAttrs {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(a))
		}
	}
	return buf
}

// voteAttrsNil marks a nil (unrestricted) parent attribute set in the
// version-2 vote-family section.
const voteAttrsNil = ^uint32(0)

// decodeLevelCkpt parses a full level checkpoint; all violations are
// typed errors (the payload is CRC-verified by the durable store, so a
// failure here means an encoder bug or a hand-tampered store).
func decodeLevelCkpt(data []byte) (*levelCkpt, error) {
	r := wire.NewReader(data, errLevelCkpt)
	if string(r.Bytes(4)) != levelCkptMagic {
		return nil, fmt.Errorf("%w: bad magic", errLevelCkpt)
	}
	version := r.U32()
	if r.Err() == nil && version != 1 && version != 2 {
		return nil, fmt.Errorf("%w: version %d", errLevelCkpt, version)
	}
	lk := &levelCkpt{}
	lk.level = int(r.U32())
	lk.idsNext = int64(r.U64())
	nr := r.Count(16, "ranges")
	for i := 0; i < nr; i++ {
		lk.ranges = append(lk.ranges, [2]float64{
			math.Float64frombits(r.U64()), math.Float64frombits(r.U64())})
	}
	lk.treeJS = r.Bytes(int(r.U32()))
	ni := r.Count(20, "frontier items")
	for i := 0; i < ni; i++ {
		it := levelItem{id: int64(r.U64()), globalN: int64(r.U64())}
		np := r.Count(4, "path steps")
		if np > tree.MaxModelDepth {
			return nil, fmt.Errorf("%w: path of %d steps", errLevelCkpt, np)
		}
		for j := 0; j < np; j++ {
			it.path = append(it.path, int32(r.U32()))
		}
		lk.items = append(lk.items, it)
	}
	lk.rows = r.Bytes(int(r.U32()))
	if version >= 2 {
		nf := r.Count(16, "vote families")
		if nf > 0 {
			lk.vote = make([]voteFam, 0, nf)
		}
		for i := 0; i < nf; i++ {
			f := voteFam{lo: int(r.U32()), n: int(r.U32())}
			f.root = r.U32()&1 != 0
			if na := r.U32(); na != voteAttrsNil {
				n := r.Fits(uint64(na), 4, "vote attrs")
				f.pAttrs = make([]int32, 0, n)
				for j := 0; j < n; j++ {
					f.pAttrs = append(f.pAttrs, int32(r.U32()))
				}
			}
			lk.vote = append(lk.vote, f)
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return lk, nil
}

// adoptLevelRows appends the frontier rows of a level checkpoint to d
// and their row indices to the matching frontier items.
func adoptLevelRows(d *dataset.Dataset, frontier []tree.FrontierItem, data []byte) error {
	lk, err := decodeLevelCkpt(data)
	if err != nil {
		return err
	}
	perKey := make([][]int32, len(frontier))
	if err := decodeFrames(d, perKey, d.Schema, lk.rows); err != nil {
		return err
	}
	for j := range frontier {
		frontier[j].Idx = append(frontier[j].Idx, perKey[j]...)
	}
	return nil
}

// frontierPaths returns, for each frontier item, the child-index path
// from the root to its node. Frontier nodes are leaves of the partial
// tree, so a DFS identifies them by pointer.
func frontierPaths(root *tree.Node, frontier []tree.FrontierItem) [][]int32 {
	want := make(map[*tree.Node]int, len(frontier))
	for i, it := range frontier {
		want[it.Node] = i
	}
	out := make([][]int32, len(frontier))
	found := 0
	var cur []int32
	var walk func(n *tree.Node)
	walk = func(n *tree.Node) {
		if n == nil || found == len(want) {
			return
		}
		if i, ok := want[n]; ok {
			out[i] = append([]int32(nil), cur...)
			found++
			return
		}
		for ci, ch := range n.Children {
			cur = append(cur, int32(ci))
			walk(ch)
			cur = cur[:len(cur)-1]
		}
	}
	walk(root)
	if found != len(want) {
		panic("core: frontier node not reachable from root")
	}
	return out
}

// nodeAtPath walks a decoded tree along a child-index path.
func nodeAtPath(root *tree.Node, path []int32) (*tree.Node, error) {
	n := root
	for _, p := range path {
		if n == nil || int(p) < 0 || int(p) >= len(n.Children) {
			return nil, fmt.Errorf("%w: frontier path leaves the tree", errLevelCkpt)
		}
		n = n.Children[p]
	}
	if n == nil {
		return nil, fmt.Errorf("%w: frontier path ends at an empty child", errLevelCkpt)
	}
	return n, nil
}

// resumeGen extracts the resume generation from a checkpoint ID's
// communicator segment: "level:w~2:5" → 2, "init:w" → 0. Recovery-epoch
// suffixes ("!e") are ignored.
func resumeGen(id string) int {
	s := id
	if i := strings.IndexByte(s, ':'); i >= 0 {
		s = s[i+1:] // strip the "level"/"init" prefix
	}
	if i := strings.IndexByte(s, ':'); i >= 0 {
		s = s[:i] // keep the communicator segment
	}
	if i := strings.IndexByte(s, '!'); i >= 0 {
		s = s[:i]
	}
	i := strings.LastIndexByte(s, '~')
	if i < 0 {
		return 0
	}
	n, err := strconv.Atoi(s[i+1:])
	if err != nil {
		return 0
	}
	return n
}

// syncResume is the reconstructed mid-build state of a synchronous
// resume.
type syncResume struct {
	c        *mp.Comm
	root     *tree.Node
	ids      *tree.IDGen
	d        *dataset.Dataset
	frontier []tree.FrontierItem
	level    int
	vote     []voteFam
}

// resumeSync restores the last committed level cut from the store: the
// shared header (partial tree, frontier identity, ids, ranges) from the
// cut's canonical checkpoint, this rank's rows from its own copy (absent
// when the rank was not a participant — its records live in a
// participant's checkpoint), and the rows of participants missing from
// the new world via the heir rule. Purely local — no message passing —
// so resume needs no fault protection of its own. Returns false when the
// store holds no committed level cut.
func resumeSync(c *mp.Comm, st fault.Store, local *dataset.Dataset, o *Options) (*syncResume, bool) {
	cut := st.EffectiveCut()
	if cut == nil || !strings.HasPrefix(cut.ID, "level:") {
		return nil, false
	}
	nc := c.Rebase(resumeGen(cut.ID) + 1)
	nc.BeginPhase(PhaseRecovery)
	defer nc.EndPhase()

	lk, err := decodeLevelCkpt(cut.Data)
	if err != nil {
		panic(fmt.Sprintf("core: resume: %v", err))
	}
	pt, err := tree.ReadJSON(bytes.NewReader(lk.treeJS))
	if err != nil {
		panic(fmt.Sprintf("core: resume: partial tree: %v", err))
	}
	root := pt.Root
	frontier := make([]tree.FrontierItem, len(lk.items))
	for i, it := range lk.items {
		n, err := nodeAtPath(root, it.path)
		if err != nil {
			panic(fmt.Sprintf("core: resume: %v", err))
		}
		n.ID = it.id
		frontier[i] = tree.FrontierItem{Node: n, GlobalN: it.globalN}
	}

	d := dataset.New(local.Schema, 0)
	restoreCut(nc, st, cut.ID, cut.Participants, ownIfSaved, func(cp *fault.Checkpoint) error {
		return adoptLevelRows(d, frontier, cp.Data)
	})

	if len(lk.ranges) > 0 {
		o.Tree.Binner = o.binner(lk.ranges)
	}
	return &syncResume{
		c: nc, root: root, ids: tree.NewIDGen(lk.idsNext),
		d: d, frontier: frontier, level: lk.level, vote: lk.vote,
	}, true
}

// resumeRestart restores the init cut for the restart-from-root
// builders: this rank's whole local block (empty when the rank was not a
// participant of the final cut) plus the blocks of participants missing
// from the new world, on a rebased communicator. Returns the original
// comm and block when the store holds no committed init cut.
func resumeRestart(c *mp.Comm, st fault.Store, local *dataset.Dataset) (*mp.Comm, *dataset.Dataset) {
	cut := st.EffectiveCut()
	if cut == nil || !strings.HasPrefix(cut.ID, "init:") {
		return c, local
	}
	nc := c.Rebase(resumeGen(cut.ID) + 1)
	nc.BeginPhase(PhaseRecovery)
	defer nc.EndPhase()

	nd := dataset.New(local.Schema, 0)
	restoreCut(nc, st, cut.ID, cut.Participants, ownIfSaved, decodeInto(nd))
	return nc, nd
}
