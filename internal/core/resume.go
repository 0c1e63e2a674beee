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
	cur := ckptCursor{b: data}
	if string(cur.bytes(4)) != levelCkptMagic {
		return nil, fmt.Errorf("%w: bad magic", errLevelCkpt)
	}
	version := cur.u32()
	if cur.err == nil && version != 1 && version != 2 {
		return nil, fmt.Errorf("%w: version %d", errLevelCkpt, version)
	}
	lk := &levelCkpt{}
	lk.level = int(cur.u32())
	lk.idsNext = int64(cur.u64())
	nr := int(cur.u32())
	if cur.err == nil && nr > 1<<20 {
		return nil, fmt.Errorf("%w: %d ranges", errLevelCkpt, nr)
	}
	for i := 0; i < nr && cur.err == nil; i++ {
		lk.ranges = append(lk.ranges, [2]float64{
			math.Float64frombits(cur.u64()), math.Float64frombits(cur.u64())})
	}
	lk.treeJS = cur.bytes(int(cur.u32()))
	ni := int(cur.u32())
	if cur.err == nil && ni > 1<<24 {
		return nil, fmt.Errorf("%w: %d frontier items", errLevelCkpt, ni)
	}
	for i := 0; i < ni && cur.err == nil; i++ {
		it := levelItem{id: int64(cur.u64()), globalN: int64(cur.u64())}
		np := int(cur.u32())
		if cur.err == nil && np > tree.MaxModelDepth {
			return nil, fmt.Errorf("%w: path of %d steps", errLevelCkpt, np)
		}
		for j := 0; j < np && cur.err == nil; j++ {
			it.path = append(it.path, int32(cur.u32()))
		}
		lk.items = append(lk.items, it)
	}
	lk.rows = cur.bytes(int(cur.u32()))
	if version >= 2 {
		nf := int(cur.u32())
		if cur.err == nil && nf > 1<<24 {
			return nil, fmt.Errorf("%w: %d vote families", errLevelCkpt, nf)
		}
		if cur.err == nil && nf > 0 {
			lk.vote = make([]voteFam, 0, nf)
		}
		for i := 0; i < nf && cur.err == nil; i++ {
			f := voteFam{lo: int(cur.u32()), n: int(cur.u32())}
			f.root = cur.u32()&1 != 0
			na := cur.u32()
			if na != voteAttrsNil {
				if cur.err == nil && na > 1<<20 {
					return nil, fmt.Errorf("%w: %d vote attrs", errLevelCkpt, na)
				}
				f.pAttrs = make([]int32, 0, na)
				for j := uint32(0); j < na && cur.err == nil; j++ {
					f.pAttrs = append(f.pAttrs, int32(cur.u32()))
				}
			}
			if cur.err == nil {
				lk.vote = append(lk.vote, f)
			}
		}
	}
	if cur.err != nil {
		return nil, cur.err
	}
	if cur.off != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", errLevelCkpt, len(data)-cur.off)
	}
	return lk, nil
}

// levelCkptRows returns just the rows section — the fast path for in-run
// recovery, which shares the partial tree in memory and only needs the
// lost rank's frontier rows.
func levelCkptRows(data []byte) ([]byte, error) {
	lk, err := decodeLevelCkpt(data)
	if err != nil {
		return nil, err
	}
	return lk.rows, nil
}

// ckptCursor is a bounds-checked little-endian reader over a level
// checkpoint; the first violation latches err.
type ckptCursor struct {
	b   []byte
	off int
	err error
}

func (c *ckptCursor) u32() uint32 {
	if c.err != nil {
		return 0
	}
	if c.off+4 > len(c.b) {
		c.err = fmt.Errorf("%w: truncated at offset %d", errLevelCkpt, c.off)
		return 0
	}
	v := binary.LittleEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v
}

func (c *ckptCursor) u64() uint64 {
	if c.err != nil {
		return 0
	}
	if c.off+8 > len(c.b) {
		c.err = fmt.Errorf("%w: truncated at offset %d", errLevelCkpt, c.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(c.b[c.off:])
	c.off += 8
	return v
}

func (c *ckptCursor) bytes(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || c.off+n > len(c.b) {
		c.err = fmt.Errorf("%w: %d-byte field at offset %d overruns payload", errLevelCkpt, n, c.off)
		return nil
	}
	v := c.b[c.off : c.off+n]
	c.off += n
	return v
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

// chargeDiskRead records checkpoint bytes read back from a durable store
// against the disk cost class (free under an in-memory store).
func chargeDiskRead(c *mp.Comm, st fault.Store, bytes int) {
	if diskBacked(st) {
		c.ChargeDisk(bytes)
	}
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
	me := worldRankOf(nc)
	adopt := func(cp *fault.Checkpoint) {
		own, err := decodeLevelCkpt(cp.Data)
		if err != nil {
			panic(fmt.Sprintf("core: resume: rank %d rows: %v", cp.Rank, err))
		}
		perKey := make(map[int][]int32, len(frontier))
		if err := decodeFrames(d, perKey, local.Schema, own.rows); err != nil {
			panic(fmt.Sprintf("core: resume: rank %d rows: %v", cp.Rank, err))
		}
		for j := range frontier {
			frontier[j].Idx = append(frontier[j].Idx, perKey[j]...)
		}
		chargeRestore(nc, len(cp.Data))
		chargeDiskRead(nc, st, len(cp.Data))
	}
	if my := st.Get(me, cut.ID); my != nil {
		adopt(my)
	}
	lost := lostRanks(cut.Participants, nc.Ranks())
	for i, lr := range lost {
		if nc.Ranks()[i%nc.Size()] != me {
			continue
		}
		lcp := st.Get(lr, cut.ID)
		if lcp == nil {
			panic(fmt.Sprintf("core: resume: lost rank %d missing from committed cut %q", lr, cut.ID))
		}
		adopt(lcp)
	}

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
	me := worldRankOf(nc)
	if my := st.Get(me, cut.ID); my != nil {
		if err := dataset.Decode(nd, local.Schema, my.Data); err != nil {
			panic(fmt.Sprintf("core: resume: own block: %v", err))
		}
		chargeRestore(nc, len(my.Data))
		chargeDiskRead(nc, st, len(my.Data))
	}
	lost := lostRanks(cut.Participants, nc.Ranks())
	for i, lr := range lost {
		if nc.Ranks()[i%nc.Size()] != me {
			continue
		}
		lcp := st.Get(lr, cut.ID)
		if lcp == nil {
			panic(fmt.Sprintf("core: resume: lost rank %d missing from committed cut %q", lr, cut.ID))
		}
		if err := dataset.Decode(nd, local.Schema, lcp.Data); err != nil {
			panic(fmt.Sprintf("core: resume: rank %d block: %v", lr, err))
		}
		chargeRestore(nc, len(lcp.Data))
		chargeDiskRead(nc, st, len(lcp.Data))
	}
	return nc, nd
}
