package scalparc

import (
	"encoding/binary"
	"fmt"
	"math"

	"partree/internal/mp"
	"partree/internal/sprint"
	"partree/internal/tree"
)

// splitPhase applies the chosen splits, builds the rid → child mapping
// for every splitting node (by the selected hash strategy), partitions
// all attribute lists among the children, and returns the next frontier.
func (b *builder) splitPhase(frontier []nodeSlice, dists []int64, splits []tree.Split) []nodeSlice {
	nClasses := b.s.NumClasses()

	// Finalize node metadata and create children (replicated); active
	// holds the frontier indexes of the splitting nodes.
	var active []int
	sub := b.subActive()
	for ni, ns := range frontier {
		node := ns.node
		node.SetDist(dists[ni*nClasses : (ni+1)*nClasses])
		if splits[ni].IsLeaf() {
			node.Kind = tree.Leaf
			node.Children = nil
			continue
		}
		splits[ni].Apply(node, b.s, b.ids.Next)
		active = append(active, ni)
	}
	if sub {
		b.fams = nil // superseded by the families recorded below
	}
	if len(active) == 0 {
		return nil
	}

	// Route the winning attribute's local sections: rid → child. Record
	// ids are globally unique across nodes, so all nodes share one table.
	var pairs []ridChild
	var ops int64
	for _, ni := range active {
		ns := frontier[ni]
		node := ns.node
		for _, e := range ns.lists[node.Attr] {
			pairs = append(pairs, ridChild{rid: e.RID, child: int32(node.RouteValue(e.Value))})
		}
		ops += int64(len(ns.lists[node.Attr]))
	}
	b.c.Compute(float64(ops))

	// Build the lookup according to the mode.
	var lookup func(rids []int64) []int32
	switch b.o.Mode {
	case FullHash:
		lookup = b.fullHashLookup(pairs)
	case DistributedHash:
		lookup = b.distributedHashLookup(pairs)
	default:
		panic("scalparc: unknown mode")
	}

	// Partition every attribute list of every splitting node. All probes
	// of the level are batched into ONE lookup — for the distributed mode
	// this means a single update/query/answer exchange per level, which is
	// what makes ScalParC's communication O(N/P) messages-wise too (a
	// per-list exchange would pay the t_s startup once per node and
	// attribute).
	var allRids []int64
	type section struct {
		ni, a, off, n int
	}
	var sections []section
	for _, ni := range active {
		ns := frontier[ni]
		for a := range b.s.Attrs {
			sec := ns.lists[a]
			sections = append(sections, section{ni: ni, a: a, off: len(allRids), n: len(sec)})
			for _, e := range sec {
				allRids = append(allRids, e.RID)
			}
		}
	}
	// The lookup is collective in DistributedHash mode, so every rank
	// calls it exactly once per level, even with zero local probes.
	children := lookup(allRids)
	b.c.Compute(float64(len(allRids)))

	next := make([]nodeSlice, 0, len(active)*2)
	childSlices := make(map[int][]nodeSlice, len(active))
	for _, ni := range active {
		ns := frontier[ni]
		node := ns.node
		slices := make([]nodeSlice, len(node.Children))
		for ci := range slices {
			slices[ci] = nodeSlice{node: node.Children[ci], lists: make([][]sprint.Entry, b.s.NumAttrs())}
		}
		childSlices[ni] = slices
	}
	for _, sec := range sections {
		ns := frontier[sec.ni]
		slices := childSlices[sec.ni]
		for i, e := range ns.lists[sec.a] {
			ci := children[sec.off+i]
			slices[ci].lists[sec.a] = append(slices[ci].lists[sec.a], e)
		}
	}

	// Keep children that are globally non-empty (local emptiness is not
	// enough: another rank may hold the records).
	var childCounts []int64
	for _, ni := range active {
		for _, cs := range childSlices[ni] {
			childCounts = append(childCounts, int64(len(cs.lists[0])))
		}
	}
	if b.p > 1 {
		mp.AllreduceSum(b.c, childCounts, b.o.Tree.Reuse.SparseThreshold)
	}
	idx := 0
	for _, ni := range active {
		start := len(next)
		var counts []int64
		for _, cs := range childSlices[ni] {
			if childCounts[idx] > 0 {
				next = append(next, cs)
				counts = append(counts, childCounts[idx])
			}
			idx++
		}
		if !sub || len(counts) == 0 {
			continue
		}
		// Record the family for the next level's sibling subtraction: the
		// kept children occupy next[start:], and the member with the most
		// training cases (ties: first) will be derived — the reduced counts
		// are global, so every rank fixes the same plan here.
		members := make([]int, len(counts))
		der := 0
		for i := range counts {
			members[i] = start + i
			if counts[i] > counts[der] {
				der = i
			}
		}
		b.fams = append(b.fams, scalFam{parentNi: ni, parent: frontier[ni].node, members: members, der: der})
	}
	return next
}

// ridChild is one hash-table entry.
type ridChild struct {
	rid   int64
	child int32
}

// fullHashLookup is parallel SPRINT's approach: an all-to-all broadcast
// materializes every rank's pairs everywhere, and lookups are local map
// probes. Memory: the whole frontier's record count per rank.
func (b *builder) fullHashLookup(pairs []ridChild) func([]int64) []int32 {
	all := pairs
	if b.p > 1 {
		enc := encodePairs(pairs)
		gathered := mp.Allgatherv(b.c, 14, enc)
		b.hashBytes += int64(len(gathered)) // every rank receives the full table
		all = decodePairs(gathered)
	}
	table := make(map[int64]int32, len(all))
	for _, pc := range all {
		table[pc.rid] = pc.child
	}
	b.c.Compute(float64(len(all)))
	if len(table) > b.maxHash {
		b.maxHash = len(table)
	}
	return func(rids []int64) []int32 {
		out := make([]int32, len(rids))
		for i, r := range rids {
			out[i] = table[r]
		}
		return out
	}
}

// distributedHashLookup is ScalParC's approach: pairs go to their rid's
// owner shard (one personalized exchange); lookups batch their rids to
// the owners and get the children back (two more personalized exchanges).
// Memory: only the shard.
func (b *builder) distributedHashLookup(pairs []ridChild) func([]int64) []int32 {
	owner := func(rid int64) int { return int(rid % int64(b.p)) }

	shard := make(map[int64]int32)
	if b.p == 1 {
		for _, pc := range pairs {
			shard[pc.rid] = pc.child
		}
	} else {
		send := make([][]byte, b.p)
		for _, pc := range pairs {
			send[owner(pc.rid)] = appendPair(send[owner(pc.rid)], pc)
		}
		for _, blk := range send {
			b.hashBytes += int64(len(blk))
		}
		recv := mp.Alltoallv(b.c, 15, send)
		for _, blk := range recv {
			for _, pc := range decodePairs(blk) {
				shard[pc.rid] = pc.child
			}
		}
	}
	b.c.Compute(float64(len(shard)))
	if len(shard) > b.maxHash {
		b.maxHash = len(shard)
	}

	return func(rids []int64) []int32 {
		if b.p == 1 {
			out := make([]int32, len(rids))
			for i, r := range rids {
				out[i] = shard[r]
			}
			return out
		}
		// Batch queries per owner, preserving per-owner order so the
		// responses align.
		queries := make([][]byte, b.p)
		where := make([][]int32, b.p) // positions in the output per owner
		for i, r := range rids {
			o := owner(r)
			queries[o] = binary.LittleEndian.AppendUint64(queries[o], uint64(r))
			where[o] = append(where[o], int32(i))
		}
		for _, blk := range queries {
			b.hashBytes += int64(len(blk))
		}
		reqs := mp.Alltoallv(b.c, 16, queries)
		answers := make([][]byte, b.p)
		for src, blk := range reqs {
			resp := make([]byte, 0, len(blk)/2)
			for off := 0; off+8 <= len(blk); off += 8 {
				rid := int64(binary.LittleEndian.Uint64(blk[off:]))
				resp = binary.LittleEndian.AppendUint32(resp, uint32(shard[rid]))
			}
			answers[src] = resp
			b.c.Compute(float64(len(blk) / 8))
		}
		for _, blk := range answers {
			b.hashBytes += int64(len(blk))
		}
		got := mp.Alltoallv(b.c, 17, answers)
		out := make([]int32, len(rids))
		for o := 0; o < b.p; o++ {
			blk := got[o]
			for j, pos := range where[o] {
				out[pos] = int32(binary.LittleEndian.Uint32(blk[j*4:]))
			}
		}
		return out
	}
}

// Pair wire helpers: rid int64 + child int32.

func appendPair(buf []byte, pc ridChild) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(pc.rid))
	return binary.LittleEndian.AppendUint32(buf, uint32(pc.child))
}

func encodePairs(pairs []ridChild) []byte {
	buf := make([]byte, 0, len(pairs)*12)
	for _, pc := range pairs {
		buf = appendPair(buf, pc)
	}
	return buf
}

// decodePairs decodes an in-process pair message; a ragged tail is an
// encoder bug.
func decodePairs(buf []byte) []ridChild {
	if len(buf)%12 != 0 {
		panic(fmt.Sprintf("scalparc: decodePairs: %d-byte buffer has a %d-byte ragged tail", len(buf), len(buf)%12))
	}
	out := make([]ridChild, 0, len(buf)/12)
	for off := 0; off+12 <= len(buf); off += 12 {
		out = append(out, ridChild{
			rid:   int64(binary.LittleEndian.Uint64(buf[off:])),
			child: int32(binary.LittleEndian.Uint32(buf[off+8:])),
		})
	}
	return out
}

// Entry wire helpers for the sample sort: value float64 + rid int64 +
// class int32.

func appendEntry(buf []byte, e sprint.Entry) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Value))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(e.RID))
	return binary.LittleEndian.AppendUint32(buf, uint32(e.Class))
}

// decodeEntries decodes an in-process entry message; a ragged tail is
// an encoder bug.
func decodeEntries(buf []byte) []sprint.Entry {
	if len(buf)%20 != 0 {
		panic(fmt.Sprintf("scalparc: decodeEntries: %d-byte buffer has a %d-byte ragged tail", len(buf), len(buf)%20))
	}
	out := make([]sprint.Entry, 0, len(buf)/20)
	for off := 0; off+20 <= len(buf); off += 20 {
		out = append(out, sprint.Entry{
			Value: math.Float64frombits(binary.LittleEndian.Uint64(buf[off:])),
			RID:   int64(binary.LittleEndian.Uint64(buf[off+8:])),
			Class: int32(binary.LittleEndian.Uint32(buf[off+16:])),
		})
	}
	return out
}
