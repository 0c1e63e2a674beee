package mp

import (
	"fmt"
	"sort"
	"strings"

	"partree/internal/kernel"
)

// Adaptive sparse reduction encoding. Deep in a tree build the frontier's
// statistics blocks are mostly zeros — a node holding a handful of rows
// touches a handful of histogram cells — so shipping the dense int64
// vector wastes most of the reduction volume. AllreduceSum sends each
// reduction message in whichever encoding is smaller for that message's
// actual content: the dense vector (DenseElemBytes per element) or a list
// of (index, count) pairs (SparsePairBytes per nonzero). The choice is
// per message and self-describing on the wire, so ranks never need to
// agree on an encoding and the reduced totals are bit-identical to the
// dense collective regardless of what was chosen where.

// sparsePairs is the wire payload of a sparse-encoded reduction message:
// the nonzero elements of a length-n int64 vector as parallel index/count
// slices. Receivers type-switch on it, so a message is dense or sparse
// independently of what its peer expects to combine into.
type sparsePairs struct {
	n   int
	idx []int32
	cnt []int64
}

// EncodingStats counts one phase's adaptive reduction-encoding activity on
// the send side. Messages are attributed to the leg that produced them:
// reduce-leg messages carry a rank's own partial sums (their density is
// that rank's contribution), while broadcast/allgather-leg messages carry
// already-reduced totals (their density is a global property). Flushes —
// AllreduceSum calls that had a sparse alternative available — classify by
// the reduce leg only: a call counts sparse when at least one of the
// rank's reduce-leg sends went sparse, dense otherwise (including ranks
// that had no reduce-leg send at all, e.g. the reduction root). All
// counters sum cleanly across ranks and runs.
type EncodingStats struct {
	DenseFlushes    int64 // calls whose reduce-leg sends were all dense (or absent)
	SparseFlushes   int64 // calls with ≥1 sparse reduce-leg send
	DenseMsgs       int64 // reduce-leg messages sent dense
	SparseMsgs      int64 // reduce-leg messages sent sparse
	BcastDenseMsgs  int64 // broadcast/allgather-leg messages sent dense
	BcastSparseMsgs int64 // broadcast/allgather-leg messages sent sparse
	SentBytes       int64 // modeled bytes sent under the chosen encodings (both legs)
	DenseBytes      int64 // modeled bytes the same sends would have cost dense
}

// BytesSaved is the reduction-volume saving of the adaptive encoding.
func (e EncodingStats) BytesSaved() int64 { return e.DenseBytes - e.SentBytes }

func (e *EncodingStats) add(o EncodingStats) {
	e.DenseFlushes += o.DenseFlushes
	e.SparseFlushes += o.SparseFlushes
	e.DenseMsgs += o.DenseMsgs
	e.SparseMsgs += o.SparseMsgs
	e.BcastDenseMsgs += o.BcastDenseMsgs
	e.BcastSparseMsgs += o.BcastSparseMsgs
	e.SentBytes += o.SentBytes
	e.DenseBytes += o.DenseBytes
}

func (p *proc) encStats() *EncodingStats {
	if p.enc == nil {
		p.enc = make(map[string]*EncodingStats)
	}
	e := p.enc[p.curPhase()]
	if e == nil {
		e = &EncodingStats{}
		p.enc[p.curPhase()] = e
	}
	return e
}

func (p *proc) noteEncoding(sparse, reduceLeg bool, sent, dense int) {
	e := p.encStats()
	switch {
	case reduceLeg && sparse:
		e.SparseMsgs++
	case reduceLeg:
		e.DenseMsgs++
	case sparse:
		e.BcastSparseMsgs++
	default:
		e.BcastDenseMsgs++
	}
	e.SentBytes += int64(sent)
	e.DenseBytes += int64(dense)
}

func (p *proc) noteEncFlush(sparse bool) {
	e := p.encStats()
	if sparse {
		e.SparseFlushes++
	} else {
		e.DenseFlushes++
	}
}

// EncodingByPhase returns the adaptive-encoding counters per phase, summed
// over all ranks since the last Reset. Empty when no AllreduceSum with a
// positive threshold ran.
func (w *World) EncodingByPhase() map[string]EncodingStats {
	out := make(map[string]EncodingStats)
	for _, p := range w.procs {
		for phase, e := range p.enc {
			s := out[phase]
			s.add(*e)
			out[phase] = s
		}
	}
	return out
}

// EncodingTable renders per-phase adaptive-encoding counters as an aligned
// text table — the reduction-encoding row set the -stats outputs print
// below the cost breakdown, instead of folding the saving invisibly into
// the allreduce column.
func EncodingTable(enc map[string]EncodingStats) string {
	if len(enc) == 0 {
		return ""
	}
	phases := make([]string, 0, len(enc))
	for p := range enc {
		phases = append(phases, p)
	}
	sort.Strings(phases)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-16s %8s %8s %10s %10s %9s %9s %10s %10s %8s\n",
		"reduction enc", "dense", "sparse", "dense msg", "sparse msg", "bc dense", "bc sparse", "sent MB", "saved MB", "saved")
	var tot EncodingStats
	row := func(name string, e EncodingStats) {
		pct := 0.0
		if e.DenseBytes > 0 {
			pct = 100 * float64(e.BytesSaved()) / float64(e.DenseBytes)
		}
		fmt.Fprintf(&sb, "%-16s %8d %8d %10d %10d %9d %9d %10.3f %10.3f %7.1f%%\n",
			name, e.DenseFlushes, e.SparseFlushes, e.DenseMsgs, e.SparseMsgs,
			e.BcastDenseMsgs, e.BcastSparseMsgs,
			float64(e.SentBytes)/1e6, float64(e.BytesSaved())/1e6, pct)
	}
	for _, p := range phases {
		row(phaseLabel(p), enc[p])
		tot.add(enc[p])
	}
	row("total", tot)
	return sb.String()
}

// sendSumAdaptive sends x to dst under tag in whichever encoding is
// smaller given the density threshold, bills the modeled bytes of the
// encoding actually used, and reports whether it chose sparse. reduceLeg
// tells the accounting which leg of the collective the message belongs to.
// Both encodings are pooled payloads that the receiver releases.
func (c *Comm) sendSumAdaptive(dst, tag int, x []int64, threshold float64, reduceLeg bool) bool {
	nnz := kernel.CountNonzero(x)
	if kernel.SparseWorthwhile(nnz, len(x), threshold) {
		sp := getSparse(len(x), nnz)
		for i, v := range x {
			if v != 0 {
				sp.idx = append(sp.idx, int32(i))
				sp.cnt = append(sp.cnt, v)
			}
		}
		bytes := kernel.SparsePairBytes * nnz
		c.Send(dst, tag, sp, bytes)
		c.me.noteEncoding(true, reduceLeg, bytes, kernel.DenseElemBytes*len(x))
		return true
	}
	bytes := kernel.DenseElemBytes * len(x)
	c.Send(dst, tag, copyPayload(x), bytes)
	c.me.noteEncoding(false, reduceLeg, bytes, bytes)
	return false
}

// recvSumCombine receives an adaptively-encoded message and folds it into
// x element-wise, charging TOp per element actually combined (the dense
// path's combine charges per element; a sparse message only performs — and
// only bills — one add per pair, which is the compute side of the win).
func (c *Comm) recvSumCombine(src, tag int, x []int64) {
	msg := c.Recv(src, tag)
	switch v := msg.Payload.(type) {
	case *[]int64:
		combine(c, x, elems(v), Sum[int64])
		releasePayload(v)
	case *sparsePairs:
		if v.n != len(x) {
			panic(fmt.Sprintf("mp: sparse reduction length mismatch %d vs %d", v.n, len(x)))
		}
		for i, ix := range v.idx {
			x[ix] += v.cnt[i]
		}
		d := float64(len(v.idx)) * c.world.Machine.TOp
		c.me.clock += d
		c.me.chargeComp(d)
		sparsePool.Put(v)
	default:
		panic(fmt.Sprintf("mp: adaptive reduction got %T on comm %s tag %d", msg.Payload, c.ID(), tag))
	}
}

// recvSumReplace receives an adaptively-encoded message and replaces x
// with it (the broadcast/allgather leg). Like Bcast's replacement it
// charges no compute, and like Bcast it panics on a length mismatch
// rather than silently truncating.
func (c *Comm) recvSumReplace(src, tag int, x []int64) {
	msg := c.Recv(src, tag)
	switch v := msg.Payload.(type) {
	case *[]int64:
		if len(elems(v)) != len(x) {
			panic(fmt.Sprintf("mp: adaptive broadcast length mismatch %d vs %d", len(elems(v)), len(x)))
		}
		copy(x, elems(v))
		releasePayload(v)
	case *sparsePairs:
		if v.n != len(x) {
			panic(fmt.Sprintf("mp: sparse broadcast length mismatch %d vs %d", v.n, len(x)))
		}
		clear(x)
		for i, ix := range v.idx {
			x[ix] = v.cnt[i]
		}
		sparsePool.Put(v)
	default:
		panic(fmt.Sprintf("mp: adaptive broadcast got %T on comm %s tag %d", msg.Payload, c.ID(), tag))
	}
}

// adaptiveWire is the adaptive int64 wire over x: every message goes
// dense or sparse by its own density (sendSumAdaptive) and is folded in
// or received in place of its span accordingly. *sparse is set when a
// reduce-leg message went sparse — the flush classification.
func (c *Comm) adaptiveWire(x []int64, threshold float64, sparse *bool) wire {
	return wire{
		send: func(dst, tag, lo, hi int, reduce bool) {
			if c.sendSumAdaptive(dst, tag, x[lo:hi], threshold, reduce) && reduce {
				*sparse = true
			}
		},
		fold: func(src, tag, lo, hi int) { c.recvSumCombine(src, tag, x[lo:hi]) },
		recv: func(src, tag, lo, hi int) { c.recvSumReplace(src, tag, x[lo:hi]) },
	}
}

// AllreduceSum sums x element-wise across all ranks and leaves the
// identical total in x on every rank, like Allreduce(c, x, Sum), with the
// adaptive sparse wire encoding. threshold ≤ 0 delegates to the plain
// dense collective — payloads, modeled costs and accounting bit-identical
// to Allreduce — so a zero kernel.Options flows through unchanged.
//
// The algorithm is selected exactly like Allreduce's (the world's
// CollConfig resolved against the dense byte volume) and runs the same
// schedule as the dense collective: the same messages between the same
// ranks in the same order, so fault plans keyed to operation counts fire
// at the same boundaries. Only each message's encoding — and therefore
// its modeled byte bill — differs, chosen per message from its actual
// density. The adaptive encoding works under every algorithm: the ring
// and halving/doubling variants encode each vector chunk independently,
// which lets a mostly-zero chunk go sparse even when the whole vector
// would not.
//
// One exception: red+bcast always broadcasts the total down the binomial
// tree here, whereas the dense Allreduce broadcasts with the world's Bcast
// algorithm — binomial scatter + ring allgather under Bcast: scatter-ag
// (or auto resolving to it), a different message set.
func AllreduceSum(c *Comm, x []int64, threshold float64) {
	if threshold <= 0 {
		Allreduce(c, x, Sum[int64])
		return
	}
	p := c.Size()
	if p == 1 {
		return
	}
	algo := c.allreduceAlgo(len(x), kernel.DenseElemBytes)
	c.beginColl(CollAllreduce, 0, algo)
	defer c.endColl()
	sparse := false
	defer func() { c.me.noteEncFlush(sparse) }()
	allreduceSchedule(algo, p, len(x), false).run(c.rank, c.adaptiveWire(x, threshold, &sparse))
}
