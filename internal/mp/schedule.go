package mp

import "math/bits"

// Collective schedules as step tables. Each algorithm of the package is
// written once, here, as a pure function of (rank, P, n, step): which rank
// talks to which, under which tag, at which step, about which element span
// [lo, hi) of the caller's n-element vector. Two programs read the tables:
// run walks one rank's row against a wire — the live collectives — and
// ModelAllreduce folds every rank's row into modeled clocks (model.go).
//
// What actually travels — and what the receiver does with it — is the
// wire's business. Four wires plug into the same schedules: the dense
// typed wire (collectives.go), the adaptive int64 wire of AllreduceSum
// (sparse.go), the zero-byte clock wire of AllreduceClock and the
// opaque-payload wire of BcastValue. A schedule therefore fixes every
// message's source, destination, tag and order for all encodings at once;
// only the byte bill and the reduction charge are the wire's.

// wire is one encoding of a schedule's messages. A wire may leave nil a
// move its schedules never make (a broadcast never folds).
type wire struct {
	// send ships span [lo, hi) to dst. reduce marks a reduce-leg message
	// (a rank's partial sums) as opposed to a broadcast/allgather-leg one
	// (already-reduced totals).
	send func(dst, tag, lo, hi int, reduce bool)
	// fold receives from src and combines the message into span [lo, hi).
	fold func(src, tag, lo, hi int)
	// recv receives from src in place of span [lo, hi).
	recv func(src, tag, lo, hi int)
}

// move is one rank's part in one step of a leg: at most one send, then at
// most one receive. Every receive matches a send of the same step, and
// every send is received at that step (TestScheduleStepsMatch), which is
// what lets ModelAllreduce price a step as all its sends, then all its
// receives.
type move struct {
	dst, sendLo, sendHi int // send [sendLo, sendHi) to dst; dst < 0: none
	src, recvLo, recvHi int // receive [recvLo, recvHi) from src; src < 0: none
	tag                 int
	// reduce marks a reduce-leg move: the send carries partial sums and
	// the receive folds into its span instead of replacing it.
	reduce bool
}

// legKind names one schedule.
type legKind uint8

const (
	// legRecDoubling: log₂P pairwise exchange-and-fold steps over the
	// whole vector — the paper's Equation 2 schedule. Power-of-two P only.
	legRecDoubling legKind = iota
	// legRing: P−1 nearest-neighbour steps; at step s rank r sends chunk
	// r+off−s to its right neighbour and receives chunk r+off−s−1 from its
	// left, chunk i spanning [i·n/P, (i+1)·n/P). Folding, it is the ring
	// reduce-scatter (rank r ends up owning the reduced chunk r+off+1);
	// replacing, the ring allgather of a rank that starts with chunk r+off.
	legRing
	// legHalve: Rabenseifner's reduce-scatter by recursive vector halving
	// (log₂P steps, message sizes n/2, n/4, …). Power-of-two P only.
	legHalve
	// legDouble: the allgather by recursive doubling that undoes legHalve,
	// step by step in reverse.
	legDouble
	// legReduce: the binomial-tree reduce onto root, in root-relative rank
	// space; the result is defined only at root.
	legReduce
	// legBcast: the binomial broadcast from root — each rank receives its
	// subtree's span from its parent, then forwards to its subtree roots
	// largest first. scatter cuts the vector into P chunks and sends each
	// subtree only its own (the first half of van de Geijn's broadcast).
	legBcast
)

// leg is one schedule with its parameters.
type leg struct {
	kind legKind
	tag  int
	// off is the ring's chunk offset, or the root of a reduce or bcast.
	off int
	// reduce marks a reduce leg: its receives fold instead of replacing.
	reduce  bool
	scatter bool // legBcast: send chunk spans instead of the whole vector
}

// schedule is one collective over p ranks and an n-element vector: one to
// three legs run back to back.
type schedule struct {
	p, n  int
	legs  [3]leg
	nlegs int
}

func newSchedule(p, n int, legs ...leg) schedule {
	sc := schedule{p: p, n: n, nlegs: len(legs)}
	copy(sc.legs[:], legs)
	return sc
}

// then is sc followed by o's legs.
func (sc schedule) then(o schedule) schedule {
	copy(sc.legs[sc.nlegs:], o.legs[:o.nlegs])
	sc.nlegs += o.nlegs
	return sc
}

// allreduceSchedule is one resolved allreduce algorithm. scatterAG selects
// the scatter + ring-allgather broadcast for the second half of red+bcast.
func allreduceSchedule(algo Algo, p, n int, scatterAG bool) schedule {
	switch algo {
	case AlgoRecDoubling:
		return newSchedule(p, n, leg{kind: legRecDoubling, tag: tagReduce, reduce: true})
	case AlgoRing:
		return newSchedule(p, n,
			leg{kind: legRing, tag: tagReduce, reduce: true},
			leg{kind: legRing, tag: tagBcast, off: 1})
	case AlgoRecHalving:
		return newSchedule(p, n,
			leg{kind: legHalve, tag: tagReduce, reduce: true},
			leg{kind: legDouble, tag: tagBcast})
	default: // AlgoReduceBcast
		return reduceSchedule(p, 0, n).then(bcastSchedule(p, 0, n, scatterAG))
	}
}

// reduceSchedule folds every rank's vector onto root.
func reduceSchedule(p, root, n int) schedule {
	return newSchedule(p, n, leg{kind: legReduce, tag: tagReduce, off: root, reduce: true})
}

// bcastSchedule distributes root's vector to every rank: down a binomial
// tree (⌈log₂P⌉ rounds of the whole vector), or — scatterAG, van de
// Geijn — as a binomial scatter of P chunks followed by a ring allgather,
// which moves ≈ 2·m·(P−1)/P per rank instead of m per round. The right
// neighbour in root-relative rank space is the right neighbour in rank
// space, so each allgather step stays nearest-neighbour.
func bcastSchedule(p, root, n int, scatterAG bool) schedule {
	if !scatterAG {
		return newSchedule(p, n, leg{kind: legBcast, tag: tagBcast, off: root})
	}
	return newSchedule(p, n,
		leg{kind: legBcast, tag: tagBcast, off: root, scatter: true},
		leg{kind: legRing, tag: tagBcast, off: p - root})
}

// allgatherSchedule is the ring allgather of P one-block "elements": span
// [i, i+1) is rank i's block.
func allgatherSchedule(p, tag int) schedule {
	return newSchedule(p, p, leg{kind: legRing, tag: tag})
}

// steps is the number of steps of leg i.
func (sc *schedule) steps(i int) int {
	if sc.legs[i].kind == legRing {
		return sc.p - 1
	}
	return ceilLog2(sc.p)
}

// chunk is the element span of chunk i when n elements are cut into p
// near-equal chunks.
func chunk(i, n, p int) (lo, hi int) { return i * n / p, (i + 1) * n / p }

// window is rank r's span of the n-element vector after k halving steps:
// at step b it keeps the lower half when bit b of r is clear.
func window(r, k, n int) (lo, hi int) {
	hi = n
	for b := 0; b < k; b++ {
		mid := lo + (hi-lo)/2
		if r&(1<<b) == 0 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo, hi
}

// at is rank r's move at step s of leg i.
func (sc *schedule) at(i, r, s int) move {
	l, p, n := &sc.legs[i], sc.p, sc.n
	m := move{dst: -1, src: -1, tag: l.tag, reduce: l.reduce}
	switch l.kind {
	case legRecDoubling:
		m.dst, m.sendHi = r^1<<s, n
		m.src, m.recvHi = m.dst, n
	case legRing:
		c := r + l.off - s + p
		m.dst, m.src = (r+1)%p, (r-1+p)%p
		m.sendLo, m.sendHi = chunk(c%p, n, p)
		m.recvLo, m.recvHi = chunk((c-1)%p, n, p)
	case legHalve:
		m.dst, m.src = r^1<<s, r^1<<s
		lo, hi := window(r, s, n)
		mid := lo + (hi-lo)/2
		if r&(1<<s) == 0 {
			m.sendLo, m.sendHi, m.recvLo, m.recvHi = mid, hi, lo, mid
		} else {
			m.sendLo, m.sendHi, m.recvLo, m.recvHi = lo, mid, mid, hi
		}
	case legDouble:
		b := ceilLog2(p) - 1 - s
		m.dst, m.src = r^1<<b, r^1<<b
		m.sendLo, m.sendHi = window(r, b+1, n)
		lo, hi := window(r, b, n)
		if r&(1<<b) == 0 {
			m.recvLo, m.recvHi = m.sendHi, hi
		} else {
			m.recvLo, m.recvHi = lo, m.sendLo
		}
	case legReduce:
		// The root's vrank 0 has UintSize trailing zeros: it only folds.
		v := (r - l.off + p) % p
		switch tz := bits.TrailingZeros(uint(v)); {
		case s == tz:
			m.dst, m.sendHi = (v-1<<s+l.off)%p, n
		case s < tz && v+1<<s < p:
			m.src, m.recvHi = (v+1<<s+l.off)%p, n
		}
	case legBcast:
		// Step s is tree level j, largest first; vrank v receives at level
		// tz(v) and forwards at every level below it (the root at all).
		j := ceilLog2(p) - 1 - s
		v := (r - l.off + p) % p
		// span is what the tree edge into the subtree of 2^j vranks rooted
		// at u carries: the whole vector, or the chunks [u, u+2^j).
		span := func(u int) (int, int) {
			if !l.scatter {
				return 0, n
			}
			return u * n / p, min(u+1<<j, p) * n / p
		}
		switch tz := bits.TrailingZeros(uint(v)); {
		case j == tz:
			m.src = (v - 1<<j + l.off) % p
			m.recvLo, m.recvHi = span(v)
		case j < tz && v+1<<j < p:
			m.dst = (v + 1<<j + l.off) % p
			m.sendLo, m.sendHi = span(v + 1<<j)
		}
	}
	return m
}

// run walks rank r's row of the schedule against w: per step, the send
// and then the receive, folding on a reduce leg.
func (sc schedule) run(r int, w wire) {
	for i := 0; i < sc.nlegs; i++ {
		for s := 0; s < sc.steps(i); s++ {
			m := sc.at(i, r, s)
			if m.dst >= 0 {
				w.send(m.dst, m.tag, m.sendLo, m.sendHi, m.reduce)
			}
			switch {
			case m.src < 0:
			case m.reduce:
				w.fold(m.src, m.tag, m.recvLo, m.recvHi)
			default:
				w.recv(m.src, m.tag, m.recvLo, m.recvHi)
			}
		}
	}
}
