package mp

import "math/bits"

// Collective schedules. Each algorithm of the package is written once,
// here, as a schedule: which rank talks to which, under which tag, in
// which order, about which element span [lo, hi) of the caller's n-element
// vector. What actually travels — and what the receiver does with it — is
// the wire's business. Four wires plug into the same schedules: the dense
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

// allreduce runs one resolved allreduce algorithm over an n-element
// vector. scatterAG selects the scatter + ring-allgather broadcast for
// the second half of red+bcast.
func allreduce(c *Comm, algo Algo, n int, scatterAG bool, w wire) {
	switch algo {
	case AlgoRecDoubling:
		recDoubling(c, n, w)
	case AlgoRing:
		ring(c, n, w)
	case AlgoRecHalving:
		recHalving(c, n, w)
	default: // AlgoReduceBcast
		binomialReduce(c, 0, n, w)
		bcast(c, 0, n, scatterAG, w)
	}
}

// recDoubling is recursive doubling: log₂P pairwise exchange-and-fold
// steps over the whole vector — the paper's Equation 2 schedule.
// Power-of-two sizes only.
func recDoubling(c *Comm, n int, w wire) {
	for mask := 1; mask < c.Size(); mask <<= 1 {
		partner := c.rank ^ mask
		w.send(partner, tagReduce, 0, n, true)
		w.fold(partner, tagReduce, 0, n)
	}
}

// chunk is the element span of chunk i when n elements are cut into p
// near-equal chunks.
func chunk(i, n, p int) (lo, hi int) { return i * n / p, (i + 1) * n / p }

// ring is the bandwidth-optimal ring allreduce: a reduce-scatter of P
// vector chunks around the ring (each rank ends up owning the fully
// reduced chunk (rank+1) mod P) followed by a ring allgather of the
// reduced chunks. 2(P−1) nearest-neighbour steps, each carrying ~1/P of
// the vector. Works for any P ≥ 2.
func ring(c *Comm, n int, w wire) {
	p, r := c.Size(), c.rank
	right, left := (r+1)%p, (r-1+p)%p
	for s := 0; s < p-1; s++ {
		lo, hi := chunk((r-s+p)%p, n, p)
		w.send(right, tagReduce, lo, hi, true)
		lo, hi = chunk((r-s-1+p)%p, n, p)
		w.fold(left, tagReduce, lo, hi)
	}
	ringAllgather(c, tagBcast, r+1, n, w)
}

// ringAllgather circulates P chunks of an n-element vector around the
// ring: at step s the rank sends chunk start−s to its right neighbour and
// receives chunk start−s−1 from its left, so a rank that starts out
// holding chunk start holds all of them after P−1 steps.
func ringAllgather(c *Comm, tag, start, n int, w wire) {
	p := c.Size()
	right, left := (c.rank+1)%p, (c.rank-1+p)%p
	for s := 0; s < p-1; s++ {
		lo, hi := chunk((start-s+p)%p, n, p)
		w.send(right, tag, lo, hi, false)
		lo, hi = chunk((start-s-1+p)%p, n, p)
		w.recv(left, tag, lo, hi)
	}
}

// recHalving is Rabenseifner's recursive halving/doubling: a
// reduce-scatter by recursive vector halving (log₂P steps, message sizes
// m/2, m/4, …) followed by an allgather by recursive doubling in reverse.
// Same bandwidth term as the ring with only 2·log₂P latencies.
// Power-of-two sizes only.
func recHalving(c *Comm, n int, w wire) {
	p, r := c.Size(), c.rank
	// gave[i] is the far bound of the half given away at halving step i:
	// the doubling step i adopts exactly that half back from the partner.
	var gave [bits.UintSize]int
	lo, hi := 0, n
	steps := 0
	for mask := 1; mask < p; mask <<= 1 {
		partner := r ^ mask
		mid := lo + (hi-lo)/2
		if r&mask == 0 {
			w.send(partner, tagReduce, mid, hi, true)
			w.fold(partner, tagReduce, lo, mid)
			gave[steps], hi = hi, mid
		} else {
			w.send(partner, tagReduce, lo, mid, true)
			w.fold(partner, tagReduce, mid, hi)
			gave[steps], lo = lo, mid
		}
		steps++
	}
	for i := steps - 1; i >= 0; i-- {
		partner := r ^ (1 << i)
		w.send(partner, tagBcast, lo, hi, false)
		if r&(1<<i) == 0 {
			w.recv(partner, tagBcast, hi, gave[i])
			hi = gave[i]
		} else {
			w.recv(partner, tagBcast, gave[i], lo)
			lo = gave[i]
		}
	}
}

// binomialReduce folds every rank's vector onto root along a binomial
// tree in root-relative rank space; the result is defined only at root.
func binomialReduce(c *Comm, root, n int, w wire) {
	p := c.Size()
	vrank := (c.rank - root + p) % p
	for mask := 1; mask < p; mask <<= 1 {
		if vrank&mask != 0 {
			w.send((vrank-mask+root)%p, tagReduce, 0, n, true)
			return
		}
		if vrank|mask < p {
			w.fold((vrank+mask+root)%p, tagReduce, 0, n)
		}
	}
}

// bcast distributes root's vector to every rank: down a binomial tree
// (⌈log₂P⌉ rounds of the whole vector), or — scatterAG, van de Geijn — as
// a binomial scatter of P chunks followed by a ring allgather, which
// moves ≈ 2·m·(P−1)/P per rank instead of m per round.
func bcast(c *Comm, root, n int, scatterAG bool, w wire) {
	p := c.Size()
	vrank := (c.rank - root + p) % p
	// span is what the tree edge into the subtree of 2^k vranks rooted at
	// v carries: the whole vector, or the chunks [v, v+2^k) of a scatter.
	span := func(v, k int) (int, int) {
		if !scatterAG {
			return 0, n
		}
		return v * n / p, min(v+1<<k, p) * n / p
	}
	var k int
	if vrank == 0 {
		k = ceilLog2(p)
	} else {
		k = bits.TrailingZeros(uint(vrank))
		lo, hi := span(vrank, k)
		w.recv((vrank-1<<k+root)%p, tagBcast, lo, hi)
	}
	for j := k - 1; j >= 0; j-- {
		if dst := vrank + 1<<j; dst < p {
			lo, hi := span(dst, j)
			w.send((dst+root)%p, tagBcast, lo, hi, false)
		}
	}
	if scatterAG {
		// The right neighbour in vrank space is the right neighbour in
		// rank space, so each allgather step stays nearest-neighbour.
		ringAllgather(c, tagBcast, vrank, n, w)
	}
}
