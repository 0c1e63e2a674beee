package kernel

// VoteOptions gates voting-based (two-round, PV-Tree style) split
// selection in the parallel builders. Round 1 nominates each rank's
// top-K attributes per election group from purely local statistics;
// round 2 reduces full histograms only for the ≤2K globally elected
// candidates, making deep-level reduction volume independent of the
// attribute count.
type VoteOptions struct {
	// K is the number of attributes each rank nominates per election
	// group. 0 disables voting. When K >= the schema's attribute count
	// the voted path short-circuits to the exact one, so trees and
	// modeled breakdowns are bit-identical by construction.
	K int
}

// Active reports whether voting changes anything for a schema with
// numAttrs attributes.
func (v VoteOptions) Active(numAttrs int) bool {
	return v.K > 0 && v.K < numAttrs
}

// Candidates is the global candidate budget of one election: at most
// 2K attributes survive the ballot round.
func (v VoteOptions) Candidates() int { return 2 * v.K }

// VoteTopK writes the indices of the (at most) k largest gains into
// out[:m] and returns m. Deterministic: attributes are visited in
// ascending index order and an incumbent is evicted only by a strictly
// greater gain, so on gain ties the lower attribute index is retained;
// among tied incumbents the highest index is evicted first. Gains not
// strictly above minGain (including NaN and -Inf sentinels) are never
// nominated. The result is sorted by ascending attribute index and the
// remainder of out[:k] is filled with -1 so ballots are fixed-size.
// out must have room for k entries; the call performs no allocation.
func VoteTopK(gains []float64, k int, minGain float64, out []int32) int {
	if k <= 0 {
		return 0
	}
	m := 0
	for a, g := range gains {
		if !(g > minGain) {
			continue
		}
		if m < k {
			out[m] = int32(a)
			m++
			continue
		}
		w := 0
		for i := 1; i < m; i++ {
			gi, gw := gains[out[i]], gains[out[w]]
			if gi < gw || (gi == gw && out[i] > out[w]) {
				w = i
			}
		}
		if g > gains[out[w]] {
			out[w] = int32(a)
		}
	}
	for i := 1; i < m; i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	for i := m; i < k; i++ {
		out[i] = -1
	}
	return m
}

// ElectCandidates tallies the nominations in ballots (attribute ids;
// -1 marks an empty fixed-size slot) and writes the winners into
// out[:m]: the at most elect attributes with the highest vote counts,
// ties broken by ascending attribute index. Attributes with zero votes
// are never elected. The winners are emitted in ascending attribute
// order so every caller sees the same canonical candidate set; the
// tally is a pure function of the multiset of ballots, so the result
// is invariant to rank arrival order. The tally lives on the stack up
// to 4096 attributes (pooled beyond), so the call performs no
// steady-state allocation.
func ElectCandidates(ballots []int32, numAttrs, elect int, out []int32) int {
	if elect <= 0 || numAttrs <= 0 {
		return 0
	}
	if numAttrs <= 4096 {
		var tally [4096]int32
		return electTally(tally[:numAttrs], ballots, elect, out)
	}
	votes := GetInt32(numAttrs)
	m := electTally(votes, ballots, elect, out)
	PutInt32(votes)
	return m
}

// electTally is the allocation-free core of ElectCandidates over a
// caller-provided zeroed tally of numAttrs slots.
func electTally(votes, ballots []int32, elect int, out []int32) int {
	for _, a := range ballots {
		if a >= 0 && int(a) < len(votes) {
			votes[a]++
		}
	}
	m := 0
	for m < elect {
		best := -1
		bv := int32(0)
		for a, v := range votes {
			if v > bv {
				best, bv = a, v
			}
		}
		if best < 0 {
			break
		}
		out[m] = int32(best)
		m++
		votes[best] = 0
	}
	for i := 1; i < m; i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return m
}
