package mp

// Analytic collective model. ModelAllreduce folds the same step tables the
// live collectives run (schedule.go) into per-rank clocks, reproducing
// exactly the modeled completion time a World of p ranks would report
// after one dense Allreduce — same sends in the same order, same per-hop
// pricing under the topology, same TOp combine charges — but in
// O(P·steps) arithmetic with no goroutines or payloads. That makes
// modeled sweeps into the thousands of ranks (cmd/experiments -mode
// isocomm) affordable: the ring algorithm alone would move O(P²) real
// messages per allreduce. Consistency with the live substrate is pinned
// by TestModelAllreduceMatchesWorld at small P.

// ModelAllreduce returns the modeled wall-clock (max over ranks, all
// ranks entering at clock 0) of one dense allreduce of elems 8-byte
// elements on p ranks connected by topo, under algorithm algo. algo must
// be concrete (not auto/default — resolve first with
// ResolveAllreduceAlgo); an algorithm infeasible for p falls back the
// same way the live dispatch does. A nil topo models a hop-free fabric
// (equivalently Machine.TH = 0). red+bcast is modeled with the binomial
// broadcast, as AllreduceSum runs it.
func ModelAllreduce(algo Algo, topo Topology, p, elems int, m Machine) float64 {
	if p <= 1 {
		return 0
	}
	if (algo == AlgoRecDoubling || algo == AlgoRecHalving) && !isPow2(p) {
		algo = AlgoReduceBcast
	}
	sc := allreduceSchedule(algo, p, elems, false)
	clock := make([]float64, p)
	// arrive[r] is the arrival stamp of the one message r receives at the
	// current step; each step's sends all come before its receives.
	arrive := make([]float64, p)
	moves := make([]move, p)
	for i := 0; i < sc.nlegs; i++ {
		for s := 0; s < sc.steps(i); s++ {
			for r := range moves {
				moves[r] = sc.at(i, r, s)
			}
			// The live substrate's additions, in its order: Send adds the
			// message cost, Recv takes the max with the arrival, a fold
			// adds TOp per element.
			for r := range moves {
				mv := &moves[r]
				if mv.dst < 0 {
					continue
				}
				cost := m.SendCost(8 * (mv.sendHi - mv.sendLo))
				if m.TH != 0 && topo != nil {
					cost += m.TH * float64(topo.Hops(r, mv.dst))
				}
				clock[r] += cost
				arrive[mv.dst] = clock[r]
			}
			for r := range moves {
				mv := &moves[r]
				if mv.src < 0 {
					continue
				}
				if arrive[r] > clock[r] {
					clock[r] = arrive[r]
				}
				if mv.reduce {
					clock[r] += float64(mv.recvHi-mv.recvLo) * m.TOp
				}
			}
		}
	}
	max := 0.0
	for _, c := range clock {
		if c > max {
			max = c
		}
	}
	return max
}
