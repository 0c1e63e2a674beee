package mp

// Analytic collective model. schedule.cost folds the same step tables the
// live collectives run (schedule.go) into per-rank clocks, reproducing
// exactly the modeled completion time a World of p ranks would report
// after the collective — same sends in the same order, same per-hop
// pricing under the topology, same TOp combine charges — but in
// O(P·steps) arithmetic with no goroutines or payloads. It is the one
// collective cost model of the package: the auto selection rule, the
// split-trigger estimate under a configured algorithm and ModelAllreduce
// all fold it. That makes modeled sweeps into the thousands of ranks
// (cmd/experiments isocomm) affordable: the ring algorithm alone would
// move O(P²) real messages per allreduce. Consistency with the live
// substrate is pinned by TestModelAllreduceMatchesWorld at small P.

// ModelAllreduce returns the modeled wall-clock (max over ranks, all
// ranks entering at clock 0) of one dense allreduce of elems 8-byte
// elements on p ranks connected by topo, under the allreduce selection
// algo, resolved as ResolveAllreduceAlgo does (an algorithm infeasible
// for p falls back the way the live dispatch does). A nil topo models a
// hop-free fabric (equivalently Machine.TH = 0). red+bcast is modeled
// with the binomial broadcast, as AllreduceSum runs it.
func ModelAllreduce(algo Algo, topo Topology, p, elems int, m Machine) float64 {
	return modelAllreduce(algo, p, elems, topoHops(topo), m)
}

// modelAllreduce folds the schedule the allreduce selection cfg resolves
// to for p ranks and n 8-byte elements, with hops between schedule ranks.
func modelAllreduce(cfg Algo, p, n int, hops func(a, b int) int, m Machine) float64 {
	return allreduceSchedule(resolveAllreduce(cfg, p, n, 8, hops, m), p, n, false).cost(8, hops, m)
}

// topoHops is topo's hop distance, or nil for a nil topo.
func topoHops(topo Topology) func(a, b int) int {
	if topo == nil {
		return nil
	}
	return topo.Hops
}

// cost folds the schedule into the modeled wall-clock (max over ranks,
// all ranks entering at clock 0) of one run over elements of eb bytes;
// hops(a, b) is the hop distance between schedule ranks a and b (nil:
// hop-free).
func (sc schedule) cost(eb int, hops func(a, b int) int, m Machine) float64 {
	if sc.p <= 1 {
		return 0
	}
	clock := make([]float64, sc.p)
	// arrive[r] is the arrival stamp of the one message r receives at the
	// current step; each step's sends all come before its receives.
	arrive := make([]float64, sc.p)
	moves := make([]move, sc.p)
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
				cost := m.SendCost(eb * (mv.sendHi - mv.sendLo))
				if m.TH != 0 && hops != nil {
					cost += m.TH * float64(hops(r, mv.dst))
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
