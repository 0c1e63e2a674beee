package mp

import (
	"fmt"
	"testing"
)

// TestScheduleStepsMatch: at every step of every leg, each receive names a
// source whose move at that step sends to the receiver with the same span,
// tag and leg, and every send is received. ModelAllreduce prices a step as
// all its sends, then all its receives, and the live run blocks on each
// receive, so both rely on this pairing.
func TestScheduleStepsMatch(t *testing.T) {
	for p := 2; p <= 33; p++ {
		scheds := map[string]schedule{"allgather": allgatherSchedule(p, tagAllgather)}
		for _, algo := range []Algo{AlgoRecDoubling, AlgoRing, AlgoRecHalving, AlgoReduceBcast} {
			if !isPow2(p) && (algo == AlgoRecDoubling || algo == AlgoRecHalving) {
				continue
			}
			for _, n := range []int{3, 37} {
				for _, scatterAG := range []bool{false, true} {
					scheds[fmt.Sprintf("allreduce %s n=%d scatterAG=%v", algo, n, scatterAG)] = allreduceSchedule(algo, p, n, scatterAG)
				}
			}
		}
		for root := 0; root < p; root++ {
			for _, n := range []int{3, 37} {
				scheds[fmt.Sprintf("reduce root=%d n=%d", root, n)] = reduceSchedule(p, root, n)
				scheds[fmt.Sprintf("bcast root=%d n=%d", root, n)] = bcastSchedule(p, root, n, false)
				scheds[fmt.Sprintf("scatter-ag root=%d n=%d", root, n)] = bcastSchedule(p, root, n, true)
			}
		}
		moves := make([]move, p)
		for name, sc := range scheds {
			for i := 0; i < sc.nlegs; i++ {
				for s := 0; s < sc.steps(i); s++ {
					for r := range moves {
						moves[r] = sc.at(i, r, s)
					}
					for r, m := range moves {
						where := fmt.Sprintf("p=%d %s leg %d step %d rank %d", p, name, i, s, r)
						if m.dst >= 0 {
							if m.dst >= p || m.dst == r || m.sendLo < 0 || m.sendLo > m.sendHi || m.sendHi > sc.n {
								t.Fatalf("%s: bad send %+v", where, m)
							}
							if moves[m.dst].src != r {
								t.Fatalf("%s: send to %d is not received (its move %+v)", where, m.dst, moves[m.dst])
							}
						}
						if m.src >= 0 {
							if m.src >= p || m.src == r {
								t.Fatalf("%s: bad receive %+v", where, m)
							}
							from := moves[m.src]
							if from.dst != r || from.sendLo != m.recvLo || from.sendHi != m.recvHi || from.tag != m.tag || from.reduce != m.reduce {
								t.Fatalf("%s: receive %+v does not match the move of rank %d: %+v", where, m, m.src, from)
							}
						}
					}
				}
			}
		}
	}
}
