package mp

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// Collective-algorithm selection. Each collective of the substrate has a
// default algorithm (the historic hypercube formulation — recursive
// doubling for power-of-two allreduce, binomial reduce+bcast otherwise,
// binomial broadcast, ring allgather) plus selectable alternatives, chosen
// per world through CollConfig: explicitly, or automatically as the
// cheapest fold of the candidates' step tables (schedule.cost) — the
// clock the live collective is billed on, with its reduction arithmetic
// and per-hop latency. The default configuration reproduces the historic
// behavior bit for bit — same messages, same order, same modeled clocks.

// Algo names one collective algorithm (or a selection policy).
type Algo string

const (
	// AlgoDefault keeps the historic algorithm of each collective.
	AlgoDefault Algo = "default"
	// AlgoAuto picks the cheapest algorithm per call under the fold of
	// its schedule (message size, P, machine, topology).
	AlgoAuto Algo = "auto"

	// Allreduce algorithms.
	AlgoRecDoubling Algo = "rdbl"      // recursive doubling (power-of-two only)
	AlgoRing        Algo = "ring"      // reduce-scatter + ring allgather
	AlgoRecHalving  Algo = "rhd"       // recursive halving + doubling (power-of-two only)
	AlgoReduceBcast Algo = "red+bcast" // binomial reduce onto 0 + broadcast

	// Bcast algorithms.
	AlgoBinomial         Algo = "binomial"
	AlgoScatterAllgather Algo = "scatter-ag" // binomial scatter + ring allgather (van de Geijn)

	// Allgatherv algorithms (ring is AlgoRing).
	AlgoGatherBcast Algo = "gather+bcast"

	// Labels of the fixed-algorithm collectives (breakdown "algo" column).
	AlgoLinear   Algo = "linear"   // Gatherv
	AlgoPairwise Algo = "pairwise" // Alltoallv
)

// CollConfig selects the algorithm of each configurable collective. The
// zero value (or AlgoDefault everywhere) is the historic behavior.
type CollConfig struct {
	// Allreduce: default | auto | rdbl | ring | rhd | red+bcast.
	// rdbl/rhd fall back to red+bcast on non-power-of-two worlds.
	// Also governs AllreduceSum (the adaptive sparse encoding works under
	// every algorithm) and the algo label of Barrier.
	Allreduce Algo
	// Bcast: default | auto | binomial | scatter-ag.
	Bcast Algo
	// Allgather: default | ring | gather+bcast. No auto rule — the
	// per-rank contribution sizes of Allgatherv are not known up front.
	Allgather Algo
}

func algoAllowed(a Algo, allowed ...Algo) bool {
	if a == "" || a == AlgoDefault {
		return true
	}
	for _, x := range allowed {
		if a == x {
			return true
		}
	}
	return false
}

// Validate rejects algorithm names that the respective collective does
// not implement.
func (cfg CollConfig) Validate() error {
	if !algoAllowed(cfg.Allreduce, AlgoAuto, AlgoRecDoubling, AlgoRing, AlgoRecHalving, AlgoReduceBcast) {
		return fmt.Errorf("allreduce algorithm %q (want default|auto|rdbl|ring|rhd|red+bcast)", cfg.Allreduce)
	}
	if !algoAllowed(cfg.Bcast, AlgoAuto, AlgoBinomial, AlgoScatterAllgather) {
		return fmt.Errorf("bcast algorithm %q (want default|auto|binomial|scatter-ag)", cfg.Bcast)
	}
	if !algoAllowed(cfg.Allgather, AlgoRing, AlgoGatherBcast) {
		return fmt.Errorf("allgather algorithm %q (want default|ring|gather+bcast)", cfg.Allgather)
	}
	return nil
}

// ParseCollSpec parses the -coll-algo flag syntax:
//
//	""                                  → all defaults
//	"auto"                              → allreduce and bcast auto
//	"ring"                              → allreduce algorithm (shorthand)
//	"allreduce=rhd,bcast=scatter-ag"    → per-collective assignments
func ParseCollSpec(spec string) (CollConfig, error) {
	var cfg CollConfig
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == string(AlgoDefault) {
		return cfg, nil
	}
	if !strings.Contains(spec, "=") {
		a := Algo(spec)
		if a == AlgoAuto {
			cfg.Allreduce, cfg.Bcast = AlgoAuto, AlgoAuto
		} else {
			cfg.Allreduce = a
		}
		if err := cfg.Validate(); err != nil {
			return CollConfig{}, err
		}
		return cfg, nil
	}
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return CollConfig{}, fmt.Errorf("mp: bad collective spec %q (want coll=algo)", part)
		}
		a := Algo(strings.TrimSpace(kv[1]))
		switch strings.TrimSpace(kv[0]) {
		case "allreduce":
			cfg.Allreduce = a
		case "bcast":
			cfg.Bcast = a
		case "allgather":
			cfg.Allgather = a
		default:
			return CollConfig{}, fmt.Errorf("mp: unknown collective %q in spec (want allreduce|bcast|allgather)", kv[0])
		}
	}
	if err := cfg.Validate(); err != nil {
		return CollConfig{}, err
	}
	return cfg, nil
}

func isPow2(p int) bool { return p&(p-1) == 0 }

// ceilLog2 returns ⌈log₂(p)⌉ (0 for p ≤ 1).
func ceilLog2(p int) int {
	if p <= 1 {
		return 0
	}
	return bits.Len(uint(p - 1))
}

// defaultAllreduceAlgo is the historic choice: recursive doubling on a
// power-of-two world, binomial reduce + broadcast otherwise.
func defaultAllreduceAlgo(p int) Algo {
	if isPow2(p) {
		return AlgoRecDoubling
	}
	return AlgoReduceBcast
}

// runnable is the algorithm a p-rank world runs when a is configured:
// rdbl and rhd need a power-of-two world and fall back to red+bcast.
func runnable(a Algo, p int) Algo {
	if (a == AlgoRecDoubling || a == AlgoRecHalving) && !isPow2(p) {
		return AlgoReduceBcast
	}
	return a
}

// resolveAllreduce turns a configured allreduce selection into the
// concrete algorithm p ranks run for an n-element vector of eb-byte
// elements. auto takes the cheapest feasible algorithm under the fold of
// its schedule (schedule.cost, with hops between the schedule's ranks),
// red+bcast priced with the binomial broadcast; ties break toward the
// earlier entry (latency-optimal first). Deterministic in its arguments,
// so every rank of a collective resolves the same algorithm.
func resolveAllreduce(cfg Algo, p, n, eb int, hops func(a, b int) int, m Machine) Algo {
	switch cfg {
	case "", AlgoDefault:
		return defaultAllreduceAlgo(p)
	case AlgoAuto:
		best, bestCost := AlgoReduceBcast, math.Inf(1)
		for _, a := range [...]Algo{AlgoRecDoubling, AlgoRecHalving, AlgoRing, AlgoReduceBcast} {
			if runnable(a, p) != a {
				continue
			}
			if c := allreduceSchedule(a, p, n, false).cost(eb, hops, m); c < bestCost {
				best, bestCost = a, c
			}
		}
		return best
	default:
		return runnable(cfg, p)
	}
}

// ResolveAllreduceAlgo turns a configured allreduce selection into the
// concrete algorithm a p-rank world wired by topo (nil: hop-free) runs
// for an allreduce of elems 8-byte elements.
func ResolveAllreduceAlgo(cfg Algo, topo Topology, p, elems int, m Machine) Algo {
	return resolveAllreduce(cfg, p, elems, 8, topoHops(topo), m)
}

// resolveBcastAlgo is resolveAllreduce's counterpart for a broadcast of
// an n-element vector from root: auto takes the cheaper fold of the
// binomial and the scatter-ag schedule.
func resolveBcastAlgo(cfg Algo, p, root, n, eb int, hops func(a, b int) int, m Machine) Algo {
	switch cfg {
	case "", AlgoDefault:
		return AlgoBinomial
	case AlgoAuto:
		if bcastSchedule(p, root, n, true).cost(eb, hops, m) < bcastSchedule(p, root, n, false).cost(eb, hops, m) {
			return AlgoScatterAllgather
		}
		return AlgoBinomial
	default:
		return cfg
	}
}

func resolveAllgatherAlgo(cfg Algo) Algo {
	switch cfg {
	case "", AlgoDefault:
		return AlgoRing
	default:
		return cfg
	}
}

// --- per-comm resolution (reads the world's CollConfig) ---

// hops is the hop distance between comm ranks a and b: the distance
// between their world ranks, which is what Send pays per message.
func (c *Comm) hops(a, b int) int { return c.world.topo.Hops(c.ranks[a], c.ranks[b]) }

func (c *Comm) allreduceAlgo(n, eb int) Algo {
	return resolveAllreduce(c.world.coll.Allreduce, c.Size(), n, eb, c.hops, c.world.Machine)
}

func (c *Comm) bcastAlgo(root, n, eb int) Algo {
	return resolveBcastAlgo(c.world.coll.Bcast, c.Size(), root, n, eb, c.hops, c.world.Machine)
}

func (c *Comm) allgatherAlgo() Algo {
	return resolveAllgatherAlgo(c.world.coll.Allgather)
}

// AllreduceCostEstimate returns the modeled cost of one dense allreduce of
// the given byte volume on this communicator — the estimate the hybrid
// formulation's split trigger accumulates without running a collective.
// Under the default configuration it is SendCost(bytes)·⌈log₂P⌉, the
// paper's Equation 2 (also for non-power-of-two worlds, where the
// fallback algorithm pays more). Under a configured algorithm it is the
// fold of the resolved schedule over ⌈bytes/8⌉ words, priced on this
// communicator's world ranks.
func (c *Comm) AllreduceCostEstimate(bytes int) float64 {
	if cfg := c.world.coll.Allreduce; cfg == "" || cfg == AlgoDefault {
		return c.world.Machine.SendCost(bytes) * float64(ceilLog2(c.Size()))
	}
	return modelAllreduce(c.world.coll.Allreduce, c.Size(), (bytes+7)/8, c.hops, c.world.Machine)
}
