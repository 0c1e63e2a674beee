package mp

import (
	"fmt"
	"math/bits"
	"strings"
)

// Collective-algorithm selection. Each collective of the substrate has a
// default algorithm (the historic hypercube formulation — recursive
// doubling for power-of-two allreduce, binomial reduce+bcast otherwise,
// binomial broadcast, ring allgather) plus selectable alternatives, chosen
// per world through CollConfig: explicitly, or automatically from the
// message size and the machine's t_s/t_w via the closed-form cost models
// below. The default configuration reproduces the historic behavior
// bit for bit — same messages, same order, same modeled clocks.

// Algo names one collective algorithm (or a selection policy).
type Algo string

const (
	// AlgoDefault keeps the historic algorithm of each collective.
	AlgoDefault Algo = "default"
	// AlgoAuto picks the cheapest algorithm per call from the closed-form
	// cost model (message size, P, t_s/t_w).
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

// AllreduceAlgoCost is the closed-form per-rank wall-clock model of one
// dense allreduce of the given byte volume, assuming simultaneous entry
// and ignoring per-hop latency and reduction arithmetic (the estimate the
// auto selection rule and the hybrid's split trigger use; the exact clock
// is ModelAllreduce's fold over the live step tables):
//
//	rdbl       log₂P·(t_s + t_w·B)               (power-of-two only)
//	red+bcast  2·⌈log₂P⌉·(t_s + t_w·B)
//	ring       2(P−1)·t_s + 2·t_w·B·(P−1)/P
//	rhd        2·log₂P·t_s + 2·t_w·B·(P−1)/P     (power-of-two only)
//
// Infinite for an algorithm the world size cannot run.
func AllreduceAlgoCost(algo Algo, p, bytes int, m Machine) float64 {
	if p <= 1 {
		return 0
	}
	l := float64(ceilLog2(p))
	b := float64(bytes)
	frac := float64(p-1) / float64(p)
	switch algo {
	case AlgoRecDoubling:
		if !isPow2(p) {
			return inf
		}
		return l * (m.TS + m.TW*b)
	case AlgoReduceBcast:
		return 2 * l * (m.TS + m.TW*b)
	case AlgoRing:
		return 2*float64(p-1)*m.TS + 2*m.TW*b*frac
	case AlgoRecHalving:
		if !isPow2(p) {
			return inf
		}
		return 2*l*m.TS + 2*m.TW*b*frac
	default:
		return inf
	}
}

const inf = 1e300

// autoAllreduceAlgo picks the cheapest allreduce algorithm under the
// closed-form model. Deterministic in (p, bytes, machine), so every rank
// of a collective resolves the same algorithm. Ties break toward the
// earlier entry (latency-optimal first).
func autoAllreduceAlgo(p, bytes int, m Machine) Algo {
	best, bestCost := AlgoReduceBcast, inf
	for _, a := range []Algo{AlgoRecDoubling, AlgoRecHalving, AlgoRing, AlgoReduceBcast} {
		if c := AllreduceAlgoCost(a, p, bytes, m); c < bestCost {
			best, bestCost = a, c
		}
	}
	return best
}

// ResolveAllreduceAlgo turns a configured allreduce selection into the
// concrete algorithm a p-rank world runs for a message of the given dense
// byte volume.
func ResolveAllreduceAlgo(cfg Algo, p, bytes int, m Machine) Algo {
	switch cfg {
	case "", AlgoDefault:
		return defaultAllreduceAlgo(p)
	case AlgoAuto:
		return autoAllreduceAlgo(p, bytes, m)
	case AlgoRecDoubling, AlgoRecHalving:
		if !isPow2(p) {
			return AlgoReduceBcast
		}
		return cfg
	default:
		return cfg
	}
}

// BcastAlgoCost is the closed-form model of one broadcast of B bytes:
// binomial ⌈log₂P⌉·(t_s+t_w·B); scatter-ag (⌈log₂P⌉+P−1)·t_s +
// 2·t_w·B·(P−1)/P.
func BcastAlgoCost(algo Algo, p, bytes int, m Machine) float64 {
	if p <= 1 {
		return 0
	}
	l := float64(ceilLog2(p))
	b := float64(bytes)
	frac := float64(p-1) / float64(p)
	switch algo {
	case AlgoBinomial:
		return l * (m.TS + m.TW*b)
	case AlgoScatterAllgather:
		return (l+float64(p-1))*m.TS + 2*m.TW*b*frac
	default:
		return inf
	}
}

func resolveBcastAlgo(cfg Algo, p, bytes int, m Machine) Algo {
	switch cfg {
	case "", AlgoDefault:
		return AlgoBinomial
	case AlgoAuto:
		if BcastAlgoCost(AlgoScatterAllgather, p, bytes, m) < BcastAlgoCost(AlgoBinomial, p, bytes, m) {
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

func (c *Comm) allreduceAlgo(bytes int) Algo {
	return ResolveAllreduceAlgo(c.world.coll.Allreduce, c.Size(), bytes, c.world.Machine)
}

func (c *Comm) bcastAlgo(bytes int) Algo {
	return resolveBcastAlgo(c.world.coll.Bcast, c.Size(), bytes, c.world.Machine)
}

func (c *Comm) allgatherAlgo() Algo {
	return resolveAllgatherAlgo(c.world.coll.Allgather)
}

// AllreduceCostEstimate returns the closed-form modeled cost of one dense
// allreduce of the given byte volume on this communicator under the
// world's configured algorithm selection — the estimate the hybrid
// formulation's split trigger accumulates without running a collective.
// Under the default configuration it is exactly
// SendCost(bytes)·⌈log₂P⌉, the paper's Equation 2 estimate (also for
// non-power-of-two worlds, where the historic trigger used the same
// formula even though the fallback algorithm pays more).
func (c *Comm) AllreduceCostEstimate(bytes int) float64 {
	cfg := c.world.coll.Allreduce
	if cfg == "" || cfg == AlgoDefault {
		return c.world.Machine.SendCost(bytes) * float64(ceilLog2(c.Size()))
	}
	algo := c.allreduceAlgo(bytes)
	return AllreduceAlgoCost(algo, c.Size(), bytes, c.world.Machine)
}
