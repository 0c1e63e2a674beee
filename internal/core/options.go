// Package core implements the paper's contribution: the three parallel
// formulations of decision-tree construction over the mp message-passing
// substrate —
//
//   - BuildSync: the Synchronous Tree Construction Approach (§3.1) —
//     breadth-first, all processors cooperate on every frontier node,
//     class-distribution statistics are globally reduced per buffer flush,
//     no training data ever moves;
//   - BuildPartitioned: the Partitioned Tree Construction Approach (§3.2) —
//     processor groups split across children after every expansion
//     (Case 1/Case 2), training records are shuffled to their group, single
//     processors run the sequential algorithm;
//   - BuildHybrid: the hybrid (§3.3) — synchronous within a partition
//     until the accumulated communication cost reaches SplitRatio × (moving
//     cost + load-balancing cost), then the partition and its frontier are
//     split in two and the halves proceed asynchronously.
//
// All three produce a tree structurally identical to the serial
// breadth-first reference (tree.BuildBFS) — the central invariant of the
// test suite — because every split decision is a pure function of globally
// reduced integer statistics.
package core

import (
	"math"

	"partree/internal/dataset"
	"partree/internal/discretize"
	"partree/internal/fault"
	"partree/internal/mp"
	"partree/internal/tree"
)

// Phase labels the builders push onto the mp accounting stack
// (Comm.BeginPhase/EndPhase) so every modeled charge is attributed to the
// algorithmic phase it belongs to. The per-phase × per-collective
// breakdown is read back with World.Breakdown after a run.
const (
	// PhaseStatistics: local class-distribution tabulation and record
	// routing into successor nodes (the compute side of an expansion).
	PhaseStatistics = "statistics"
	// PhaseReduction: global reductions of statistics (including the
	// setup min/max reductions of the attribute ranges).
	PhaseReduction = "reduction"
	// PhaseMoving: the personalized all-to-all record exchange of the
	// partitioned/hybrid shuffles.
	PhaseMoving = "moving"
	// PhaseLoadBalance: shuffle planning (count allgather) and processor
	// regrouping (comm splits).
	PhaseLoadBalance = "load-balance"
	// PhaseAssembly: shipping and replicating completed subtrees.
	PhaseAssembly = "assembly"
	// PhaseSequential: the sequential tail a lone processor runs on its
	// subtrees.
	PhaseSequential = "sequential-tail"
	// PhaseRecovery: the survivor-group regrouping, checkpoint restore and
	// record re-adoption after a detected rank failure (ft.go). Absent from
	// fault-free runs, so the recovery overhead is directly readable in the
	// breakdown.
	PhaseRecovery = "recovery"
	// PhaseVoteBallot: round 1 of voted split selection — local nomination
	// scoring plus the fixed-size ballot exchange (the "vote" collective).
	PhaseVoteBallot = "vote-ballot"
	// PhaseVoteHist: round 2 of voted split selection — the packed
	// reduction of the elected candidates' histograms. Kept distinct from
	// PhaseReduction (and from PhaseVoteBallot) so -stats can never
	// conflate voted reduction traffic with the exact path's.
	PhaseVoteHist = "vote-hist"
)

// Options configures a parallel build.
type Options struct {
	// Tree holds the induction parameters shared with the serial builders.
	// Tree.Binner is set internally from the global attribute ranges; any
	// caller-provided binner is replaced.
	Tree tree.Options

	// SyncEveryNodes caps how many frontier nodes' statistics fit the
	// communication buffer; a reduction is flushed after each group of this
	// many nodes, reproducing the paper's "synchronization after every 100
	// nodes". Default 100.
	SyncEveryNodes int

	// MicroBins is the fixed histogram resolution used for per-node
	// discretization of continuous attributes (default 64).
	MicroBins int
	// NodeBins is the number of clusters (bins) the per-node discretizer
	// produces (default 8).
	NodeBins int
	// Binning selects the per-node discretization rule: KMeans (SPEC-style
	// clustering, the paper's Figure 8/9 setting, default) or Quantile
	// (per-node weighted quantiles, the §3.4 alternative).
	Binning discretize.Method

	// SplitRatio is the hybrid trigger threshold: a partition splits when
	// Σ(communication cost) ≥ SplitRatio × (moving + load-balancing cost).
	// The paper proposes 1.0 as optimal; Figure 7 sweeps this value.
	// Default 1.0. Ignored by the other formulations.
	SplitRatio float64

	// FT, when non-nil, makes the build fault tolerant: state is
	// checkpointed at recovery boundaries (level boundaries for the
	// synchronous formulation, partition/shuffle boundaries for the
	// partitioned and hybrid ones) and a detected rank failure triggers
	// recovery instead of propagating (ft.go). nil — the default — builds
	// exactly as before, with zero checkpointing.
	FT *FTOptions
}

// FTOptions configures fault-tolerant construction.
type FTOptions struct {
	// Store receives the boundary checkpoints and serves restores. One
	// store per build; required. fault.NewStore() survives rank crashes
	// within the process; fault.OpenDiskStore survives the process.
	Store fault.Store
	// CheckpointEvery saves a synchronous-formulation level checkpoint at
	// every k-th level boundary (default 1 = every level). Larger
	// intervals trade checkpoint volume against rollback distance:
	// recovery replays up to k-1 uncheckpointed levels. Ignored by the
	// restart-from-root builders, which have a single init cut per
	// attempt.
	CheckpointEvery int
	// Resume, with a durable store reopened from a previous process's
	// checkpoint directory, restores the last committed cut before
	// building: the synchronous formulation continues from its last level
	// boundary, the restart-from-root builders from their init cut. Ranks
	// of the dead process that are missing from the new world (an elastic
	// P′ < P resume) are re-sharded onto survivors by the heir rule
	// (lost rank i → survivor i mod P′). When the store holds no
	// committed cut the build silently starts fresh.
	Resume bool
}

// on reports whether a build on c checkpoints and recovers: FT is
// requested with a store, and there is a peer to lose.
func (ft *FTOptions) on(c *mp.Comm) bool {
	return ft != nil && ft.Store != nil && c.Size() > 1
}

func (ft *FTOptions) ckptEvery() int {
	if ft.CheckpointEvery > 0 {
		return ft.CheckpointEvery
	}
	return 1
}

// diskBacked reports whether the store is durable — in which case
// checkpoint traffic is charged to the modeled disk cost class.
func diskBacked(st fault.Store) bool {
	ds, ok := st.(interface{ Durable() bool })
	return ok && ds.Durable()
}

// WithDefaults fills unset fields.
func (o Options) WithDefaults() Options {
	o.Tree = o.Tree.WithDefaults()
	if o.SyncEveryNodes == 0 {
		o.SyncEveryNodes = 100
	}
	if o.MicroBins == 0 {
		o.MicroBins = 64
	}
	if o.NodeBins == 0 {
		o.NodeBins = 8
	}
	if o.SplitRatio == 0 {
		o.SplitRatio = 1.0
	}
	return o
}

// SerialOptions returns the tree.Options a serial reference build must use
// to match a parallel build of d under o: the same induction parameters
// and a per-node binner over the dataset's global attribute ranges.
func (o Options) SerialOptions(d *dataset.Dataset) tree.Options {
	o = o.WithDefaults()
	to := o.Tree
	if d.Schema.NumContinuous() > 0 {
		to.Binner = o.binner(rangesOf(d))
	}
	return to
}

// binner is the per-node binner over the global attribute ranges.
func (o Options) binner(ranges [][2]float64) *discretize.NodeBinner {
	return &discretize.NodeBinner{MicroBins: o.MicroBins, K: o.NodeBins, Ranges: ranges, Method: o.Binning}
}

// rangesOf computes per-attribute [min, max] over a dataset (continuous
// attributes only; others get sentinel values).
func rangesOf(d *dataset.Dataset) [][2]float64 {
	r := emptyRanges(d.Schema)
	widenRanges(r, d.Cont)
	return r
}

func emptyRanges(s *dataset.Schema) [][2]float64 {
	r := make([][2]float64, s.NumAttrs())
	for a := range r {
		r[a] = [2]float64{math.MaxFloat64, -math.MaxFloat64}
	}
	return r
}

// widenRanges widens r to cover every value of the continuous columns
// (nil for categorical attributes).
func widenRanges(r [][2]float64, cont [][]float64) {
	for a, col := range cont {
		for _, v := range col {
			if v < r[a][0] {
				r[a][0] = v
			}
			if v > r[a][1] {
				r[a][1] = v
			}
		}
	}
}

// setupBinner establishes the global attribute ranges with a pair of
// min/max allreduces and installs the per-node binner, so every processor
// derives identical per-node bin edges. No-op for all-categorical schemas.
func setupBinner(c *mp.Comm, d *dataset.Dataset, o *Options) {
	if d.Schema.NumContinuous() == 0 {
		return
	}
	c.BeginPhase(PhaseReduction)
	defer c.EndPhase()
	installBinner(c, rangesOf(d), o)
}

// installBinner reduces the rank-local ranges to global ones (a min and a
// max allreduce) and installs the per-node binner over them.
func installBinner(c *mp.Comm, local [][2]float64, o *Options) {
	mins := make([]float64, len(local))
	maxs := make([]float64, len(local))
	for a, r := range local {
		mins[a], maxs[a] = r[0], r[1]
	}
	mp.Allreduce(c, mins, mp.Min)
	mp.Allreduce(c, maxs, mp.Max)
	ranges := make([][2]float64, len(local))
	for a := range ranges {
		ranges[a] = [2]float64{mins[a], maxs[a]}
	}
	o.Tree.Binner = o.binner(ranges)
}
