// Package forest grows bagged / random-subspace ensembles of decision
// trees over the existing builders and compiles them into a fused
// flat-forest serving layout. Training schedules many member builds in
// parallel (tree-level parallelism) while each member build keeps its own
// intra-build parallelism — the parallel formulations run their modeled
// multi-rank worlds, and every builder's hot loops go through the shared
// statistics kernel, so the ensemble trainer composes tree-level ×
// node-level parallelism the way the parlaylib-style schedulers do.
//
// Determinism is a contract, not an accident: every member's bootstrap
// sample and feature subspace derive from (Config.Seed, member index)
// alone, so the same configuration grows a bit-identical forest
// regardless of how many trainer goroutines run or in which order members
// finish. The differential tests pin this, along with the serving-side
// invariant that the fused layout votes bit-identically to per-tree
// aggregation.
package forest

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"

	"partree/internal/build"
	"partree/internal/core"
	"partree/internal/dataset"
	"partree/internal/tree"
)

// VoteMode selects how member predictions combine into the forest's.
type VoteMode uint8

const (
	// Majority counts one vote per member; ties break to the smallest
	// class index, the deterministic tie-break used everywhere.
	Majority VoteMode = iota
	// Weighted accumulates each member's weight on its predicted class.
	// Accumulation order is ascending member index in every path, so the
	// float sums — and therefore the argmax — are bit-reproducible.
	Weighted
)

// String names the vote mode (the forest JSON format stores it).
func (v VoteMode) String() string {
	switch v {
	case Majority:
		return "majority"
	case Weighted:
		return "weighted"
	default:
		return fmt.Sprintf("VoteMode(%d)", uint8(v))
	}
}

// Config parameterizes ensemble training.
type Config struct {
	// Trees is the ensemble size (required, >= 1).
	Trees int
	// Builder names the member builder, any build.Names entry. Default
	// "hunt".
	Builder string
	// Procs is the modeled rank count of a multi-rank builder. Default 4.
	Procs int
	// Seed is the master seed every per-member bootstrap and subspace
	// seed derives from.
	Seed uint64
	// Bootstrap draws each member's training set as an N-of-N
	// with-replacement sample (bagging). False trains every member on the
	// full data (only useful together with FeatureFraction < 1).
	Bootstrap bool
	// FeatureFraction is the fraction of attributes each member may split
	// on (random subspace); members always keep at least one attribute.
	// 0 or 1 keeps the full schema.
	FeatureFraction float64
	// Vote is the aggregation mode the trained forest carries.
	Vote VoteMode
	// Tree holds the per-member induction parameters.
	Tree tree.Options
	// MicroBins and NodeBins set the multi-rank builders' per-node
	// discretization (core.Options); zero keeps their defaults.
	MicroBins, NodeBins int
	// Workers bounds concurrent member builds; <= 0 means GOMAXPROCS.
	// The forest is identical for every worker count.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Builder == "" {
		c.Builder = "hunt"
	}
	if c.Procs <= 0 {
		c.Procs = 4
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Trees < 1 {
		return fmt.Errorf("forest: Trees must be >= 1, got %d", c.Trees)
	}
	if c.FeatureFraction < 0 || c.FeatureFraction > 1 {
		return fmt.Errorf("forest: FeatureFraction %g out of [0, 1]", c.FeatureFraction)
	}
	c = c.withDefaults()
	if err := (build.Spec{Builder: c.Builder, Procs: c.Procs}).Validate(); err != nil {
		return fmt.Errorf("forest: %w", err)
	}
	return nil
}

// Forest is a trained ensemble: member trees sharing one schema, plus the
// vote semantics. Weights is nil under majority voting and per-member
// under weighted voting.
type Forest struct {
	Schema  *dataset.Schema
	Trees   []*tree.Tree
	Weights []float64
	Vote    VoteMode
}

// Len returns the member count.
func (f *Forest) Len() int { return len(f.Trees) }

// memberStream returns the deterministic random stream for one member and
// purpose. Streams are keyed (master seed, member, purpose) so bootstrap
// and subspace draws never interact, and adding members never shifts
// existing ones.
func memberStream(seed uint64, member int, purpose uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(member)<<2|purpose))
}

const (
	streamBootstrap = 1
	streamSubspace  = 2
)

// BootstrapIndices returns the n with-replacement row draws of member
// `member` under the master seed — the deterministic bagging sample.
// cmd/dtgen reuses it (member 0) so CLI-generated bagging inputs match
// in-process training exactly.
func BootstrapIndices(seed uint64, member, n int) []int32 {
	r := memberStream(seed, member, streamBootstrap)
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(r.IntN(n))
	}
	return idx
}

// subspace returns the sorted attribute subset of one member: k =
// max(1, round(frac·A)) attributes drawn without replacement. A nil
// return means the full schema (frac 0 or 1).
func subspace(seed uint64, member int, numAttrs int, frac float64) []int {
	if frac == 0 || frac == 1 {
		return nil
	}
	k := int(math.Round(frac * float64(numAttrs)))
	if k < 1 {
		k = 1
	}
	if k >= numAttrs {
		return nil
	}
	r := memberStream(seed, member, streamSubspace)
	perm := r.Perm(numAttrs)[:k]
	sort.Ints(perm)
	return perm
}

// Train grows the configured ensemble from d. Member builds are scheduled
// across Config.Workers goroutines; the result is bit-identical for every
// worker count because each member depends only on (d, Config, its
// index). Weighted forests start with uniform weights of 1; callers
// re-weight afterwards (cmd/dtree uses training accuracy).
func Train(d *dataset.Dataset, cfg Config) (*Forest, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if d.Len() == 0 {
		return nil, fmt.Errorf("forest: empty training set")
	}
	f := &Forest{Schema: d.Schema, Trees: make([]*tree.Tree, cfg.Trees), Vote: cfg.Vote}
	if cfg.Vote == Weighted {
		f.Weights = make([]float64, cfg.Trees)
		for i := range f.Weights {
			f.Weights[i] = 1
		}
	}

	workers := cfg.Workers
	if workers > cfg.Trees {
		workers = cfg.Trees
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for m := range next {
				t, err := trainMember(d, cfg, m)
				if err != nil {
					mu.Lock()
					if first == nil {
						first = fmt.Errorf("forest: member %d: %w", m, err)
					}
					mu.Unlock()
					continue
				}
				f.Trees[m] = t
			}
		}()
	}
	for m := 0; m < cfg.Trees; m++ {
		next <- m
	}
	close(next)
	wg.Wait()
	if first != nil {
		return nil, first
	}
	return f, nil
}

// trainMember grows member m: draw its bootstrap sample and feature
// subspace, build through the configured builder on the (possibly
// projected) view — a multi-rank builder on a fresh modeled world — and
// remap the finished tree back onto the full schema.
func trainMember(d *dataset.Dataset, cfg Config, m int) (*tree.Tree, error) {
	sample := d
	if cfg.Bootstrap {
		sample = d.Select(BootstrapIndices(cfg.Seed, m, d.Len()))
		// The bagged sample is a training set in its own right: fresh,
		// unique record ids keep the shuffle-conservation invariants of
		// the partitioned builders meaningful despite duplicated rows.
		sample.AssignRIDs(0)
	}
	attrs := subspace(cfg.Seed, m, d.Schema.NumAttrs(), cfg.FeatureFraction)
	view := sample
	if attrs != nil {
		view = sample.Project(attrs)
	}
	topts := cfg.Tree
	topts.Binner = nil // per-member data means per-member binners
	res, err := build.Run(build.Spec{Builder: cfg.Builder, Procs: cfg.Procs,
		Options: core.Options{Tree: topts, MicroBins: cfg.MicroBins, NodeBins: cfg.NodeBins}}, view)
	if err != nil {
		return nil, err
	}
	t := res.Tree
	if attrs != nil {
		if err := t.RemapAttrs(attrs, d.Schema); err != nil {
			return nil, err
		}
	}
	// Members trained on a shared (non-bootstrap) full-schema view keep
	// d's schema pointer; normalize so every member serves under the
	// forest schema.
	t.Schema = d.Schema
	return t, nil
}
