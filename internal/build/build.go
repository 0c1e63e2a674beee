// Package build is the one entry point for growing a tree: a Spec names a
// registered builder and the modeled machine it runs on, Validate rejects
// what the builder cannot do, and Run or RunTable sets up the world, hands
// every rank its rows and collects the tree.
package build

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"partree/internal/core"
	"partree/internal/dataset"
	"partree/internal/fault"
	"partree/internal/mp"
	"partree/internal/scalparc"
	"partree/internal/sliq"
	"partree/internal/sprint"
	"partree/internal/tree"
	"partree/internal/vertical"
)

// Spec describes one build. The serial builders ignore every world
// field.
type Spec struct {
	Builder string // a registry name (Names)
	Procs   int    // ranks of a multi-rank builder's world
	// Machine prices the world; the zero value means mp.SP2().
	Machine mp.Machine
	// Topology names the interconnect (mp.NewTopology); "" leaves the
	// hypercube.
	Topology string
	// Coll selects the collective algorithms (mp.ParseCollSpec); "" leaves
	// the defaults.
	Coll string
	// Options holds the induction and formulation parameters; hunt, sliq,
	// sprint, scalparc and vertical read only Options.Tree.
	Options core.Options
	Fault   *fault.Plan // armed on the world; nil injects nothing
	Trace   bool        // record the per-rank event timeline (World.Events)
}

// UnsupportedError reports a Spec its builder cannot run.
type UnsupportedError struct {
	Builder string
	Feature string // "" when the builder itself is unknown
}

func (e *UnsupportedError) Error() string {
	if e.Feature == "" {
		return fmt.Sprintf("build: unknown builder %q (want one of %s)", e.Builder, strings.Join(Names(), "|"))
	}
	return fmt.Sprintf("build: %s does not support %s", e.Builder, e.Feature)
}

// Result is the outcome of a build.
type Result struct {
	// Tree is the serial builder's tree or the first surviving rank's;
	// nil when every rank died.
	Tree *tree.Tree
	// World is a multi-rank builder's world, set even when no rank
	// produced a tree.
	World *mp.World
	Trees []*tree.Tree // per rank; nil for a rank that died
	// HashPeak is the largest rid → child hash table any rank of an
	// attribute-list builder (scalparc, parallel-sprint) held.
	HashPeak int
}

// Builder is one registry entry.
type Builder struct {
	Name string
	// MultiRank builders run on a world of Spec.Procs ranks, the others
	// serially without one.
	MultiRank bool
	// AllRows builders give every rank the whole training set (vertical
	// partitioning divides columns); the others give rank r its
	// dataset.BlockBounds block.
	AllRows bool
	FT      bool // honours core.Options.FT

	ram   rankFunc  // c is nil for a serial builder
	table tableFunc // nil: materialize the rows, then ram
}

// A rankFunc or tableFunc grows one rank's tree; the int is the rank's
// peak rid → child hash entries.
type (
	rankFunc  func(c *mp.Comm, d *dataset.Dataset, o core.Options) (*tree.Tree, int)
	tableFunc func(c *mp.Comm, t dataset.Table, o core.Options) (*tree.Tree, int, error)
)

var registry = []Builder{
	{Name: "hunt", ram: serial(tree.BuildHunt)},
	{Name: "bfs",
		ram: func(_ *mp.Comm, d *dataset.Dataset, o core.Options) (*tree.Tree, int) {
			return tree.BuildBFS(d, o.SerialOptions(d)), 0
		},
		table: func(_ *mp.Comm, t dataset.Table, o core.Options) (*tree.Tree, int, error) {
			to, err := o.SerialOptionsTable(t)
			if err != nil {
				return nil, 0, err
			}
			tr, err := tree.BuildBFSOOC(t, to)
			return tr, 0, err
		}},
	{Name: "sliq", ram: serial(sliq.Build), table: serialTable(sliq.BuildTable)},
	{Name: "sprint", ram: serial(sprint.Build), table: serialTable(sprint.BuildTable)},
	{Name: "sync", MultiRank: true, FT: true, ram: ranked(core.BuildSync),
		table: func(c *mp.Comm, t dataset.Table, o core.Options) (*tree.Tree, int, error) {
			tr, err := core.BuildSyncOOC(c, t, o)
			return tr, 0, err
		}},
	{Name: "partitioned", MultiRank: true, FT: true, ram: ranked(core.BuildPartitioned)},
	{Name: "hybrid", MultiRank: true, FT: true, ram: ranked(core.BuildHybrid)},
	attributeLists("scalparc", scalparc.DistributedHash),
	attributeLists("parallel-sprint", scalparc.FullHash),
	{Name: "vertical", MultiRank: true, AllRows: true,
		ram: func(c *mp.Comm, d *dataset.Dataset, o core.Options) (*tree.Tree, int) {
			return vertical.Build(c, d, o.Tree), 0
		}},
}

func serial(f func(*dataset.Dataset, tree.Options) *tree.Tree) rankFunc {
	return func(_ *mp.Comm, d *dataset.Dataset, o core.Options) (*tree.Tree, int) { return f(d, o.Tree), 0 }
}

func serialTable(f func(dataset.Table, tree.Options) (*tree.Tree, error)) tableFunc {
	return func(_ *mp.Comm, t dataset.Table, o core.Options) (*tree.Tree, int, error) {
		tr, err := f(t, o.Tree)
		return tr, 0, err
	}
}

func ranked(f func(*mp.Comm, *dataset.Dataset, core.Options) *tree.Tree) rankFunc {
	return func(c *mp.Comm, d *dataset.Dataset, o core.Options) (*tree.Tree, int) { return f(c, d, o), 0 }
}

// attributeLists registers one splitting-phase mode of scalparc.Build.
func attributeLists(name string, mode scalparc.Mode) Builder {
	return Builder{Name: name, MultiRank: true, FT: true,
		ram: func(c *mp.Comm, d *dataset.Dataset, o core.Options) (*tree.Tree, int) {
			r := scalparc.BuildFT(c, d, scalparc.Options{Tree: o.Tree, Mode: mode}, o.FT)
			return r.Tree, r.MaxHashEntries
		},
		table: func(c *mp.Comm, t dataset.Table, o core.Options) (*tree.Tree, int, error) {
			r, err := scalparc.BuildTable(c, t, scalparc.Options{Tree: o.Tree, Mode: mode})
			return r.Tree, r.MaxHashEntries, err
		}}
}

// Names lists the registered builders in registry order.
func Names() []string {
	out := make([]string, len(registry))
	for i, b := range registry {
		out[i] = b.Name
	}
	return out
}

// Lookup returns the registry entry of a builder.
func Lookup(name string) (Builder, bool) {
	for _, b := range registry {
		if b.Name == name {
			return b, true
		}
	}
	return Builder{}, false
}

// Validate reports an unknown builder, or fault tolerance on a builder
// without a fault-tolerant path, as an *UnsupportedError, and a bad rank
// count, topology or collective selection as a plain error.
func (s Spec) Validate() error {
	_, err := s.check()
	return err
}

func (s Spec) check() (Builder, error) {
	b, ok := Lookup(s.Builder)
	if !ok {
		return b, &UnsupportedError{Builder: s.Builder}
	}
	if s.Options.FT != nil && !b.FT {
		return b, &UnsupportedError{Builder: s.Builder, Feature: "fault tolerance"}
	}
	if !b.MultiRank {
		return b, nil
	}
	if s.Procs < 1 {
		return b, fmt.Errorf("build: %s needs at least one rank, got %d", s.Builder, s.Procs)
	}
	if _, err := mp.NewTopology(s.Topology, s.Procs); err != nil {
		return b, err
	}
	_, err := mp.ParseCollSpec(s.Coll)
	return b, err
}

// Run grows the tree from resident rows. A fault a rank detected and the
// build did not recover from comes back as a *fault.Error, with the world.
func Run(s Spec, d *dataset.Dataset) (Result, error) {
	b, err := s.check()
	if err != nil {
		return Result{}, err
	}
	if !b.MultiRank {
		t, _ := b.ram(nil, d, s.Options)
		return Result{Tree: t}, nil
	}
	return s.run(func(c *mp.Comm) (*tree.Tree, int, error) {
		local := d
		if !b.AllRows {
			local = d.Slice(dataset.BlockBounds(d.Len(), c.Size(), c.Rank()))
		}
		t, hash := b.ram(c, local, s.Options)
		return t, hash, nil
	})
}

// RunTable is Run over chunked rows. Builders without a streaming path
// materialize their rows, the reads charged to the world's disk class.
// Fault tolerance is unsupported: checkpoint cuts serialize resident row
// indices.
func RunTable(s Spec, t dataset.Table) (Result, error) {
	b, err := s.check()
	if err != nil {
		return Result{}, err
	}
	if s.Options.FT != nil {
		return Result{}, &UnsupportedError{Builder: s.Builder, Feature: "fault tolerance out-of-core"}
	}
	if !b.MultiRank {
		tr, _, err := b.fromTable(nil, t, s.Options)
		return Result{Tree: tr}, err
	}
	return s.run(func(c *mp.Comm) (*tree.Tree, int, error) {
		local := t
		if !b.AllRows {
			lo, hi := dataset.BlockBounds(t.Len(), c.Size(), c.Rank())
			local = dataset.SectionOf(t, lo, hi)
		}
		return b.fromTable(c, local, s.Options)
	})
}

func (b Builder) fromTable(c *mp.Comm, t dataset.Table, o core.Options) (*tree.Tree, int, error) {
	if b.table != nil {
		return b.table(c, t, o)
	}
	var d *dataset.Dataset
	var err error
	if c == nil {
		d, _, err = dataset.Materialize(t)
	} else {
		d, err = core.MaterializeCharged(c, t)
	}
	if err != nil {
		return nil, 0, err
	}
	tr, hash := b.ram(c, d, o)
	return tr, hash, nil
}

// run builds the checked spec's world and runs rank on each of its ranks.
func (s Spec) run(rank func(c *mp.Comm) (*tree.Tree, int, error)) (res Result, err error) {
	m := s.Machine
	if m == (mp.Machine{}) {
		m = mp.SP2()
	}
	w := mp.NewWorld(s.Procs, m)
	if s.Topology != "" {
		topo, _ := mp.NewTopology(s.Topology, s.Procs) // checked
		w.SetTopology(topo)
	}
	if s.Coll != "" {
		coll, _ := mp.ParseCollSpec(s.Coll) // checked
		w.SetCollConfig(coll)
	}
	if s.Trace {
		w.EnableTrace()
	}
	if s.Fault != nil {
		w.SetFaultPlan(s.Fault)
		for _, f := range s.Fault.Faults {
			if f.Kind == fault.Drop {
				// A dropped message never arrives; only a timeout surfaces it.
				w.SetRecvTimeout(2 * time.Second)
			}
		}
	}
	res = Result{World: w, Trees: make([]*tree.Tree, s.Procs)}
	hashes := make([]int, s.Procs)
	errs := make([]error, s.Procs)
	defer func() {
		if r := recover(); r != nil {
			fe, ok := fault.AsError(r)
			if !ok {
				panic(r)
			}
			// A rank that returned an error left its peers waiting on it:
			// the fault they saw is a symptom, so keep the cause with it.
			err = errors.Join(append([]error{fe}, errs...)...)
		}
	}()
	w.Run(func(c *mp.Comm) {
		res.Trees[c.Rank()], hashes[c.Rank()], errs[c.Rank()] = rank(c)
	})
	for r, t := range res.Trees {
		if res.Tree == nil {
			res.Tree = t
		}
		res.HashPeak = max(res.HashPeak, hashes[r])
	}
	return res, errors.Join(errs...)
}
