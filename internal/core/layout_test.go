package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"partree/internal/dataset"
	"partree/internal/fault"
	"partree/internal/kernel"
	"partree/internal/mp"
	"partree/internal/tree"
)

// gatherRows is the resident RowSource the level layout replaced: every
// node gathers its Idx out of the dataset's int32 columns
// (kernel.TabulateInto) and PartitionRows routes them. It is the
// independent oracle of the layout tests.
type gatherRows struct {
	d    *dataset.Dataset
	o    tree.Options
	spec *kernel.Spec
}

func (g *gatherRows) Schema() *dataset.Schema   { return g.d.Schema }
func (g *gatherRows) Begin([]tree.FrontierItem) {}
func (g *gatherRows) End([]tree.FrontierItem)   {}
func (g *gatherRows) Err() error                { return nil }
func (g *gatherRows) TabulateInto(_ int, it tree.FrontierItem, blk []int64) int64 {
	return kernel.TabulateInto(blk, it.Idx, g.spec)
}
func (g *gatherRows) Expand(_ int, it tree.FrontierItem, stats *tree.NodeStats, ids *tree.IDGen, ops *int64) []tree.FrontierItem {
	kids, childSlot, split := tree.ExpandNodeOOC(it, stats, g.d.Schema, g.o, ids)
	if !split {
		return nil
	}
	parts, routeOps := tree.PartitionRows(it.Node, g.d, it.Idx)
	*ops += routeOps
	for ci, part := range parts {
		if sl := childSlot[ci]; sl >= 0 {
			kids[sl].Idx = part
		}
	}
	return kids
}

// buildSyncGather is BuildSync's level loop over gatherRows.
func buildSyncGather(c *mp.Comm, local *dataset.Dataset, o Options) *tree.Tree {
	o = o.WithDefaults()
	setupBinner(c, local, &o)
	root := newRoot(local.Schema)
	ids := tree.NewIDGen(1)
	frontier := []tree.FrontierItem{{Node: root, Idx: local.AllIndex()}}
	ls := newLevelState(o)
	rows := &gatherRows{d: local, o: o.Tree, spec: tree.NewStatsSpec(local, o.Tree)}
	for len(frontier) > 0 {
		frontier, _ = expandLevelSync(c, rows, frontier, o, ids, ls)
	}
	return &tree.Tree{Schema: local.Schema, Root: root}
}

// genMixed builds a three-class dataset whose schema forces every layout
// fallback: a categorical attribute of 300 values (int32 gather, and
// multiway splits with more children than a byte code holds), a
// continuous one (binned gather) and a narrow categorical one (bytes).
func genMixed(n int, seed uint64) *dataset.Dataset {
	wide := make([]string, 300)
	for i := range wide {
		wide[i] = fmt.Sprint(i)
	}
	s := &dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "wide", Kind: dataset.Categorical, Values: wide},
			{Name: "x", Kind: dataset.Continuous},
			{Name: "small", Kind: dataset.Categorical, Values: []string{"a", "b", "c", "d", "e"}},
		},
		Classes: []string{"p", "q", "r"},
	}
	rng := rand.New(rand.NewPCG(seed, 3))
	d := dataset.New(s, n)
	rec := dataset.NewRecord(s)
	for i := 0; i < n; i++ {
		rec.Cat[0] = int32(rng.IntN(300))
		rec.Cont[1] = rng.NormFloat64()
		rec.Cat[2] = int32(rng.IntN(5))
		cl := int32(0)
		switch {
		case rec.Cat[0]%7 < 2 && rec.Cont[1] > -0.3:
			cl = 1
		case rec.Cat[2] == 3 || rec.Cont[1] > 1.1:
			cl = 2
		}
		if rng.IntN(20) == 0 {
			cl = int32(rng.IntN(3))
		}
		rec.Class = cl
		d.Append(rec)
	}
	return d
}

// requireSameRun requires two builds to agree on the tree and on every
// rank's modeled clock (bit for bit) and the traffic.
func requireSameRun(t *testing.T, got, want *tree.Tree, gw, ww *mp.World) {
	t.Helper()
	if !tree.Equal(want, got) {
		t.Fatalf("tree differs from the gather build: %s", tree.Diff(want, got))
	}
	for r := 0; r < gw.Size(); r++ {
		if g, w := gw.Clock(r), ww.Clock(r); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("rank %d modeled clock %v, gather build %v", r, g, w)
		}
	}
	if g, w := gw.Traffic(), ww.Traffic(); g != w {
		t.Fatalf("traffic %+v, gather build %+v", g, w)
	}
}

// TestLevelLayoutMatchesGather: BuildSync over the level layout grows
// the gather build's tree with the same modeled clocks and traffic, so
// the range tabulator and the layout's routing bill exactly today's ops;
// with exact reductions (a vote is exact at P = 1) both also equal
// tree.BuildBFS under tree.Equal. Covered: P = 1…4,
// binary and multiway, sibling subtraction with sparse reductions,
// voting with K < A_d, and a schema whose attributes take every fallback.
func TestLevelLayoutMatchesGather(t *testing.T) {
	type datum struct {
		name string
		d    *dataset.Dataset
		o    Options
	}
	var data []datum
	for _, binary := range []bool{true, false} {
		base := Options{Tree: tree.Options{Binary: binary}, SyncEveryNodes: 8}
		reuse := base
		reuse.Tree.Reuse = kernel.Options{Subtraction: true, SparseThreshold: 0.5}
		vote := base
		vote.Tree.Vote = kernel.VoteOptions{K: 3}
		mixed := base
		mixed.MicroBins, mixed.NodeBins = 32, 6
		data = append(data,
			datum{fmt.Sprintf("discrete/binary=%v", binary), genDiscrete(t, 2000, 2, 42), base},
			datum{fmt.Sprintf("reuse/binary=%v", binary), genDiscrete(t, 2000, 7, 5), reuse},
			datum{fmt.Sprintf("vote/binary=%v", binary), genDiscrete(t, 2000, 2, 9), vote},
			datum{fmt.Sprintf("mixed/binary=%v", binary), genMixed(1500, 4), mixed},
		)
	}
	for _, dt := range data {
		// A vote with K < A_d on more than one rank is approximate by
		// design, so its oracle is the gather build of the same vote alone.
		voted := dt.o.Tree.Vote.Active(dt.d.Schema.NumAttrs())
		want := tree.BuildBFS(dt.d, dt.o.SerialOptions(dt.d))
		for _, p := range []int{1, 2, 3, 4} {
			t.Run(fmt.Sprintf("%s/p%d", dt.name, p), func(t *testing.T) {
				got, gw := runParallel(t, BuildSync, dt.d, p, dt.o)
				ref, ww := runParallel(t, buildSyncGather, dt.d, p, dt.o)
				requireSameRun(t, got, ref, gw, ww)
				if (!voted || p == 1) && !tree.Equal(want, got) {
					t.Fatalf("tree differs from tree.BuildBFS: %s", tree.Diff(want, got))
				}
			})
		}
	}
}

// TestLevelLayoutRepack: the builders whose frontiers the layout did not
// produce — the hybrid after a split (redistribute hands each half new
// rows) and the partitioned formulation (one-item frontiers, then
// sequential subtrees) — repack and still grow tree.BuildBFS's tree, on
// discretized data and on the fallback schema.
func TestLevelLayoutRepack(t *testing.T) {
	for _, dt := range []struct {
		name string
		d    *dataset.Dataset
		o    Options
	}{
		{"discrete", genDiscrete(t, 2000, 2, 42), Options{Tree: tree.Options{Binary: true}, SyncEveryNodes: 8, SplitRatio: 0.25}},
		{"mixed", genMixed(1500, 4), Options{SyncEveryNodes: 8, MicroBins: 32, NodeBins: 6, SplitRatio: 0.25}},
	} {
		want := tree.BuildBFS(dt.d, dt.o.SerialOptions(dt.d))
		for _, f := range []struct {
			name  string
			build buildFn
		}{{"hybrid", BuildHybrid}, {"partitioned", BuildPartitioned}} {
			for _, p := range []int{2, 3, 4} {
				t.Run(fmt.Sprintf("%s/%s/p%d", dt.name, f.name, p), func(t *testing.T) {
					got, w := runParallel(t, f.build, dt.d, p, dt.o)
					if !tree.Equal(want, got) {
						t.Fatalf("tree differs from tree.BuildBFS: %s", tree.Diff(want, got))
					}
					if w.Breakdown().Phase(PhaseMoving).Calls == 0 {
						t.Fatal("no record moved: the case never repacks a redistributed block")
					}
				})
			}
		}
	}
}

// TestLevelLayoutRecoveryCut: in-run recovery with a checkpoint every
// second level rolls back to a cut whose frontier was handed out by the
// level layout. The live Idx of that frontier point into the layout,
// which the levels after the cut overwrite, so history must have copied
// them at the cut; a crash swept through the levels after each cut must
// still recover tree.BuildBFS's tree on every survivor.
func TestLevelLayoutRecoveryCut(t *testing.T) {
	d := genDiscrete(t, 1500, 2, 42)
	o := Options{Tree: tree.Options{Binary: true}, SyncEveryNodes: 8}
	want := tree.BuildBFS(d, o.SerialOptions(d))
	const p = 3
	recovered := 0
	for n := 4; n <= 40; n += 3 {
		t.Run(fmt.Sprintf("crash-op%d", n), func(t *testing.T) {
			st := fault.NewStore()
			ko := o
			ko.FT = &FTOptions{CheckpointEvery: 2}
			plan := fault.NewPlan(fault.CrashAt(1, fault.CollStart, n))
			trees, w := runWithStore(t, BuildSync, d, p, ko, st, plan)
			checkSurvivors(t, want, trees, w)
			if w.Breakdown().Phase(PhaseRecovery).Calls > 0 {
				recovered++
			}
		})
	}
	if recovered < 5 {
		t.Fatalf("only %d crash points exercised a recovery round", recovered)
	}
}
