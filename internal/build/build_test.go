package build

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"partree/internal/core"
	"partree/internal/dataset"
	"partree/internal/discretize"
	"partree/internal/fault"
	"partree/internal/quest"
	"partree/internal/tree"
)

func smallData(t *testing.T) *dataset.Dataset {
	t.Helper()
	d, err := quest.Generate(quest.Config{Function: 2, Seed: 5}, 400)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestValidate: every registry name is accepted, and each unsupported
// combination fails before anything runs with an *UnsupportedError naming
// the builder and the feature.
func TestValidate(t *testing.T) {
	ft := core.Options{FT: &core.FTOptions{Store: fault.NewStore()}}
	for _, name := range Names() {
		if err := (Spec{Builder: name, Procs: 3}).Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	tbl := smallData(t).Chunked(64)
	cases := []struct {
		name    string
		spec    Spec
		table   bool
		feature string
	}{
		{"unknown", Spec{Builder: "cart", Procs: 3}, false, ""},
		{"ft/hunt", Spec{Builder: "hunt", Options: ft}, false, "fault tolerance"},
		{"ft/bfs", Spec{Builder: "bfs", Options: ft}, false, "fault tolerance"},
		{"ft/sliq", Spec{Builder: "sliq", Options: ft}, false, "fault tolerance"},
		{"ft/sprint", Spec{Builder: "sprint", Options: ft}, false, "fault tolerance"},
		{"ft/vertical", Spec{Builder: "vertical", Procs: 3, Options: ft}, false, "fault tolerance"},
		{"ft/table", Spec{Builder: "sync", Procs: 3, Options: ft}, true, "fault tolerance out-of-core"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			if tc.table {
				_, err = RunTable(tc.spec, tbl)
			} else {
				err = tc.spec.Validate()
			}
			var ue *UnsupportedError
			if !errors.As(err, &ue) {
				t.Fatalf("got %v, want an *UnsupportedError", err)
			}
			if ue.Builder != tc.spec.Builder || ue.Feature != tc.feature {
				t.Fatalf("got %+v, want builder %q feature %q", *ue, tc.spec.Builder, tc.feature)
			}
		})
	}
	for _, s := range []Spec{
		{Builder: "sync", Procs: 0},
		{Builder: "sync", Procs: 3, Topology: "mesh"},
		{Builder: "sync", Procs: 3, Coll: "allreduce=bogus"},
	} {
		if err := s.Validate(); err == nil {
			t.Errorf("%+v: accepted", s)
		}
	}
}

// TestRunFaultIsError: a fault a rank detects without fault tolerance
// comes back as a *fault.Error with the world, not as a panic; with fault
// tolerance the survivors finish the fault-free tree.
func TestRunFaultIsError(t *testing.T) {
	d := smallData(t)
	spec := Spec{Builder: "sync", Procs: 4, Options: core.Options{Tree: tree.Options{Binary: true}}}
	want, err := Run(spec, d)
	if err != nil {
		t.Fatal(err)
	}
	spec.Fault = fault.NewPlan(fault.CrashAt(1, fault.CollStart, 3))
	res, err := Run(spec, d)
	var fe *fault.Error
	if !errors.As(err, &fe) {
		t.Fatalf("got %v, want a *fault.Error", err)
	}
	if res.World == nil {
		t.Fatal("no world with the fault error")
	}
	spec.Options.FT = &core.FTOptions{Store: fault.NewStore()}
	res, err = Run(spec, d)
	if err != nil {
		t.Fatal(err)
	}
	if diff := tree.Diff(want.Tree, res.Tree); diff != "" {
		t.Fatalf("recovered tree differs: %s", diff)
	}
	if res.Trees[1] != nil {
		t.Fatal("crashed rank returned a tree")
	}
}

// failingTable is a Table whose ReadChunk of chunk k fails on its nth
// read (0-based), once; ranks read through it concurrently.
type failingTable struct {
	dataset.Table
	k, n  int
	reads atomic.Int32
	err   error
}

func (f *failingTable) ReadChunk(k int, ch *dataset.Chunk) (int64, error) {
	if k == f.k && int(f.reads.Add(1))-1 == f.n {
		return 0, f.err
	}
	return f.Table.ReadChunk(k, ch)
}

// TestRunTableReadError: when one rank's chunk read fails mid-build, the
// read error comes back from RunTable — not only the fault its peers hit
// waiting on the rank that stopped — and the build returns promptly. The
// failing chunk lies wholly inside the last rank's block; on discrete
// data each level reads every chunk once, so its nth read is at level n.
func TestRunTableReadError(t *testing.T) {
	const chunkRows = 32
	d := discretize.UniformPaper(smallData(t), quest.PaperBins(), quest.Ranges())
	injected := errors.New("injected chunk read error")
	for _, p := range []int{2, 3} {
		for level := 1; level <= 4; level++ {
			t.Run(fmt.Sprintf("p%d/level%d", p, level), func(t *testing.T) {
				lo, _ := dataset.BlockBounds(d.Len(), p, p-1)
				tbl := &failingTable{Table: d.Chunked(chunkRows), k: (lo + chunkRows - 1) / chunkRows, n: level, err: injected}
				spec := Spec{Builder: "sync", Procs: p, Options: core.Options{Tree: tree.Options{Binary: true}}}
				done := make(chan error, 1)
				go func() {
					_, err := RunTable(spec, tbl)
					done <- err
				}()
				select {
				case err := <-done:
					if int(tbl.reads.Load()) <= level {
						t.Fatalf("build read chunk %d only %d times; the injection never fired", tbl.k, tbl.reads.Load())
					}
					if !errors.Is(err, injected) {
						t.Fatalf("got %v, want the injected read error", err)
					}
				case <-time.After(20 * time.Second):
					t.Fatal("build did not return after a chunk read failed")
				}
			})
		}
	}
}
