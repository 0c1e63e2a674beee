// Differential identity tests for the out-of-core dataset layer: every
// formulation trained from the chunked on-disk column store must grow a
// tree bit-identical to its in-RAM run on the same rows, and the
// multi-rank formulations must additionally show bit-identical modeled
// cost breakdowns once the (new, separately reported) disk cost class is
// stripped — the acceptance gate of the chunked columnar refactor: the
// storage backend must be unobservable in every historic number.
package partree_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"partree/internal/build"
	"partree/internal/core"
	"partree/internal/dataset"
	"partree/internal/fault"
	"partree/internal/kernel"
	"partree/internal/mp"
	"partree/internal/quest"
	"partree/internal/tree"
)

// oocStoreChunkRows keeps store chunks small so every build crosses many
// chunk boundaries.
const oocStoreChunkRows = 256

// stripDisk removes the disk cost class from a breakdown: DiskBytes /
// DiskTime are zeroed and cells left with no activity at all are dropped
// (an out-of-core run creates a compute cell for a phase the in-RAM run
// never charges in, holding nothing but disk reads). Both sides of a
// comparison are normalized the same way.
func stripDisk(b mp.Breakdown) mp.Breakdown {
	out := mp.NewBreakdown()
	for c, v := range b.Cells {
		v.DiskBytes, v.DiskTime = 0, 0
		if v == (mp.CellStats{}) {
			continue
		}
		out.Cells[c] = v
	}
	return out
}

// openTestStore writes the dataset into an on-disk column store and opens
// it, so the differential runs read through the real encode/decode path.
func openTestStore(t *testing.T, d *dataset.Dataset, chunkRows int) *dataset.Store {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "train.store")
	if err := dataset.WriteStore(dir, d.Chunked(chunkRows), chunkRows); err != nil {
		t.Fatalf("write store: %v", err)
	}
	st, err := dataset.OpenStore(dir)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestOOCIdentity: for every formulation, the tree grown from the on-disk
// column store is bit-identical to the in-RAM tree on the same rows, and
// the modeled cost breakdown is bit-identical once the disk class is
// stripped. The out-of-core multi-rank runs must actually exercise the
// disk class (modeled DiskBytes > 0).
func TestOOCIdentity(t *testing.T) {
	for _, discrete := range []bool{true, false} {
		d := genKernelData(t, discrete)
		st := openTestStore(t, d, oocStoreChunkRows)
		for _, name := range build.Names() {
			t.Run(fmt.Sprintf("discrete=%v/%s", discrete, name), func(t *testing.T) {
				s := kernelSpec(name, discrete, kernel.Options{})
				wantTree, wantW := buildRAM(t, s, d)
				gotTree, gotW := buildTable(t, s, st)
				if diff := tree.Diff(wantTree, gotTree); diff != "" {
					t.Fatalf("out-of-core tree differs from in-RAM tree: %s", diff)
				}
				if (wantW == nil) != (gotW == nil) {
					t.Fatalf("world mismatch: in-RAM %v, out-of-core %v", wantW != nil, gotW != nil)
				}
				if wantW != nil {
					wb, gb := stripDisk(wantW.Breakdown()), stripDisk(gotW.Breakdown())
					if !reflect.DeepEqual(wb, gb) {
						t.Fatalf("modeled breakdown drifted between backends (disk class stripped):\nin-RAM:      %+v\nout-of-core: %+v", wb, gb)
					}
					if tr := gotW.Traffic(); tr.DiskBytes <= 0 {
						t.Fatalf("out-of-core run charged no modeled disk bytes")
					}
					if tr := wantW.Traffic(); tr.DiskBytes != 0 {
						t.Fatalf("in-RAM run charged %d modeled disk bytes", tr.DiskBytes)
					}
				}
			})
		}
		if st.ReadBytes() <= 0 {
			t.Fatalf("store reported no encoded bytes read")
		}
	}
}

// TestOOCChunkBoundaries: tabulation and routing are bit-identical for
// any chunk geometry — sizes that split every row, prime-misalign the
// frontier, match the default, and cover the whole set in one chunk — and
// with statistics reuse on, since BuildBFSOOC runs the same serial level
// loop as BuildBFS.
func TestOOCChunkBoundaries(t *testing.T) {
	for _, discrete := range []bool{true, false} {
		d := genKernelData(t, discrete)
		coreOpts := core.Options{Tree: tree.Options{Binary: true}, SyncEveryNodes: 8}
		if !discrete {
			coreOpts.MicroBins = 32
			coreOpts.NodeBins = 6
		}
		want := tree.BuildBFS(d, coreOpts.SerialOptions(d))
		for _, chunkRows := range []int{1, 7, 4096, d.Len()} {
			t.Run(fmt.Sprintf("discrete=%v/chunk=%d", discrete, chunkRows), func(t *testing.T) {
				tbl := d.Chunked(chunkRows)
				to, err := coreOpts.SerialOptionsTable(tbl)
				if err != nil {
					t.Fatalf("options: %v", err)
				}
				for _, ro := range []kernel.Options{{}, {Subtraction: true}, kernel.ReuseAll()} {
					to.Reuse = ro
					got, err := tree.BuildBFSOOC(tbl, to)
					if err != nil {
						t.Fatalf("build: %v", err)
					}
					if diff := tree.Diff(want, got); diff != "" {
						t.Fatalf("chunk size %d, reuse %+v changed the tree: %s", chunkRows, ro, diff)
					}
				}
			})
		}
	}
}

// TestOOCSyncPin pins what BuildSyncOOC builds from a store: the sha256
// over the serialized tree, the Float64bits of every rank's modeled clock,
// the modeled disk bytes and the full breakdown table with its disk
// columns, at TD = 0 and at a nonzero disk rate. TestOOCIdentity strips
// the disk class, so this is what notices a change in how often, and
// under which phase, the chunks are read.
func TestOOCSyncPin(t *testing.T) {
	want := map[string]string{
		"discrete=true/p1/td=0":      "b9bc2feabd287755527c56ff9cd96d396f1fd8348906d481b04df12986cb7073",
		"discrete=true/p1/td=2e-09":  "d065a2b85b20cc6e6627173fc7ec2146b8ce2b0dfce792a5992a06ce45e80551",
		"discrete=true/p3/td=0":      "0de22a859259ce67c6bd93cb979d4428051ab35b038d7f3f8b261c6e3f1175f1",
		"discrete=true/p3/td=2e-09":  "855295dcdb0e831894ed8ce46d27db2eb625e6ece4d6945a7ee7cc47fad32c21",
		"discrete=true/p4/td=0":      "4cc82d17a8dd659669edc809a7412c63488bcdfb29c075c392e29c315d579f63",
		"discrete=true/p4/td=2e-09":  "fb37abfdc9bedb29b659dff4ae6f651ae8c6cb37a0ad76e69ad7e012653587a3",
		"discrete=false/p1/td=0":     "3fa4fbf6b38b9904cc188e27af446a2a3cd6f099f79829064b0ecbdc2cfcd374",
		"discrete=false/p1/td=2e-09": "1aafb7cba8c4d3b12c8affe5bf8b769c66c41fd6fe0642c2e10510121044eac7",
		"discrete=false/p3/td=0":     "06187af078e76e0cb8f40fdfbd43bb1e729d1adb214cd3926112d84a413bcff2",
		"discrete=false/p3/td=2e-09": "7e7d841070fdcc3d825fe3c7f224ec5fba11dc676d20717bde1373c6e79fdd64",
		"discrete=false/p4/td=0":     "3bfbf4c54d1cbee20e6014469d465872f235356d1b446537e79b41ebf24a9ba3",
		"discrete=false/p4/td=2e-09": "b93ae4578ab2c24d2ba8dfec65088f0c62451ec6c34a1229c5144a547daabbd9",
	}
	for _, discrete := range []bool{true, false} {
		d := genKernelData(t, discrete)
		st := openTestStore(t, d, oocStoreChunkRows)
		o := core.Options{Tree: tree.Options{Binary: true}, SyncEveryNodes: 8}
		if !discrete {
			o.MicroBins = 32
			o.NodeBins = 6
		}
		for _, p := range []int{1, 3, 4} {
			for _, td := range []float64{0, 2e-9} {
				name := fmt.Sprintf("discrete=%v/p%d/td=%g", discrete, p, td)
				t.Run(name, func(t *testing.T) {
					tr, w := buildTable(t, build.Spec{Builder: "sync", Procs: p, Machine: mp.SP2().WithDiskRate(td), Options: o}, st)
					h := sha256.New()
					if err := tree.WriteJSON(h, tr); err != nil {
						t.Fatal(err)
					}
					for r := 0; r < p; r++ {
						h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(w.Clock(r))))
					}
					h.Write(binary.LittleEndian.AppendUint64(nil, uint64(w.Traffic().DiskBytes)))
					h.Write([]byte(w.Breakdown().Table()))
					if got := hex.EncodeToString(h.Sum(nil)); got != want[name] {
						t.Errorf("%d nodes, clock %.9f: sha256 %s, pinned %s", tr.Stats().Nodes, w.MaxClock(), got, want[name])
					}
				})
			}
		}
	}
}

// TestOOCSyncComposes: sibling subtraction and voting run out-of-core
// through the same level loop as in RAM, so BuildSyncOOC over a store
// equals BuildSync on the materialized blocks — tree, every rank's clock
// and the disk-stripped breakdown — with reuse off/on × vote K ∈ {0, 3}
// on 32-attribute data. Fault tolerance stays rejected.
func TestOOCSyncComposes(t *testing.T) {
	d, err := quest.Generate(quest.Config{Function: 2, Seed: 11, Attrs: 32}, 1500)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	st := openTestStore(t, d, oocStoreChunkRows)
	for _, reuse := range []bool{false, true} {
		for _, k := range []int{0, 3} {
			for _, p := range []int{1, 3, 4} {
				o := core.Options{Tree: tree.Options{Binary: true, MaxDepth: 8}, SyncEveryNodes: 8, MicroBins: 32, NodeBins: 6}
				if reuse {
					o.Tree.Reuse = kernel.ReuseAll()
				}
				o.Tree.Vote = kernel.VoteOptions{K: k}
				t.Run(fmt.Sprintf("reuse=%v/k=%d/p%d", reuse, k, p), func(t *testing.T) {
					s := build.Spec{Builder: "sync", Procs: p, Options: o}
					want, ww := buildRAM(t, s, d)
					got, gw := buildTable(t, s, st)
					if diff := tree.Diff(want, got); diff != "" {
						t.Fatalf("out-of-core tree differs from in-RAM tree: %s", diff)
					}
					for r := 0; r < p; r++ {
						if ww.Clock(r) != gw.Clock(r) {
							t.Fatalf("rank %d clock: in-RAM %v, out-of-core %v", r, ww.Clock(r), gw.Clock(r))
						}
					}
					if wb, gb := stripDisk(ww.Breakdown()), stripDisk(gw.Breakdown()); !reflect.DeepEqual(wb, gb) {
						t.Fatalf("breakdown drifted (disk class stripped):\nin-RAM:      %+v\nout-of-core: %+v", wb, gb)
					}
				})
			}
		}
	}
	t.Run("ft", func(t *testing.T) {
		o := core.Options{FT: &core.FTOptions{Store: fault.NewStore()}}
		w := mp.NewWorld(1, mp.SP2())
		var err error
		w.Run(func(c *mp.Comm) { _, err = core.BuildSyncOOC(c, st, o) })
		if err == nil {
			t.Fatal("BuildSyncOOC accepted a fault-tolerance store")
		}
	})
}
