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
		"discrete=true/p1/td=0":      "8afef07596ebc58c08d991c6016ed8d8a1f6d9af7fd03be76ad7716f8667e086",
		"discrete=true/p1/td=2e-09":  "f4f83da866af515e521ea3c710f0df908b545be29c19b4ae26a4dddbb1bc8e23",
		"discrete=true/p3/td=0":      "2c33d90790976f0ef78f8d46431cf3297a6c3a3751e44fe78049f6cc235cef70",
		"discrete=true/p3/td=2e-09":  "80f310c35fbc584017e4f353db7edb483b0e46660a23aa82eb18a533d413baf2",
		"discrete=true/p4/td=0":      "4870dfb8c8a2f5cc85caededd13345f31cb848191e6ec806506bfb1e071eb20b",
		"discrete=true/p4/td=2e-09":  "253a27c2930fc0aa07e7b34505ad43a3f10fe4bc4178898d90a3df914c1e89bd",
		"discrete=false/p1/td=0":     "f6c314390a9b2e25f923d453e7636b9f4742926b32ff5eea798fe3bfa6656876",
		"discrete=false/p1/td=2e-09": "8e54f520302f72474510e9a122ecfa95b994e96cc8d499ce8f29efaff17023b2",
		"discrete=false/p3/td=0":     "ed8e9eb26e8b24fceb4e22e64f99b3c49e2d54c5f70778aa8985c862ee51be0c",
		"discrete=false/p3/td=2e-09": "28710241eace9227886fc1005bbf69eac3711be1859b13409bb4a940f96c159a",
		"discrete=false/p4/td=0":     "d7d582db5bcf9fa1015e15474f21eea5b67e7f2b13bb4c437a72af31c8951cdd",
		"discrete=false/p4/td=2e-09": "569f546d2bba6b775f8e19e9edcf28576ac72d8a2aa27130b5273a74cbaf568d",
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
