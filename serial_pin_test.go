// Pins for the serial breadth-first level loop and the multi-rank builds
// whose one-processor partitions run it: the sha256 over the serialized
// tree and the modeled (scanOps, wordOps) of tree.GrowFrontierBFS, and over
// the tree, every rank's modeled clock and the breakdown cells of unvoted
// BuildPartitioned and BuildHybrid, with statistics reuse off, sibling
// subtraction alone, and ReuseAll. The identity tests only compare trees
// (and reuse-off clocks) within one binary; this compares across commit
// boundaries, so a change to what the serial loop charges is noticed.
package partree_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"
	"testing"

	"partree/internal/core"
	"partree/internal/kernel"
	"partree/internal/mp"
	"partree/internal/tree"
)

// pinReuses are the statistics-reuse settings every serial pin runs under.
var pinReuses = []struct {
	name string
	ro   kernel.Options
}{
	{"off", kernel.Options{}},
	{"sub", kernel.Options{Subtraction: true}},
	{"all", kernel.ReuseAll()},
}

// hashCells writes every breakdown cell, sorted, with its floats in
// round-trip form.
func hashCells(h hash.Hash, b mp.Breakdown) {
	keys := make([]string, 0, len(b.Cells))
	vals := map[string]mp.CellStats{}
	for c, v := range b.Cells {
		k := fmt.Sprintf("%+v", c)
		keys = append(keys, k)
		vals[k] = v
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s %+v\n", k, vals[k])
	}
}

func TestSerialBFSPin(t *testing.T) {
	want := map[string]string{
		"discrete=true/reuse=off":  "284ff685d1602c0e42532c8fe5121bc1415caab706ad729fec8ee9366cbbb9b5",
		"discrete=true/reuse=sub":  "c83ca3454474dbc91af0910487731186ae8b68e892510f6abdf65805f06c9669",
		"discrete=true/reuse=all":  "c83ca3454474dbc91af0910487731186ae8b68e892510f6abdf65805f06c9669",
		"discrete=false/reuse=off": "f835d7b7271abdd57d559d6a4a141b1c00d7593394c86bb6f4a34b3773ab3b8f",
		"discrete=false/reuse=sub": "dbd1dd85354879eaf1327e927202d9835393bf430c6dc2930b053ca43ee7c790",
		"discrete=false/reuse=all": "dbd1dd85354879eaf1327e927202d9835393bf430c6dc2930b053ca43ee7c790",
	}
	for _, discrete := range []bool{true, false} {
		d := genKernelData(t, discrete)
		for _, ru := range pinReuses {
			name := fmt.Sprintf("discrete=%v/reuse=%s", discrete, ru.name)
			t.Run(name, func(t *testing.T) {
				o := kernelSpec("bfs", discrete, ru.ro).Options.SerialOptions(d)
				root := &tree.Node{ID: 0, Kind: tree.Leaf, Dist: make([]int64, d.Schema.NumClasses())}
				scan, word := tree.GrowFrontierBFS(d, []tree.FrontierItem{{Node: root, Idx: d.AllIndex()}}, o, tree.NewIDGen(1))
				tr := &tree.Tree{Schema: d.Schema, Root: root}
				h := sha256.New()
				if err := tree.WriteJSON(h, tr); err != nil {
					t.Fatal(err)
				}
				h.Write(binary.LittleEndian.AppendUint64(nil, uint64(scan)))
				h.Write(binary.LittleEndian.AppendUint64(nil, uint64(word)))
				if got := hex.EncodeToString(h.Sum(nil)); got != want[name] {
					t.Errorf("%d nodes, ops (%d, %d): sha256 %s, pinned %s", tr.Stats().Nodes, scan, word, got, want[name])
				}
			})
		}
	}
}

func TestSequentialPhasePin(t *testing.T) {
	want := map[string]string{
		"discrete=true/partitioned/p3/reuse=off":  "df6fe8f708e8e7f9c1dfd22bb8c0aa074d08d26edc8f350539c89598896a0006",
		"discrete=true/partitioned/p3/reuse=sub":  "993c03f1d6fac5702227db6795a4148c91ec51cdfd20ecad59a77f9b44830e7a",
		"discrete=true/partitioned/p3/reuse=all":  "993c03f1d6fac5702227db6795a4148c91ec51cdfd20ecad59a77f9b44830e7a",
		"discrete=true/partitioned/p5/reuse=off":  "685cf5303acb42dced25c16a5fa4b2aded11415aa3d5f37b63d914248864ec12",
		"discrete=true/partitioned/p5/reuse=sub":  "80f5c83e8006e42c98b2287af217eb528e2ea19527e612fd02f567ad0b282404",
		"discrete=true/partitioned/p5/reuse=all":  "80f5c83e8006e42c98b2287af217eb528e2ea19527e612fd02f567ad0b282404",
		"discrete=true/hybrid/p3/reuse=off":       "9c458e2c7b5e07bec57fc2d9597e754ef10c79a60e7830aee1e263df847a481f",
		"discrete=true/hybrid/p3/reuse=sub":       "d3f10148f07ca63ff3762aedd5a6b18ed5238132f1544147e05490e869365064",
		"discrete=true/hybrid/p3/reuse=all":       "7add0dd330b6aaa0ba41306e4933f8ee12a1efe17b95730e77f984c41c9af5cb",
		"discrete=true/hybrid/p5/reuse=off":       "6b6c5e5439c71b6246cead9fdbdee9e4698651b7c3935a7c6c704190dee615fa",
		"discrete=true/hybrid/p5/reuse=sub":       "1cabb3f85bc72ea6121adad7f84099ca4b6c2b54e54ad9a1f4ca339b585ce25a",
		"discrete=true/hybrid/p5/reuse=all":       "2afee31984480cf43d0b4e3066719697996150f229aad52de71ad7a422e177e6",
		"discrete=false/partitioned/p3/reuse=off": "e7f6729293901e7917f7cae053a009c24e179741902e030090a94ee00d5dcd81",
		"discrete=false/partitioned/p3/reuse=sub": "3dd9e1b7ffbb98f95836b44becf0d511fac7a97a5da1a581878c19fec8013775",
		"discrete=false/partitioned/p3/reuse=all": "3dd9e1b7ffbb98f95836b44becf0d511fac7a97a5da1a581878c19fec8013775",
		"discrete=false/partitioned/p5/reuse=off": "7a79971d3667e167a0cf65728a981039a994a596a13fdd4be0e7bc9a465070c8",
		"discrete=false/partitioned/p5/reuse=sub": "2d84967740a57e96ee4ae6d387b46df15d1e976f0fc915d2b4d5323b464b2ea5",
		"discrete=false/partitioned/p5/reuse=all": "2d84967740a57e96ee4ae6d387b46df15d1e976f0fc915d2b4d5323b464b2ea5",
		"discrete=false/hybrid/p3/reuse=off":      "610f8e407688692661f2a457599a56888578e5d8a826eea20835f486867f2b67",
		"discrete=false/hybrid/p3/reuse=sub":      "6d493b7f20508d3a0849ddef24fcff3868056c6fbbe6936774be10778395a676",
		"discrete=false/hybrid/p3/reuse=all":      "88414a7f4d5695885e7f30b24b63d64101740fe098876e5e8b3fe67d6f07970e",
		"discrete=false/hybrid/p5/reuse=off":      "63133d0b70f298cb6ae660c00910d54019dacb308190e674ef9851632148b244",
		"discrete=false/hybrid/p5/reuse=sub":      "5c4025499be0126a60f8283e2453e14c6d6d13d2ec40d170d40fd043626f8fe6",
		"discrete=false/hybrid/p5/reuse=all":      "90aca334acdf82db9127c4ffdea12e6d8dacf86cb121d3e9d7d931d7b036f790",
	}
	for _, discrete := range []bool{true, false} {
		d := genKernelData(t, discrete)
		for _, b := range []string{"partitioned", "hybrid"} {
			for _, p := range []int{3, 5} {
				for _, ru := range pinReuses {
					name := fmt.Sprintf("discrete=%v/%s/p%d/reuse=%s", discrete, b, p, ru.name)
					t.Run(name, func(t *testing.T) {
						s := kernelSpec(b, discrete, ru.ro)
						s.Procs = p
						tr, w := buildRAM(t, s, d)
						h := sha256.New()
						if err := tree.WriteJSON(h, tr); err != nil {
							t.Fatal(err)
						}
						for r := 0; r < p; r++ {
							h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(w.Clock(r))))
						}
						if w.Breakdown().Phase(core.PhaseSequential).CompTime <= 0 {
							t.Fatalf("no one-processor partition ran the serial loop")
						}
						hashCells(h, w.Breakdown())
						if got := hex.EncodeToString(h.Sum(nil)); got != want[name] {
							t.Errorf("%d nodes, clock %.9f: sha256 %s, pinned %s", tr.Stats().Nodes, w.MaxClock(), got, want[name])
						}
					})
				}
			}
		}
	}
}
