package mp

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"
	"testing"
)

// schedulePinProgram calls every collective once or more, from staggered
// entry clocks so that waits (and thus who waits for whom) are visible.
func schedulePinProgram(c *Comm) {
	p, r := c.Size(), c.Rank()
	c.Compute(float64(r * 37))

	c.BeginPhase("dense")
	x := make([]int64, 23)
	for i := range x {
		x[i] = int64(r*100 + i)
	}
	Allreduce(c, x, Sum)
	f := make([]float64, 5)
	for i := range f {
		f[i] = float64((r+i)%p) + 0.5
	}
	Allreduce(c, f, Min)
	c.EndPhase()

	// Half dense, half near-empty: ring and halving/doubling chunks of the
	// two halves encode differently, and the 1.0 threshold sends sparse
	// wherever pairs are smaller.
	for _, th := range []float64{0, 0.5, 1.0} {
		c.BeginPhase(fmt.Sprintf("sparse-%g", th))
		a := make([]int64, 40)
		for i := 0; i < 20; i++ {
			a[i] = int64(r + i + 1)
		}
		a[20+(r*7)%20] = int64(r + 1)
		AllreduceSum(c, a, th)
		c.EndPhase()
	}

	c.BeginPhase("rooted")
	red := make([]int64, 17)
	for i := range red {
		red[i] = int64(r ^ i)
	}
	Reduce(c, red, Max, p/2)
	b := make([]int64, 19)
	if r == p-1 {
		for i := range b {
			b[i] = int64(i * i)
		}
	}
	Bcast(c, b, p-1)
	var v any
	if r == p-1 {
		v = "payload"
	}
	BcastValue(c, v, 333, p-1)
	c.EndPhase()

	c.BeginPhase("gather")
	contrib := make([]int64, r%3)
	for i := range contrib {
		contrib[i] = int64(r*10 + i)
	}
	Allgatherv(c, 1, contrib)
	c.EndPhase()

	c.Compute(float64((p - r) * 11))
	c.Barrier()
	c.Compute(float64(r * 5))
	c.AllreduceClock()
}

// hashWorld writes everything the pin fixes about one finished world.
func hashWorld(h hash.Hash, w *World) {
	for r, pr := range w.procs {
		fmt.Fprintf(h, "rank %d clock %x ops %d\n", r, math.Float64bits(pr.clock), pr.opCount)
	}
	fmt.Fprintf(h, "traffic %+v\n", w.Traffic())
	b := w.Breakdown()
	cells := make([]Cell, 0, len(b.Cells))
	for k := range b.Cells {
		cells = append(cells, k)
	}
	sort.Slice(cells, func(i, j int) bool {
		x, y := cells[i], cells[j]
		if x.Phase != y.Phase {
			return x.Phase < y.Phase
		}
		if x.Coll != y.Coll {
			return x.Coll < y.Coll
		}
		return x.Algo < y.Algo
	})
	for _, k := range cells {
		s := b.Cells[k]
		fmt.Fprintf(h, "cell %q %s %q calls %d msgs %d bytes %d comm %x comp %x\n",
			k.Phase, k.Coll, k.Algo, s.Calls, s.Msgs, s.Bytes,
			math.Float64bits(s.CommTime), math.Float64bits(s.CompTime))
	}
	enc := w.EncodingByPhase()
	phases := make([]string, 0, len(enc))
	for ph := range enc {
		phases = append(phases, ph)
	}
	sort.Strings(phases)
	for _, ph := range phases {
		fmt.Fprintf(h, "enc %q %+v\n", ph, enc[ph])
	}
	for _, e := range w.Events() {
		fmt.Fprintf(h, "event %d %d %s %q %s %s %d %d %x %x\n", e.Rank, e.Seq, e.Comm, e.Phase, e.Coll, e.Algo,
			e.Tag, e.Bytes, math.Float64bits(e.Start), math.Float64bits(e.End))
	}
}

// TestCollectiveSchedulePin fixes the modeled cost of every collective
// schedule, not just its values: per-rank clock bits and operation
// counts, Traffic, the sorted Breakdown cells, EncodingByPhase and the
// trace events of one program that runs every collective of the package
// (dense, adaptive-sparse, zero-byte clock and opaque-payload) under
// every algorithm configuration, hashed per (topology, allreduce
// algorithm). Any change to a message's source, destination, tag, order,
// byte bill or reduction charge moves a hash.
func TestCollectiveSchedulePin(t *testing.T) {
	want := map[string]string{
		"hypercube/default":   "6cfd4a9e3dfd8bfdc81ecd7568dfa01d3fdc4a4e71ce7e481e83274025512b0f",
		"hypercube/auto":      "6cfd4a9e3dfd8bfdc81ecd7568dfa01d3fdc4a4e71ce7e481e83274025512b0f",
		"hypercube/rdbl":      "6cfd4a9e3dfd8bfdc81ecd7568dfa01d3fdc4a4e71ce7e481e83274025512b0f",
		"hypercube/ring":      "658a7330868ea19000fb147c5304d0839a98d1e8d66e6475346b9a20ef992ab1",
		"hypercube/rhd":       "cb661fc783d964689e1d5ae5b778585451b7d174b17ffcedd006ffbeac8da640",
		"hypercube/red+bcast": "ec10ff3e01321cc515e7b9ba40a59627c96181e2d0b932c835d0e13caf932a9a",
		"torus/default":       "14d6704bc9c9647c78711af6e184edc6c5b34f5492151e4d5ff7548a54df0793",
		"torus/auto":          "14d6704bc9c9647c78711af6e184edc6c5b34f5492151e4d5ff7548a54df0793",
		"torus/rdbl":          "14d6704bc9c9647c78711af6e184edc6c5b34f5492151e4d5ff7548a54df0793",
		"torus/ring":          "5f7b71dae9a5e78b9ba9a82650c12f94b61647a72baf96a8ceb1686e72c9ac93",
		"torus/rhd":           "2c112130f8353a74065c833c925a43981a7cdc533e1bc86e31557cbf733ce948",
		"torus/red+bcast":     "a0f90f8f0b0821d5d1b7802ce2182641f567206718f72a760b74a9b2b45f5ed0",
	}
	for _, topo := range []struct {
		name string
		m    Machine
	}{
		{"hypercube", SP2()},
		{"torus", SP2().WithHopLatency(2e-6)},
	} {
		for _, ar := range []Algo{AlgoDefault, AlgoAuto, AlgoRecDoubling, AlgoRing, AlgoRecHalving, AlgoReduceBcast} {
			name := topo.name + "/" + string(ar)
			t.Run(name, func(t *testing.T) {
				h := sha256.New()
				for _, bc := range []Algo{AlgoBinomial, AlgoScatterAllgather} {
					for _, ag := range []Algo{AlgoRing, AlgoGatherBcast} {
						for _, p := range []int{2, 3, 4, 5, 6, 8, 12} {
							tp, err := NewTopology(topo.name, p)
							if err != nil {
								t.Fatal(err)
							}
							w := NewWorld(p, topo.m)
							w.SetTopology(tp)
							w.SetCollConfig(CollConfig{Allreduce: ar, Bcast: bc, Allgather: ag})
							w.EnableTrace()
							w.Run(schedulePinProgram)
							fmt.Fprintf(h, "== bcast %s allgather %s p %d\n", bc, ag, p)
							hashWorld(h, w)
						}
					}
				}
				if got := hex.EncodeToString(h.Sum(nil)); got != want[name] {
					t.Errorf("sha256 %s, pinned %s", got, want[name])
				}
			})
		}
	}
}
