package mp

import (
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

func TestTopologyHops(t *testing.T) {
	cases := []struct {
		topo           Topology
		src, dst, want int
	}{
		{NewHypercube(8), 0, 0, 0},
		{NewHypercube(8), 0, 7, 3}, // Hamming distance of 000↔111
		{NewHypercube(8), 5, 6, 2}, // 101↔110
		{NewHypercube(6), 0, 5, 2}, // non-pow2 still prices by Hamming
		{NewFlatSwitched(8), 0, 7, 1},
		{NewFlatSwitched(8), 3, 3, 0},
		{NewRing(8), 0, 7, 1}, // wraparound
		{NewRing(8), 0, 4, 4}, // diameter
		{NewRing(5), 1, 4, 2},
		{NewTorus2D(16), 0, 15, 2}, // 4×4: (0,0)↔(3,3) with wrap = 1+1
		{NewTorus2D(16), 0, 10, 4}, // (0,0)↔(2,2) = 2+2
		{NewTorus2D(12), 0, 11, 2}, // 4×3 near-square: (0,0)↔(3,2) wrap = 1+1
		{NewFatTree(16), 0, 1, 2},  // same leaf switch (arity 4): up+down
		{NewFatTree(16), 0, 4, 4},  // sibling leaves
		{NewFatTree(16), 0, 15, 4}, // 16 = one level-2 switch
		{NewFatTree(64), 0, 63, 6}, // needs the third level
	}
	for _, tc := range cases {
		if got := tc.topo.Hops(tc.src, tc.dst); got != tc.want {
			t.Errorf("%s(%d): Hops(%d,%d) = %d, want %d",
				tc.topo.Name(), tc.topo.Size(), tc.src, tc.dst, got, tc.want)
		}
		if sym := tc.topo.Hops(tc.dst, tc.src); sym != tc.topo.Hops(tc.src, tc.dst) {
			t.Errorf("%s: Hops not symmetric for (%d,%d)", tc.topo.Name(), tc.src, tc.dst)
		}
	}
}

func TestTorusDims(t *testing.T) {
	for _, tc := range []struct{ p, rows, cols int }{
		{16, 4, 4}, {12, 3, 4}, {6, 2, 3}, {7, 1, 7}, {1, 1, 1},
	} {
		tor := NewTorus2D(tc.p)
		r, c := tor.Dims()
		if r*c != tc.p || r != tc.rows || c != tc.cols {
			t.Errorf("Torus2D(%d): dims %d×%d, want %d×%d", tc.p, r, c, tc.rows, tc.cols)
		}
	}
}

func TestNewTopologyNames(t *testing.T) {
	for _, name := range TopologyNames() {
		topo, err := NewTopology(name, 8)
		if err != nil || topo.Name() != name || topo.Size() != 8 {
			t.Errorf("NewTopology(%q, 8) = %v, %v", name, topo, err)
		}
	}
	if topo, err := NewTopology("", 4); err != nil || topo.Name() != "hypercube" {
		t.Errorf("empty topology name must default to hypercube, got %v, %v", topo, err)
	}
	if _, err := NewTopology("moebius", 4); err == nil {
		t.Error("unknown topology name must error")
	}
}

// TestHopLatencyPricing: with TH > 0 a send pays TH per hop on the
// world's topology; with TH = 0 (the default) every topology prices
// identically to the historic flat cost.
func TestHopLatencyPricing(t *testing.T) {
	const th = 1e-5
	run := func(topo string, m Machine) float64 {
		w := NewWorld(8, m)
		tp, err := NewTopology(topo, 8)
		if err != nil {
			t.Fatal(err)
		}
		w.SetTopology(tp)
		w.Run(func(c *Comm) {
			if c.Rank() == 0 {
				c.Send(7, 1, nil, 100)
			} else if c.Rank() == 7 {
				c.Recv(0, 1)
			}
		})
		return w.Clock(0)
	}
	base := SP2().SendCost(100)
	if got := run("hypercube", SP2().WithHopLatency(th)); math.Abs(got-(base+3*th)) > 1e-18 {
		t.Errorf("hypercube 0→7 with t_h: clock %v, want %v", got, base+3*th)
	}
	if got := run("flat", SP2().WithHopLatency(th)); math.Abs(got-(base+th)) > 1e-18 {
		t.Errorf("flat 0→7 with t_h: clock %v, want %v", got, base+th)
	}
	for _, topo := range TopologyNames() {
		if got := run(topo, SP2()); got != base {
			t.Errorf("%s with t_h=0: clock %v, want flat %v", topo, got, base)
		}
	}
}

func TestSetTopologyValidates(t *testing.T) {
	w := NewWorld(4, SP2())
	mustPanic(t, func() { w.SetTopology(nil) })
	mustPanic(t, func() { w.SetTopology(NewRing(8)) })
	w.SetTopology(NewRing(4))
	w.Reset()
	if w.Topology().Name() != "ring" {
		t.Error("Reset must preserve the topology")
	}
}

func TestSetCollConfigValidates(t *testing.T) {
	w := NewWorld(4, SP2())
	mustPanic(t, func() { w.SetCollConfig(CollConfig{Allreduce: "bogus"}) })
	mustPanic(t, func() { w.SetCollConfig(CollConfig{Bcast: AlgoRing}) })
	w.SetCollConfig(CollConfig{Allreduce: AlgoRing, Allgather: AlgoGatherBcast})
	w.Reset()
	if w.CollConfig().Allreduce != AlgoRing {
		t.Error("Reset must preserve the collective config")
	}
}

func TestParseCollSpec(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want CollConfig
		ok   bool
	}{
		{"", CollConfig{}, true},
		{"default", CollConfig{}, true},
		{"ring", CollConfig{Allreduce: AlgoRing}, true},
		{"auto", CollConfig{Allreduce: AlgoAuto, Bcast: AlgoAuto}, true},
		{"allreduce=rhd,bcast=scatter-ag", CollConfig{Allreduce: AlgoRecHalving, Bcast: AlgoScatterAllgather}, true},
		{"allgather=gather+bcast", CollConfig{Allgather: AlgoGatherBcast}, true},
		{"bogus", CollConfig{}, false},
		{"barrier=ring", CollConfig{}, false},
		{"allreduce=scatter-ag", CollConfig{}, false},
	} {
		got, err := ParseCollSpec(tc.spec)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseCollSpec(%q) = %+v, %v; want %+v, ok=%v", tc.spec, got, err, tc.want, tc.ok)
		}
	}
}

// --- satellite 1: Bcast must panic on a receive-buffer length mismatch
// instead of silently truncating and forwarding corrupted data.

func TestBcastLengthMismatchPanics(t *testing.T) {
	w := NewWorld(4, SP2())
	defer func() {
		e := recover()
		if e == nil {
			t.Fatal("Bcast with a short non-root buffer must panic")
		}
		if !strings.Contains(strings.ToLower(mustString(e)), "length mismatch") {
			t.Fatalf("unexpected panic: %v", e)
		}
	}()
	w.Run(func(c *Comm) {
		n := 16
		if c.Rank() == 2 {
			n = 8 // too short: would silently truncate before the fix
		}
		x := make([]int64, n)
		Bcast(c, x, 0)
	})
}

func mustString(e any) string {
	if s, ok := e.(string); ok {
		return s
	}
	if err, ok := e.(error); ok {
		return err.Error()
	}
	return ""
}

// --- satellite 3: empty contributions ride the Allgatherv ring as nil
// payloads — no framing needed, ordering and accounting intact.

func TestAllgathervEmptyContributions(t *testing.T) {
	const p = 5
	for _, algo := range []Algo{AlgoDefault, AlgoRing, AlgoGatherBcast} {
		w := NewWorld(p, SP2())
		w.SetCollConfig(CollConfig{Allgather: algo})
		got := make([][]int64, p)
		w.Run(func(c *Comm) {
			var x []int64 // ranks 0, 2 and 4 contribute nothing
			if c.Rank()%2 == 1 {
				x = []int64{int64(c.Rank()), int64(c.Rank() * 10)}
			}
			got[c.Rank()] = Allgatherv(c, 0, x)
		})
		want := []int64{1, 10, 3, 30}
		for r := 0; r < p; r++ {
			if !reflect.DeepEqual(got[r], want) {
				t.Fatalf("algo %s rank %d: %v, want %v", algo, r, got[r], want)
			}
		}
		if algo == AlgoRing || algo == AlgoDefault {
			// The ring always moves p·(p−1) messages — empty blocks still
			// occupy their slot — and total bytes are (p−1)·Σ contributions
			// (each byte traverses p−1 links).
			tr := w.Traffic()
			if tr.Msgs != p*(p-1) {
				t.Errorf("algo %s: %d messages, want %d", algo, tr.Msgs, p*(p-1))
			}
			if want := int64((p - 1) * 2 * 2 * 8); tr.Bytes != want {
				t.Errorf("algo %s: %d bytes, want %d", algo, tr.Bytes, want)
			}
		}
	}
}

// --- satellite 2: encoding-stats leg attribution at P=6. Every rank's
// contribution is dense (all elements nonzero), but the reduced total is
// all zeros — so every reduce-leg message must count dense and every
// broadcast-leg message sparse, and no flush may be classified sparse.
// Before the fix the broadcast leg's sparse sends flipped three flushes
// to "sparse" even though no rank ever sent sparse partials.
func TestAllreduceSumLegAttribution(t *testing.T) {
	const p, n = 6, 8
	w := NewWorld(p, SP2())
	out := make([][]int64, p)
	w.Run(func(c *Comm) {
		x := make([]int64, n)
		wgt := int64(-1)
		if c.Rank() == 0 {
			wgt = 5 // Σ over the 6 ranks = 0 in every element
		}
		for i := range x {
			x[i] = wgt
		}
		AllreduceSum(c, x, 0.5)
		out[c.Rank()] = x
	})
	for r := 0; r < p; r++ {
		if !reflect.DeepEqual(out[r], make([]int64, n)) {
			t.Fatalf("rank %d: total %v, want all-zero", r, out[r])
		}
	}
	e := w.EncodingByPhase()[""]
	want := EncodingStats{
		// Non-power-of-two default path: binomial reduce (ranks 1..5 each
		// send one dense partial) + binomial broadcast (5 messages of the
		// all-zero total, all sparse with zero pairs).
		DenseFlushes:    p, // no rank sent a sparse partial
		SparseFlushes:   0,
		DenseMsgs:       p - 1,
		SparseMsgs:      0,
		BcastDenseMsgs:  0,
		BcastSparseMsgs: p - 1,
		SentBytes:       (p - 1) * n * 8, // reduce leg dense; bcast leg 0 pairs = 0 bytes
		DenseBytes:      2 * (p - 1) * n * 8,
	}
	if e != want {
		t.Fatalf("encoding stats %+v, want %+v", e, want)
	}
}

// --- algorithm selection ---

func TestResolveAllreduceAlgo(t *testing.T) {
	m := SP2()
	if a := ResolveAllreduceAlgo(AlgoDefault, nil, 8, 8, m); a != AlgoRecDoubling {
		t.Errorf("default at pow2 = %s", a)
	}
	if a := ResolveAllreduceAlgo("", nil, 6, 8, m); a != AlgoReduceBcast {
		t.Errorf("default at p=6 = %s", a)
	}
	for _, cfg := range []Algo{AlgoRecDoubling, AlgoRecHalving} {
		if a := ResolveAllreduceAlgo(cfg, nil, 6, 8, m); a != AlgoReduceBcast {
			t.Errorf("%s at p=6 must fall back to red+bcast, got %s", cfg, a)
		}
	}
	// Auto: tiny messages are latency-bound → recursive doubling; huge
	// messages are bandwidth-bound → halving/doubling on pow2, ring wins
	// only when rhd is infeasible and P·t_s stays small.
	if a := ResolveAllreduceAlgo(AlgoAuto, nil, 8, 1, m); a != AlgoRecDoubling {
		t.Errorf("auto small message = %s, want rdbl", a)
	}
	if a := ResolveAllreduceAlgo(AlgoAuto, nil, 8, 1<<17, m); a != AlgoRecHalving {
		t.Errorf("auto 1MB pow2 = %s, want rhd", a)
	}
	if a := ResolveAllreduceAlgo(AlgoAuto, nil, 6, 1<<19, m); a != AlgoRing {
		t.Errorf("auto 4MB p=6 = %s, want ring", a)
	}
	if a := ResolveAllreduceAlgo(AlgoAuto, nil, 6, 1, m); a != AlgoReduceBcast {
		t.Errorf("auto small message p=6 = %s, want red+bcast", a)
	}
}

// TestAutoPicksCheapest: auto resolves to an algorithm whose fold — the
// clock the live collective is billed on, reduction arithmetic and hops
// included — is no dearer than any feasible explicit algorithm's, for the
// allreduce and for the broadcast from root 0 and from a non-zero root.
func TestAutoPicksCheapest(t *testing.T) {
	for _, m := range []Machine{SP2(), SP2().WithHopLatency(1e-5)} {
		for _, name := range TopologyNames() {
			for _, p := range []int{2, 3, 4, 5, 6, 8, 12, 64} {
				topo, err := NewTopology(name, p)
				if err != nil {
					t.Fatal(err)
				}
				for _, n := range []int{1, 4096, 1 << 19} {
					got := ResolveAllreduceAlgo(AlgoAuto, topo, p, n, m)
					auto := ModelAllreduce(got, topo, p, n, m)
					for _, a := range []Algo{AlgoRecDoubling, AlgoRing, AlgoRecHalving, AlgoReduceBcast} {
						if runnable(a, p) != a {
							continue
						}
						if c := ModelAllreduce(a, topo, p, n, m); auto > c {
							t.Errorf("t_h=%g %s p=%d n=%d: allreduce auto picks %s (%g s), %s costs %g s",
								m.TH, name, p, n, got, auto, a, c)
						}
					}
					for _, root := range []int{0, p - 1} {
						got := resolveBcastAlgo(AlgoAuto, p, root, n, 8, topo.Hops, m)
						auto := bcastSchedule(p, root, n, got == AlgoScatterAllgather).cost(8, topo.Hops, m)
						for _, scatterAG := range []bool{false, true} {
							if c := bcastSchedule(p, root, n, scatterAG).cost(8, topo.Hops, m); auto > c {
								t.Errorf("t_h=%g %s p=%d n=%d root %d: bcast auto picks %s (%g s), scatterAG=%v costs %g s",
									m.TH, name, p, n, root, got, auto, scatterAG, c)
							}
						}
					}
				}
			}
		}
	}
}

// TestAllreduceCostEstimateDefault pins the hybrid split trigger's
// estimate: under the default configuration it is the legacy Equation 2
// formula — ⌈log₂P⌉·(t_s+t_w·B) — even for non-power-of-two worlds.
func TestAllreduceCostEstimateDefault(t *testing.T) {
	for _, p := range []int{2, 3, 4, 6, 8} {
		w := NewWorld(p, SP2())
		w.Run(func(c *Comm) {
			want := c.Machine().SendCost(800) * float64(ceilLog2(p))
			if got := c.AllreduceCostEstimate(800); got != want {
				t.Errorf("p=%d: estimate %v, want %v", p, got, want)
			}
		})
	}
	w := NewWorld(6, SP2())
	w.SetCollConfig(CollConfig{Allreduce: AlgoRing})
	w.Run(func(c *Comm) {
		want := ModelAllreduce(AlgoRing, nil, 6, 100, c.Machine())
		if got := c.AllreduceCostEstimate(800); got != want {
			t.Errorf("ring estimate %v, want %v", got, want)
		}
	})
}

// --- correctness matrix: every collective algorithm on every topology
// must produce identical values for every world size (topologies can only
// change modeled time, never data). ---

func TestCollectiveMatrix(t *testing.T) {
	sizes := []int{1, 2, 3, 4, 5, 6, 7, 8, 12}
	arAlgos := []Algo{AlgoDefault, AlgoAuto, AlgoRecDoubling, AlgoRing, AlgoRecHalving, AlgoReduceBcast}
	bcAlgos := []Algo{AlgoDefault, AlgoAuto, AlgoBinomial, AlgoScatterAllgather}
	agAlgos := []Algo{AlgoDefault, AlgoRing, AlgoGatherBcast}
	topoNames := TopologyNames()
	// The CI matrix shards this sweep one (topology, allreduce algo) pair
	// per job; unset, the full cross product runs.
	if env := os.Getenv("MP_TEST_TOPOLOGY"); env != "" {
		topoNames = []string{env}
	}
	if env := os.Getenv("MP_TEST_COLL_ALGO"); env != "" {
		arAlgos = []Algo{Algo(env)}
	}
	for _, topoName := range topoNames {
		for i := 0; i < len(arAlgos) || i < len(bcAlgos) || i < len(agAlgos); i++ {
			cfg := CollConfig{
				Allreduce: arAlgos[i%len(arAlgos)],
				Bcast:     bcAlgos[i%len(bcAlgos)],
				Allgather: agAlgos[i%len(agAlgos)],
			}
			for _, p := range sizes {
				runCollectiveSuite(t, p, topoName, cfg)
			}
		}
	}
}

func runCollectiveSuite(t *testing.T, p int, topoName string, cfg CollConfig) {
	t.Helper()
	m := SP2().WithHopLatency(2e-6)
	w := NewWorld(p, m)
	topo, err := NewTopology(topoName, p)
	if err != nil {
		t.Fatal(err)
	}
	w.SetTopology(topo)
	w.SetCollConfig(cfg)
	const n = 23 // deliberately not divisible by the sizes: uneven ring chunks
	sum := make([][]int64, p)
	mn := make([][]float64, p)
	bc := make([][]int64, p)
	ag := make([][]int64, p)
	adp := make([][]int64, p)
	w.Run(func(c *Comm) {
		r := c.Rank()
		x := make([]int64, n)
		for i := range x {
			x[i] = int64(r*100 + i)
		}
		Allreduce(c, x, Sum)
		sum[r] = x

		f := make([]float64, 5)
		for i := range f {
			f[i] = float64((r+i)%p) + 0.5
		}
		Allreduce(c, f, Min)
		mn[r] = f

		b := make([]int64, n)
		if r == p/2 {
			for i := range b {
				b[i] = int64(i * i)
			}
		}
		Bcast(c, b, p/2)
		bc[r] = b

		contrib := make([]int64, r%3)
		for i := range contrib {
			contrib[i] = int64(r*10 + i)
		}
		ag[r] = Allgatherv(c, 1, contrib)

		a := make([]int64, n)
		a[r%n] = int64(r + 1)
		AllreduceSum(c, a, 0.5)
		adp[r] = a
	})
	label := topoName + "/" + string(cfg.Allreduce) + "/" + string(cfg.Bcast) + "/" + string(cfg.Allgather)
	wantSum := make([]int64, n)
	for i := range wantSum {
		for r := 0; r < p; r++ {
			wantSum[i] += int64(r*100 + i)
		}
	}
	wantB := make([]int64, n)
	for i := range wantB {
		wantB[i] = int64(i * i)
	}
	var wantAG []int64
	for r := 0; r < p; r++ {
		for i := 0; i < r%3; i++ {
			wantAG = append(wantAG, int64(r*10+i))
		}
	}
	if wantAG == nil {
		wantAG = []int64{}
	}
	wantAdp := make([]int64, n)
	for r := 0; r < p; r++ {
		wantAdp[r%n] += int64(r + 1)
	}
	for r := 0; r < p; r++ {
		if !reflect.DeepEqual(sum[r], wantSum) {
			t.Fatalf("%s p=%d rank %d: allreduce sum %v, want %v", label, p, r, sum[r], wantSum)
		}
		if !reflect.DeepEqual(mn[r], mn[0]) {
			t.Fatalf("%s p=%d rank %d: allreduce min disagrees across ranks", label, p, r)
		}
		if !reflect.DeepEqual(bc[r], wantB) {
			t.Fatalf("%s p=%d rank %d: bcast %v, want %v", label, p, r, bc[r], wantB)
		}
		gotAG := ag[r]
		if gotAG == nil {
			gotAG = []int64{}
		}
		if !reflect.DeepEqual(gotAG, wantAG) {
			t.Fatalf("%s p=%d rank %d: allgatherv %v, want %v", label, p, r, gotAG, wantAG)
		}
		if !reflect.DeepEqual(adp[r], wantAdp) {
			t.Fatalf("%s p=%d rank %d: adaptive allreduce %v, want %v", label, p, r, adp[r], wantAdp)
		}
	}
}

// TestAllreduceAlgoBreakdownLabels: the configured algorithm must be
// visible in the breakdown's algo dimension.
func TestAllreduceAlgoBreakdownLabels(t *testing.T) {
	for _, tc := range []struct {
		p    int
		cfg  Algo
		want Algo
	}{
		{4, AlgoDefault, AlgoRecDoubling},
		{6, AlgoDefault, AlgoReduceBcast},
		{4, AlgoRing, AlgoRing},
		{4, AlgoRecHalving, AlgoRecHalving},
		{6, AlgoRecHalving, AlgoReduceBcast}, // non-pow2 fallback is what actually ran
	} {
		w := NewWorld(tc.p, SP2())
		w.SetCollConfig(CollConfig{Allreduce: tc.cfg})
		w.Run(func(c *Comm) {
			x := make([]int64, 32)
			x[c.Rank()] = 1
			Allreduce(c, x, Sum)
		})
		b := w.Breakdown()
		if got := b.CollAlgo(CollAllreduce, tc.want); got.Calls != int64(tc.p) {
			t.Errorf("p=%d cfg=%s: algo %q cell has %d calls, want %d (algos present: %v)",
				tc.p, tc.cfg, tc.want, got.Calls, tc.p, b.Algos(CollAllreduce))
		}
		if got := b.Coll(CollAllreduce); got.Calls != int64(tc.p) {
			t.Errorf("p=%d cfg=%s: coll total %d calls, want %d", tc.p, tc.cfg, got.Calls, tc.p)
		}
	}
}

// TestModelAllreduceMatchesWorld: the fold over the step tables must
// reproduce the live substrate's modeled completion time exactly — same
// additions in the same order per rank — including empty chunks and
// zero-byte sends (elems < p).
func TestModelAllreduceMatchesWorld(t *testing.T) {
	for _, elems := range []int{0, 1, 3, 37} {
		for _, p := range []int{2, 3, 4, 5, 6, 8, 12, 16, 24, 32} {
			for _, topoName := range []string{"hypercube", "flat", "ring", "torus", "fattree"} {
				for _, algo := range []Algo{AlgoRecDoubling, AlgoRing, AlgoRecHalving, AlgoReduceBcast} {
					m := SP2().WithHopLatency(3e-6)
					topo, err := NewTopology(topoName, p)
					if err != nil {
						t.Fatal(err)
					}
					w := NewWorld(p, m)
					w.SetTopology(topo)
					w.SetCollConfig(CollConfig{Allreduce: algo})
					w.Run(func(c *Comm) {
						x := make([]int64, elems)
						if elems > 0 {
							x[c.Rank()%elems] = 1
						}
						Allreduce(c, x, Sum)
					})
					resolved := ResolveAllreduceAlgo(algo, topo, p, elems, m)
					got := ModelAllreduce(resolved, topo, p, elems, m)
					if want := w.MaxClock(); math.Abs(got-want) > 1e-15*math.Max(1, math.Abs(want)) {
						t.Errorf("p=%d elems=%d %s %s: model %v, world %v", p, elems, topoName, algo, got, want)
					}
				}
			}
		}
	}
}

// TestDefaultConfigBitIdentical: a world with an explicitly-set hypercube
// topology and all-default collective config must produce clocks, traffic
// and breakdowns bit-identical to an untouched world.
func TestDefaultConfigBitIdentical(t *testing.T) {
	prog := func(c *Comm) {
		c.BeginPhase("x")
		x := make([]int64, 50)
		x[c.Rank()] = int64(c.Rank() + 1)
		Allreduce(c, x, Sum)
		AllreduceSum(c, x, 0.4)
		y := make([]int64, 7)
		Bcast(c, y, 0)
		Allgatherv(c, 2, []int64{int64(c.Rank())})
		c.Barrier()
		c.AllreduceClock()
		c.EndPhase()
	}
	for _, p := range []int{3, 4, 6, 8} {
		w1 := NewWorld(p, SP2())
		w1.Run(prog)
		w2 := NewWorld(p, SP2())
		w2.SetTopology(NewHypercube(p))
		w2.SetCollConfig(CollConfig{Allreduce: AlgoDefault, Bcast: AlgoDefault, Allgather: AlgoDefault})
		w2.Run(prog)
		if w1.MaxClock() != w2.MaxClock() {
			t.Fatalf("p=%d: clocks differ: %v vs %v", p, w1.MaxClock(), w2.MaxClock())
		}
		if !reflect.DeepEqual(w1.Traffic(), w2.Traffic()) {
			t.Fatalf("p=%d: traffic differs", p)
		}
		if !reflect.DeepEqual(w1.Breakdown(), w2.Breakdown()) {
			t.Fatalf("p=%d: breakdowns differ", p)
		}
		if !reflect.DeepEqual(w1.EncodingByPhase(), w2.EncodingByPhase()) {
			t.Fatalf("p=%d: encoding stats differ", p)
		}
	}
}
