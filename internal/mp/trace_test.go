package mp

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// named element types, admitted by the ~byte/~int32 constraint terms: the
// elemBytes regression of the observability PR (a type-switch on any(z)
// missed these and billed 8 bytes/element).
type kb byte
type ki32 int32
type ki64 int64
type kf64 float64

func TestElemBytesNamedTypes(t *testing.T) {
	cases := map[string][2]int{
		"byte":    {elemBytes[byte](), 1},
		"kb":      {elemBytes[kb](), 1},
		"int32":   {elemBytes[int32](), 4},
		"ki32":    {elemBytes[ki32](), 4},
		"int64":   {elemBytes[int64](), 8},
		"ki64":    {elemBytes[ki64](), 8},
		"float64": {elemBytes[float64](), 8},
		"kf64":    {elemBytes[kf64](), 8},
	}
	for name, c := range cases {
		if c[0] != c[1] {
			t.Errorf("elemBytes[%s] = %d, want %d", name, c[0], c[1])
		}
	}
}

// TestNamedTypeWireSize drives the billing end to end: sending a []kb
// must charge 1 byte/element on the modeled wire, not 8.
func TestNamedTypeWireSize(t *testing.T) {
	w := NewWorld(2, SP2())
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			SendSlice(c, 1, 3, make([]kb, 10))
		} else {
			RecvSlice[kb](c, 0, 3)
		}
	})
	if tr := w.Traffic(); tr.Bytes != 10 {
		t.Fatalf("10 named-byte elements billed as %d bytes, want 10", tr.Bytes)
	}
}

// TestAllreduceClockZeroBytes: the clock synchronization must transfer no
// modeled data volume — only startup latencies — while still aligning
// every rank's clock to at least the maximum at entry.
func TestAllreduceClockZeroBytes(t *testing.T) {
	m := Machine{TS: 1e-3, TW: 1e3, TC: 1, TOp: 1} // any stray byte would explode the clock
	for _, p := range []int{2, 3, 4, 5, 7, 8, 16} {
		w := NewWorld(p, m)
		w.Run(func(c *Comm) {
			c.AllreduceClock()
		})
		tr := w.Traffic()
		if tr.Bytes != 0 {
			t.Fatalf("p=%d: AllreduceClock transferred %d modeled bytes, want 0", p, tr.Bytes)
		}
		if tr.Msgs == 0 {
			t.Fatalf("p=%d: no synchronization messages at all", p)
		}
		if tr.CompTime != 0 {
			t.Fatalf("p=%d: AllreduceClock charged %g compute seconds", p, tr.CompTime)
		}
	}
}

// TestAllreduceClockCostAndAlignment pins the exact power-of-two cost
// (log₂P rounds of t_s with simultaneous entry, log₂P messages per rank)
// and the alignment guarantee under staggered entry clocks.
func TestAllreduceClockCostAndAlignment(t *testing.T) {
	m := Machine{TS: 1e-3, TW: 1e3, TC: 1}
	const p = 8
	w := NewWorld(p, m)
	w.Run(func(c *Comm) {
		c.AllreduceClock()
		want := 3e-3 // log2(8) rounds of t_s
		if d := c.Clock() - want; math.Abs(d) > 1e-12 {
			t.Errorf("rank %d: clock %.9f after AllreduceClock, want %.9f", c.Rank(), c.Clock(), want)
		}
	})
	if tr := w.Traffic(); tr.Msgs != p*3 {
		t.Fatalf("%d messages, want %d (log2(%d) per rank)", tr.Msgs, p*3, p)
	}

	// Staggered entry: every rank must end at or above the slowest entry.
	w = NewWorld(4, m)
	w.Run(func(c *Comm) {
		c.Compute(float64(c.Rank()) * 1e-3 / m.TC)
		c.AllreduceClock()
		if c.Clock() < 3e-3 {
			t.Errorf("rank %d: clock %.9f below slowest entry 3e-3", c.Rank(), c.Clock())
		}
	})
}

// traceProgram is a little SPMD program exercising phases, collectives
// and point-to-point traffic.
func traceProgram(c *Comm) {
	c.BeginPhase("alpha")
	x := []int64{int64(c.Rank())}
	Allreduce(c, x, Sum)
	c.EndPhase()
	c.BeginPhase("beta")
	c.Compute(1000)
	Allgatherv(c, 9, []int64{1, 2})
	c.EndPhase()
	if c.Rank() == 0 {
		c.Send(1, 4, nil, 64)
	} else if c.Rank() == 1 {
		c.Recv(0, 4)
	}
}

// TestBreakdownSumsMatchTraffic: the per-phase × per-collective cells
// must sum to exactly the aggregate counters and (within float summation
// order) the aggregate comm/comp times.
func TestBreakdownSumsMatchTraffic(t *testing.T) {
	w := NewWorld(4, SP2())
	w.Run(traceProgram)
	tr := w.Traffic()
	total := w.Breakdown().Total()
	if total.Msgs != tr.Msgs || total.Bytes != tr.Bytes {
		t.Fatalf("breakdown msgs/bytes %d/%d, traffic %d/%d", total.Msgs, total.Bytes, tr.Msgs, tr.Bytes)
	}
	if math.Abs(total.CommTime-tr.CommTime) > 1e-12 {
		t.Fatalf("breakdown comm %.12f, traffic %.12f", total.CommTime, tr.CommTime)
	}
	if math.Abs(total.CompTime-tr.CompTime) > 1e-12 {
		t.Fatalf("breakdown comp %.12f, traffic %.12f", total.CompTime, tr.CompTime)
	}
	// Per-rank as well.
	for r := 0; r < w.Size(); r++ {
		rt, rb := w.RankTraffic(r), w.RankBreakdown(r).Total()
		if rb.Msgs != rt.Msgs || rb.Bytes != rt.Bytes ||
			math.Abs(rb.CommTime-rt.CommTime) > 1e-12 || math.Abs(rb.CompTime-rt.CompTime) > 1e-12 {
			t.Fatalf("rank %d: breakdown %+v vs traffic %+v", r, rb, rt)
		}
	}
}

// TestPhaseAndCollectiveAttribution pins where the charges land.
func TestPhaseAndCollectiveAttribution(t *testing.T) {
	const p = 4
	w := NewWorld(p, SP2())
	w.Run(traceProgram)
	b := w.Breakdown()

	if got := b.Coll(CollAllreduce).Calls; got != p {
		t.Errorf("allreduce calls = %d, want %d (one per rank)", got, p)
	}
	if got := b.Coll(CollAllgather).Calls; got != p {
		t.Errorf("allgather calls = %d, want %d", got, p)
	}
	alpha := b.Phase("alpha")
	if alpha.CommTime <= 0 || alpha.Msgs == 0 {
		t.Errorf("phase alpha saw no communication: %+v", alpha)
	}
	if cs := b.Cells[Cell{"alpha", CollAllreduce, AlgoRecDoubling}]; cs.Msgs != alpha.Msgs {
		t.Errorf("alpha's traffic not attributed to allreduce: %+v vs %+v", cs, alpha)
	}
	beta := b.Phase("beta")
	if beta.CompTime <= 0 {
		t.Errorf("phase beta saw no computation: %+v", beta)
	}
	// The lone send/recv outside any phase lands in ("", p2p).
	p2p := b.Cells[Cell{"", CollP2P, ""}]
	if p2p.Msgs != 1 || p2p.Bytes != 64 {
		t.Errorf("unphased p2p cell %+v, want 1 msg / 64 bytes", p2p)
	}
}

// TestTraceInvariance: enabling tracing must not change clocks, traffic
// or breakdowns — the central invariant of the observability layer.
func TestTraceInvariance(t *testing.T) {
	run := func(trace bool) (*World, []float64) {
		w := NewWorld(5, SP2())
		if trace {
			w.EnableTrace()
		}
		w.Run(traceProgram)
		clocks := make([]float64, w.Size())
		for r := range clocks {
			clocks[r] = w.Clock(r)
		}
		return w, clocks
	}
	wOff, cOff := run(false)
	wOn, cOn := run(true)
	if !reflect.DeepEqual(cOff, cOn) {
		t.Fatalf("tracing changed modeled clocks: %v vs %v", cOff, cOn)
	}
	if wOff.Traffic() != wOn.Traffic() {
		t.Fatalf("tracing changed traffic: %+v vs %+v", wOff.Traffic(), wOn.Traffic())
	}
	if !reflect.DeepEqual(wOff.Breakdown(), wOn.Breakdown()) {
		t.Fatalf("tracing changed the breakdown")
	}
	if len(wOff.Events()) != 0 {
		t.Fatalf("events recorded without EnableTrace")
	}
	if len(wOn.Events()) == 0 {
		t.Fatalf("no events recorded with EnableTrace")
	}
}

// TestTraceEventsDeterministicAndWellFormed: two traced runs of the same
// program produce identical, time-ordered, sane event timelines.
func TestTraceEventsDeterministicAndWellFormed(t *testing.T) {
	run := func() []TraceEvent {
		w := NewWorld(4, SP2())
		w.EnableTrace()
		w.Run(traceProgram)
		return w.Events()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("event timelines differ across identical runs")
	}
	for i, e := range a {
		if e.End < e.Start {
			t.Fatalf("event %d ends before it starts: %+v", i, e)
		}
		if e.Coll == "" || e.Rank < 0 || e.Rank >= 4 {
			t.Fatalf("malformed event %d: %+v", i, e)
		}
		if i > 0 && a[i].Start < a[i-1].Start {
			t.Fatalf("events not ordered by start clock at %d", i)
		}
	}
}

// TestBreakdownTable smoke-checks the rendered table.
func TestBreakdownTable(t *testing.T) {
	w := NewWorld(4, SP2())
	w.Run(traceProgram)
	table := w.Breakdown().Table()
	for _, want := range []string{"phase", "alpha", "beta", "(none)", "allreduce", "allgather", "p2p", "total", "collective"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}

// TestResetClearsObservability: Reset must drop cells and events too.
func TestResetClearsObservability(t *testing.T) {
	w := NewWorld(2, SP2())
	w.EnableTrace()
	w.Run(traceProgram)
	if len(w.Events()) == 0 || len(w.Breakdown().Cells) == 0 {
		t.Fatal("expected observability data before reset")
	}
	w.Reset()
	if len(w.Events()) != 0 {
		t.Fatalf("%d events survived Reset", len(w.Events()))
	}
	if total := w.Breakdown().Total(); total != (CellStats{}) {
		t.Fatalf("breakdown survived Reset: %+v", total)
	}
}

// TestBreakdownTableOrderIndependent: the phase, collective and total
// rows sum cells in sorted order, so cells whose float sum depends on the
// order of addition still render one table.
func TestBreakdownTableOrderIndependent(t *testing.T) {
	b := NewBreakdown()
	b.Cells[Cell{"p", CollAllreduce, "a"}] = CellStats{Calls: 1, CommTime: 1e12}
	for _, a := range []Algo{"b", "c", "d", "e", "f", "g", "h", "i"} {
		b.Cells[Cell{"p", CollAllreduce, a}] = CellStats{Calls: 1, CommTime: 5e-5, CompTime: 5e-5}
	}
	b.Cells[Cell{"p", CollNone, ""}] = CellStats{CompTime: 1e12}
	want := b.Table()
	for i := 0; i < 200; i++ {
		if got := b.Table(); got != want {
			t.Fatalf("call %d rendered a different table:\n%s\nwant:\n%s", i, got, want)
		}
	}
}
