package mp

import (
	"fmt"
	"sort"
	"strings"

	"partree/internal/fault"
)

// This file is the observability layer of the substrate. Every modeled
// charge (clock advance, message, reduction arithmetic) is attributed to
// the rank's current *phase* — an algorithm-level label pushed by the
// builders via Comm.BeginPhase/EndPhase — and to the *collective* being
// executed (or to point-to-point traffic outside any collective). The
// attribution is always on and purely additive: it never touches the
// modeled clocks, so breakdowns are available after every Run at no cost
// to determinism. The per-event timeline is opt-in via World.EnableTrace
// because it allocates per collective call.

// Coll identifies the operation a modeled charge belongs to.
type Coll uint8

// The collective kinds of the package, plus the two non-collective
// buckets: CollNone for local computation and CollP2P for explicit
// Send/Recv traffic outside any collective (e.g. subtree assembly).
const (
	CollNone Coll = iota
	CollP2P
	CollAllreduce
	CollReduce
	CollBcast
	CollGather
	CollAllgather
	CollAlltoall
	CollBarrier
	CollVote
	numColl
)

var collNames = [numColl]string{
	"compute", "p2p", "allreduce", "reduce", "bcast", "gather", "allgather", "alltoall", "barrier", "vote",
}

func (k Coll) String() string {
	if int(k) < len(collNames) {
		return collNames[k]
	}
	return fmt.Sprintf("coll(%d)", int(k))
}

// Colls lists every collective/bucket kind in display order.
func Colls() []Coll {
	out := make([]Coll, numColl)
	for i := range out {
		out[i] = Coll(i)
	}
	return out
}

// Cell addresses one (phase, collective, algorithm) accounting bucket.
// Algo is the concrete algorithm label the collective resolved to (e.g.
// "rdbl", "ring", "red+bcast", "binomial") — "" for computation and
// point-to-point traffic outside any collective.
type Cell struct {
	Phase string
	Coll  Coll
	Algo  Algo
}

// CellStats aggregates the modeled activity of one bucket.
type CellStats struct {
	Calls     int64   // outermost collective invocations (for P2P: sends)
	Msgs      int64   // messages sent
	Bytes     int64   // modeled bytes sent
	CommTime  float64 // modeled seconds sending/receiving (incl. waits)
	CompTime  float64 // modeled seconds of computation
	DiskBytes int64   // bytes moved to/from stable storage (checkpoints)
	DiskTime  float64 // modeled seconds of stable-storage transfer (bytes·t_d)
}

func (s *CellStats) add(o CellStats) {
	s.Calls += o.Calls
	s.Msgs += o.Msgs
	s.Bytes += o.Bytes
	s.CommTime += o.CommTime
	s.CompTime += o.CompTime
	s.DiskBytes += o.DiskBytes
	s.DiskTime += o.DiskTime
}

// Breakdown is a per-phase × per-collective aggregation of modeled
// activity, summed over whatever set of ranks (or runs) produced it.
type Breakdown struct {
	Cells map[Cell]CellStats
}

// NewBreakdown returns an empty breakdown.
func NewBreakdown() Breakdown {
	return Breakdown{Cells: make(map[Cell]CellStats)}
}

// Merge folds another breakdown into b.
func (b Breakdown) Merge(o Breakdown) {
	for k, v := range o.Cells {
		cs := b.Cells[k]
		cs.add(v)
		b.Cells[k] = cs
	}
}

// sum adds the cells that keep selects in sorted Cell order (phase,
// collective, algorithm), so float totals do not depend on map order.
func (b Breakdown) sum(keep func(Cell) bool) CellStats {
	cells := make([]Cell, 0, len(b.Cells))
	for c := range b.Cells {
		if keep(c) {
			cells = append(cells, c)
		}
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
	var out CellStats
	for _, c := range cells {
		out.add(b.Cells[c])
	}
	return out
}

// Coll sums the stats of one collective kind over all phases and
// algorithms.
func (b Breakdown) Coll(k Coll) CellStats {
	return b.sum(func(c Cell) bool { return c.Coll == k })
}

// PhaseColl sums the stats of one (phase, collective) over all
// algorithms.
func (b Breakdown) PhaseColl(phase string, k Coll) CellStats {
	return b.sum(func(c Cell) bool { return c.Phase == phase && c.Coll == k })
}

// CollAlgo sums the stats of one (collective, algorithm) pair over all
// phases.
func (b Breakdown) CollAlgo(k Coll, a Algo) CellStats {
	return b.sum(func(c Cell) bool { return c.Coll == k && c.Algo == a })
}

// Algos returns the algorithm labels recorded for one collective kind,
// sorted.
func (b Breakdown) Algos(k Coll) []Algo {
	seen := map[Algo]bool{}
	for c := range b.Cells {
		if c.Coll == k {
			seen[c.Algo] = true
		}
	}
	out := make([]Algo, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Phase sums the stats of one phase over all collectives.
func (b Breakdown) Phase(name string) CellStats {
	return b.sum(func(c Cell) bool { return c.Phase == name })
}

// Total sums every cell. Its CommTime/CompTime equal the world's
// Traffic() totals (up to float summation order).
func (b Breakdown) Total() CellStats {
	return b.sum(func(Cell) bool { return true })
}

// Phases returns the phase labels present, sorted, the unlabeled phase
// (printed as "(none)") last.
func (b Breakdown) Phases() []string {
	seen := map[string]bool{}
	for c := range b.Cells {
		seen[c.Phase] = true
	}
	var out []string
	for p := range seen {
		if p != "" {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	if seen[""] {
		out = append(out, "")
	}
	return out
}

func phaseLabel(p string) string {
	if p == "" {
		return "(none)"
	}
	return p
}

// Table renders the breakdown as two aligned text tables: the
// per-phase × per-collective modeled communication seconds (plus per-phase
// compute and totals — the comm and comp columns sum to the world's
// CommTime/CompTime), and the per-collective aggregate counters.
func (b Breakdown) Table() string {
	var active []Coll
	for _, k := range Colls() {
		if k == CollNone {
			continue
		}
		s := b.Coll(k)
		if s.Calls != 0 || s.Msgs != 0 || s.CommTime != 0 {
			active = append(active, k)
		}
	}
	// The disk cost class only earns its columns when a durable store was
	// in play; in-memory runs keep the historic table shape.
	disk := b.Total().DiskBytes != 0 || b.Total().DiskTime != 0
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-16s", "phase")
	for _, k := range active {
		fmt.Fprintf(&sb, " %12s", k.String())
	}
	fmt.Fprintf(&sb, " %12s %12s %10s", "comm s", "comp s", "MB")
	if disk {
		fmt.Fprintf(&sb, " %12s %10s", "disk s", "disk MB")
	}
	sb.WriteByte('\n')
	writeRow := func(name string, get func(Coll) CellStats, total CellStats) {
		fmt.Fprintf(&sb, "%-16s", name)
		for _, k := range active {
			fmt.Fprintf(&sb, " %12.6f", get(k).CommTime)
		}
		fmt.Fprintf(&sb, " %12.6f %12.6f %10.3f", total.CommTime, total.CompTime, float64(total.Bytes)/1e6)
		if disk {
			fmt.Fprintf(&sb, " %12.6f %10.3f", total.DiskTime, float64(total.DiskBytes)/1e6)
		}
		sb.WriteByte('\n')
	}
	for _, p := range b.Phases() {
		writeRow(phaseLabel(p), func(k Coll) CellStats { return b.PhaseColl(p, k) }, b.Phase(p))
	}
	writeRow("total", func(k Coll) CellStats { return b.Coll(k) }, b.Total())

	fmt.Fprintf(&sb, "\n%-12s %10s %10s %10s %12s %12s\n", "collective", "calls", "msgs", "MB", "comm s", "comp s")
	for _, k := range active {
		s := b.Coll(k)
		fmt.Fprintf(&sb, "%-12s %10d %10d %10.3f %12.6f %12.6f\n",
			k.String(), s.Calls, s.Msgs, float64(s.Bytes)/1e6, s.CommTime, s.CompTime)
	}
	if s := b.Coll(CollNone); s.CompTime != 0 {
		fmt.Fprintf(&sb, "%-12s %10s %10s %10s %12s %12.6f\n", "compute", "-", "-", "-", "-", s.CompTime)
	}

	// Per-(collective, algorithm) view: which algorithm carried the
	// traffic of each collective (more than one appears under auto
	// selection or mid-run reconfiguration).
	header := false
	for _, k := range active {
		for _, a := range b.Algos(k) {
			if a == "" {
				continue
			}
			if !header {
				fmt.Fprintf(&sb, "\n%-24s %10s %10s %10s %12s\n", "collective/algo", "calls", "msgs", "MB", "comm s")
				header = true
			}
			s := b.CollAlgo(k, a)
			fmt.Fprintf(&sb, "%-24s %10d %10d %10.3f %12.6f\n",
				k.String()+"/"+string(a), s.Calls, s.Msgs, float64(s.Bytes)/1e6, s.CommTime)
		}
	}
	return sb.String()
}

// TraceEvent is one entry of the opt-in per-rank event timeline: an
// outermost collective call (or a point-to-point send/receive outside any
// collective), with the rank's modeled clock at entry and exit and the
// modeled bytes the rank sent during it (for a lone receive: received).
type TraceEvent struct {
	Rank  int     `json:"rank"`
	Seq   int     `json:"seq"` // per-rank event index
	Comm  string  `json:"comm"`
	Phase string  `json:"phase"`
	Coll  string  `json:"coll"`
	Algo  string  `json:"algo,omitempty"` // resolved collective algorithm ("" for p2p)
	Tag   int     `json:"tag"`
	Bytes int64   `json:"bytes"`
	Start float64 `json:"start"`
	End   float64 `json:"end"`
}

// --- per-proc attribution (all methods run on the rank's own goroutine) ---

// curPhase returns the innermost phase label, "" when none.
func (p *proc) curPhase() string {
	if n := len(p.phases); n > 0 {
		return p.phases[n-1]
	}
	return ""
}

// commColl is the bucket a communication charge belongs to right now.
func (p *proc) commColl() Coll {
	if p.collDepth == 0 {
		return CollP2P
	}
	return p.curColl
}

// compColl is the bucket a computation charge belongs to right now (the
// reduction arithmetic inside a collective bills to that collective).
func (p *proc) compColl() Coll {
	if p.collDepth == 0 {
		return CollNone
	}
	return p.curColl
}

// curAlgoBucket is the algorithm label charges carry right now: the
// outermost collective's resolved algorithm, "" outside any collective.
func (p *proc) curAlgoBucket() Algo {
	if p.collDepth == 0 {
		return ""
	}
	return p.curAlgo
}

func (p *proc) bump(k Coll) *CellStats {
	c := Cell{p.curPhase(), k, p.curAlgoBucket()}
	cs := p.cells[c]
	if cs == nil {
		cs = &CellStats{}
		p.cells[c] = cs
	}
	return cs
}

func (p *proc) chargeComm(d float64) {
	p.commTime += d
	p.bump(p.commColl()).CommTime += d
}

func (p *proc) chargeComp(d float64) {
	p.compTime += d
	p.bump(p.compColl()).CompTime += d
}

func (p *proc) chargeDisk(bytes int64, d float64) {
	p.diskBytes += bytes
	p.diskTime += d
	cs := p.bump(p.compColl())
	cs.DiskBytes += bytes
	cs.DiskTime += d
}

func (p *proc) noteSend(bytes int) {
	p.msgsSent++
	p.bytesSent += int64(bytes)
	cs := p.bump(p.commColl())
	cs.Msgs++
	cs.Bytes += int64(bytes)
	if p.collDepth == 0 {
		cs.Calls++ // a lone send is its own "call"
	}
}

func (p *proc) recordEvent(comm string, k Coll, algo Algo, tag int, bytes int64, start, end float64) {
	p.events = append(p.events, TraceEvent{
		Rank: p.rank, Seq: len(p.events), Comm: comm, Phase: p.curPhase(),
		Coll: k.String(), Algo: string(algo), Tag: tag, Bytes: bytes, Start: start, End: end,
	})
}

// BeginPhase pushes a phase label: until the matching EndPhase, every
// modeled charge of this rank is attributed to it. Phases nest (the
// innermost wins) and must be balanced per rank. Purely observational —
// the modeled clock is never affected.
func (c *Comm) BeginPhase(name string) {
	c.me.phases = append(c.me.phases, name)
}

// EndPhase pops the innermost phase label.
func (c *Comm) EndPhase() {
	p := c.me
	if len(p.phases) == 0 {
		panic("mp: EndPhase without BeginPhase")
	}
	p.phases = p.phases[:len(p.phases)-1]
}

// PhaseMark records the caller's phase-stack depth and returns the
// unwind a recovery boundary runs after catching a fault: it pops the
// phases the panic left open since the mark and returns how many there
// were. Every collective defers its end, so a fault that unwinds to the
// boundary has closed them all; one still open is a bug, and unwind
// panics naming this communicator.
func (c *Comm) PhaseMark() (unwind func() (popped int)) {
	depth := len(c.me.phases)
	return func() int {
		p := c.me
		if p.collDepth != 0 {
			panic(fmt.Sprintf("mp: comm %s reached a recovery boundary inside %d open collectives", c.id, p.collDepth))
		}
		popped := len(p.phases) - depth
		if popped <= 0 {
			return 0
		}
		p.phases = p.phases[:depth]
		return popped
	}
}

// beginColl marks the start of a collective on this rank, carrying the
// concrete algorithm it resolved to. Nested collectives (a reduce+bcast
// Allreduce running Reduce and Bcast, Split running Allgatherv, Barrier
// running Allreduce) attribute to the outermost kind and algorithm.
func (c *Comm) beginColl(k Coll, tag int, algo Algo) {
	p := c.me
	if p.collDepth == 0 {
		c.inst++
		c.op(fault.CollStart, tag)
		p.curColl = k
		p.curAlgo = algo
		p.collStartClock = p.clock
		p.collStartBytes = p.bytesSent
		p.collTag = tag
		p.collComm = c.id
		p.collDepth++
		p.bump(k).Calls++
		return
	}
	p.collDepth++
}

func (c *Comm) endColl() {
	p := c.me
	p.collDepth--
	if p.collDepth == 0 {
		if c.world.trace {
			p.recordEvent(p.collComm, p.curColl, p.curAlgo, p.collTag, p.bytesSent-p.collStartBytes, p.collStartClock, p.clock)
		}
		p.curColl = CollNone
		p.curAlgo = ""
	}
}

// --- world-level accessors ---

// EnableTrace turns on per-event timeline recording for subsequent Runs.
// Tracing never changes modeled clocks, traffic counters or the built
// trees — it only records.
func (w *World) EnableTrace() { w.trace = true }

// TraceEnabled reports whether the event timeline is being recorded.
func (w *World) TraceEnabled() bool { return w.trace }

// Events returns the merged event timeline of all ranks since the last
// Reset, deterministically ordered by (start clock, rank, per-rank seq).
// Empty unless EnableTrace was called before Run.
func (w *World) Events() []TraceEvent {
	var out []TraceEvent
	for _, p := range w.procs {
		out = append(out, p.events...)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Start != out[b].Start {
			return out[a].Start < out[b].Start
		}
		if out[a].Rank != out[b].Rank {
			return out[a].Rank < out[b].Rank
		}
		return out[a].Seq < out[b].Seq
	})
	return out
}

// Breakdown returns the per-phase × per-collective aggregation summed
// over all ranks since the last Reset. Always available.
func (w *World) Breakdown() Breakdown {
	b := NewBreakdown()
	for r := range w.procs {
		b.Merge(w.RankBreakdown(r))
	}
	return b
}

// RankBreakdown returns one rank's per-phase × per-collective aggregation.
func (w *World) RankBreakdown(rank int) Breakdown {
	b := NewBreakdown()
	for c, cs := range w.procs[rank].cells {
		b.Cells[c] = *cs
	}
	return b
}
