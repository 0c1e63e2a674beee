package mp

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"partree/internal/fault"
)

// AnySource matches messages from any sender in Recv/TryRecv.
const AnySource = -1

// proc is the per-rank state shared by every communicator the rank
// belongs to.
type proc struct {
	rank    int // world rank
	clock   float64
	mailbox *mailbox

	// traffic accounting
	msgsSent  int64
	bytesSent int64
	commTime  float64 // modeled seconds spent sending/receiving (incl. waits)
	compTime  float64 // modeled seconds spent in Compute
	diskBytes int64   // bytes moved to/from stable storage (ChargeDisk)
	diskTime  float64 // modeled seconds of stable-storage transfer

	// observability (see trace.go); only touched by the rank's goroutine
	phases         []string            // BeginPhase/EndPhase stack
	cells          map[Cell]*CellStats // (phase, collective, algo) accounting
	curColl        Coll                // outermost collective in progress
	curAlgo        Algo                // its resolved algorithm label
	collDepth      int
	collStartClock float64
	collStartBytes int64
	collTag        int
	collComm       string
	events         []TraceEvent              // recorded only when world.trace
	enc            map[string]*EncodingStats // per-phase adaptive reduction encoding (sparse.go)

	// fault layer (fault.go); only touched by the rank's goroutine
	opCount int64            // operations executed (sends, recvs, outermost coll starts)
	epoch   int              // recovery epoch the rank has joined
	armed   []*armedFault    // plan entries targeting this rank
	seqs    map[seqKey]int64 // at-most-once sequence numbers per send stream
}

// World is a set of P modeled processors. Create one with NewWorld, then
// call Run with the SPMD program.
type World struct {
	Machine Machine
	procs   []*proc
	trace   bool // record per-event timelines (EnableTrace)

	// network configuration (topology.go / algo.go); fixed hardware +
	// library choices, so Reset preserves them
	topo Topology   // prices per-hop distance when Machine.TH > 0
	coll CollConfig // collective-algorithm selection

	// fault layer (fault.go)
	plan        *fault.Plan   // armed plan, nil when fault-free
	recvTimeout time.Duration // real-time bound per blocked receive, 0 = none
	dead        []atomic.Bool // rank terminated abnormally
	done        []atomic.Bool // rank returned normally from Run's body
	recoveryGen atomic.Int64  // current recovery epoch
	dupDropped  atomic.Int64  // messages suppressed by the sequence filter
	fmu         sync.Mutex    // guards deadCause and faultEvents
	deadCause   []string
	faultEvents []fault.Event
}

// NewWorld creates a world of p processors with the given machine model.
func NewWorld(p int, m Machine) *World {
	if p <= 0 {
		panic("mp: world size must be positive")
	}
	w := &World{
		Machine:   m,
		topo:      NewHypercube(p),
		procs:     make([]*proc, p),
		dead:      make([]atomic.Bool, p),
		done:      make([]atomic.Bool, p),
		deadCause: make([]string, p),
	}
	for i := range w.procs {
		w.procs[i] = &proc{rank: i, mailbox: newMailbox(), cells: make(map[Cell]*CellStats)}
	}
	return w
}

// Size returns the number of processors.
func (w *World) Size() int { return len(w.procs) }

// Topology returns the interconnect the world prices messages on
// (hypercube unless SetTopology changed it).
func (w *World) Topology() Topology { return w.topo }

// SetTopology installs the interconnect model. It must be sized for this
// world. With Machine.TH = 0 the topology is purely descriptive — every
// fabric prices identically. Call before Run; Reset preserves it.
func (w *World) SetTopology(t Topology) {
	if t == nil {
		panic("mp: SetTopology(nil)")
	}
	if t.Size() != w.Size() {
		panic(fmt.Sprintf("mp: topology %s sized for %d ranks on a %d-rank world", t.Name(), t.Size(), w.Size()))
	}
	w.topo = t
}

// CollConfig returns the world's collective-algorithm selection.
func (w *World) CollConfig() CollConfig { return w.coll }

// SetCollConfig selects the algorithm each collective runs (see
// CollConfig); the zero value restores the historic defaults. Panics on
// an algorithm a collective does not implement. Call before Run; Reset
// preserves it.
func (w *World) SetCollConfig(cfg CollConfig) {
	if err := cfg.Validate(); err != nil {
		panic("mp: " + err.Error())
	}
	w.coll = cfg
}

// Run executes body once per rank, each in its own goroutine, passing the
// world communicator, and waits for all ranks to finish. A rank body that
// returns inside an open collective or with phases still pushed is a
// genuine panic of that rank. A rank that stops participating — genuine
// panic, injected crash, or normal return — is registered in the
// world's dead/done sets, so sibling ranks blocked in a receive fail
// with a typed *fault.Error instead of hanging and the whole Run always
// terminates. A genuine panic on any rank is re-panicked
// on the caller with rank attribution (an unrecovered *fault.Error
// likewise); injected fault.Crashed panics are expected and only reported
// via DeadRanks. Run may be called repeatedly; clocks and counters keep
// accumulating (use Reset between independent experiments).
func (w *World) Run(body func(c *Comm)) {
	for r := range w.procs {
		w.dead[r].Store(false)
		w.done[r].Store(false)
	}
	w.fmu.Lock()
	for r := range w.deadCause {
		w.deadCause[r] = ""
	}
	w.fmu.Unlock()
	var wg sync.WaitGroup
	panics := make([]any, w.Size())
	for r := 0; r < w.Size(); r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				e := recover()
				if e == nil {
					p := w.procs[rank]
					if p.collDepth == 0 && len(p.phases) == 0 {
						w.markDone(rank)
						return
					}
					e = fmt.Sprintf("returned inside %d open collectives with open phases %q", p.collDepth, p.phases)
				}
				panics[rank] = e
				switch v := e.(type) {
				case fault.Crashed:
					w.markDead(rank, v.String())
				case *fault.Error:
					w.markDead(rank, v.Error())
				default:
					w.markDead(rank, fmt.Sprintf("%v", e))
				}
			}()
			body(w.Comm(rank))
		}(r)
	}
	wg.Wait()
	// Re-panic policy: prefer the first genuine panic (the root cause),
	// then unrecovered fault errors (a failure the program did not handle);
	// injected crashes are suppressed — they are the experiment, not a bug.
	for rank, e := range panics {
		if e == nil {
			continue
		}
		if _, ok := e.(fault.Crashed); ok {
			continue
		}
		if _, ok := fault.AsError(e); ok {
			continue
		}
		panic(fmt.Sprintf("mp: rank %d panicked: %v", rank, e))
	}
	for _, e := range panics {
		if fe, ok := fault.AsError(e); ok {
			// Re-panic the typed error itself so callers can classify it
			// (the waiter rank is inside fe).
			panic(fe)
		}
	}
}

// Comm returns the world communicator of the given rank (all ranks,
// identity mapping, id "w").
func (w *World) Comm(rank int) *Comm {
	ranks := make([]int, w.Size())
	for i := range ranks {
		ranks[i] = i
	}
	return &Comm{world: w, id: "w", rank: rank, ranks: ranks, me: w.procs[rank]}
}

// Reset zeroes all clocks, counters and fault state, drains the
// mailboxes (a faulted Run legitimately leaves stale traffic behind) and
// re-arms the fault plan so each fault can fire again in the next Run.
func (w *World) Reset() {
	for _, p := range w.procs {
		p.clock = 0
		p.msgsSent = 0
		p.bytesSent = 0
		p.commTime = 0
		p.compTime = 0
		p.diskBytes = 0
		p.diskTime = 0
		p.phases = nil
		p.cells = make(map[Cell]*CellStats)
		p.curColl = CollNone
		p.curAlgo = ""
		p.collDepth = 0
		p.events = nil
		p.enc = nil
		p.opCount = 0
		p.epoch = 0
		p.seqs = nil
		p.mailbox.drain()
	}
	for r := range w.procs {
		w.dead[r].Store(false)
		w.done[r].Store(false)
	}
	w.recoveryGen.Store(0)
	w.dupDropped.Store(0)
	w.fmu.Lock()
	for r := range w.deadCause {
		w.deadCause[r] = ""
	}
	w.faultEvents = nil
	w.fmu.Unlock()
	w.SetFaultPlan(w.plan)
}

// MaxClock returns the modeled parallel runtime so far: the maximum clock
// over all ranks.
func (w *World) MaxClock() float64 {
	m := 0.0
	for _, p := range w.procs {
		if p.clock > m {
			m = p.clock
		}
	}
	return m
}

// Clock returns the modeled clock of one rank.
func (w *World) Clock(rank int) float64 { return w.procs[rank].clock }

// Traffic summarizes communication over all ranks since the last Reset.
type Traffic struct {
	Msgs      int64
	Bytes     int64
	CommTime  float64 // summed over ranks
	CompTime  float64 // summed over ranks
	DiskBytes int64   // bytes moved to/from stable storage, summed over ranks
	DiskTime  float64 // modeled stable-storage seconds, summed over ranks
}

// RankTraffic returns one rank's cumulative counters since the last Reset.
func (w *World) RankTraffic(rank int) Traffic {
	p := w.procs[rank]
	return Traffic{Msgs: p.msgsSent, Bytes: p.bytesSent, CommTime: p.commTime, CompTime: p.compTime,
		DiskBytes: p.diskBytes, DiskTime: p.diskTime}
}

// Traffic returns cumulative counters summed over all ranks.
func (w *World) Traffic() Traffic {
	var t Traffic
	for _, p := range w.procs {
		t.Msgs += p.msgsSent
		t.Bytes += p.bytesSent
		t.CommTime += p.commTime
		t.CompTime += p.compTime
		t.DiskBytes += p.diskBytes
		t.DiskTime += p.diskTime
	}
	return t
}
