package mp

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"partree/internal/fault"
)

// mustPanic runs f and returns the recovered panic value, failing the
// test if f returns normally.
func mustPanic(t *testing.T, f func()) (v any) {
	t.Helper()
	defer func() { v = recover() }()
	f()
	t.Fatal("expected a panic")
	return nil
}

// Satellite: a genuine panic on one rank must not leave sibling ranks
// blocked in Recv forever — Run terminates and re-panics the root cause.
func TestRunPanicUnblocksPeers(t *testing.T) {
	w := NewWorld(4, SP2())
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		w.Run(func(c *Comm) {
			if c.Rank() == 1 {
				panic("boom")
			}
			// Everyone else waits for a message rank 1 will never send.
			c.Recv(1, 7)
		})
	}()
	select {
	case v := <-done:
		s, ok := v.(string)
		if !ok || !strings.Contains(s, "rank 1 panicked") || !strings.Contains(s, "boom") {
			t.Fatalf("re-panic = %v, want rank 1's boom", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run deadlocked on a panicked peer")
	}
	if got := w.DeadRanks(); len(got) != 4 {
		t.Fatalf("DeadRanks = %v, want all 4 (cascade)", got)
	}
}

// A rank body that returns inside an open collective is a panic of that
// rank naming the depth: siblings would otherwise disagree on the next
// collective instance.
func TestRunRejectsOpenCollectiveAtReturn(t *testing.T) {
	w := NewWorld(2, SP2())
	v := mustPanic(t, func() {
		w.Run(func(c *Comm) {
			if c.Rank() == 1 {
				c.beginColl(CollBarrier, 0, AlgoDefault)
			}
		})
	})
	s, _ := v.(string)
	if !strings.Contains(s, "rank 1 panicked") || !strings.Contains(s, "inside 1 open collectives") {
		t.Fatalf("re-panic = %v, want rank 1 inside 1 open collective", v)
	}
	if got := w.DeadRanks(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("DeadRanks = %v, want [1]", got)
	}
}

// A rank body that returns with phases still pushed is a panic of that
// rank naming the open phases.
func TestRunRejectsOpenPhaseAtReturn(t *testing.T) {
	w := NewWorld(2, SP2())
	v := mustPanic(t, func() {
		w.Run(func(c *Comm) {
			c.BeginPhase("balanced")
			c.EndPhase()
			if c.Rank() == 0 {
				c.BeginPhase("outer")
				c.BeginPhase("inner")
			}
		})
	})
	s, _ := v.(string)
	if !strings.Contains(s, "rank 0 panicked") || !strings.Contains(s, "inside 0 open collectives") ||
		!strings.Contains(s, `["outer" "inner"]`) {
		t.Fatalf("re-panic = %v, want rank 0 with phases outer, inner open", v)
	}
}

// A peer that returns normally is as unreachable as a dead one for a
// blocked receive — but messages it sent before finishing still arrive.
func TestRecvFromFinishedRank(t *testing.T) {
	w := NewWorld(2, SP2())
	var sawDead atomic.Bool
	w.Run(func(c *Comm) {
		if c.Rank() == 1 {
			c.Send(0, 1, "first", 8)
			return
		}
		if msg := c.Recv(1, 1); msg.Payload.(string) != "first" {
			panic("lost the pre-finish message")
		}
		defer func() {
			e, ok := fault.AsError(recover())
			if !ok || !errors.Is(e, fault.ErrRankDead) {
				panic(fmt.Sprintf("want ErrRankDead, got %v", e))
			}
			sawDead.Store(true)
		}()
		c.Recv(1, 2) // never sent
	})
	if !sawDead.Load() {
		t.Fatal("blocked receive on a finished rank did not fail")
	}
}

func TestInjectedCrashDetected(t *testing.T) {
	for _, p := range []int{2, 4, 5, 8} {
		w := NewWorld(p, SP2())
		w.SetFaultPlan(fault.NewPlan(fault.CrashAt(1, fault.CollStart, 2)))
		var surfaced atomic.Int64
		w.Run(func(c *Comm) {
			defer func() {
				v := recover()
				if v == nil {
					return
				}
				if e, ok := fault.AsError(v); ok && errors.Is(e, fault.ErrRankDead) {
					surfaced.Add(1)
					return
				}
				panic(v) // incl. the injected fault.Crashed on rank 1
			}()
			for i := 0; i < 5; i++ {
				x := []int64{int64(c.Rank())}
				Allreduce(c, x, Sum)
			}
		})
		if got := w.DeadRanks(); len(got) != 1 || got[0] != 1 {
			t.Fatalf("p=%d: DeadRanks = %v, want [1]", p, got)
		}
		evs := w.Faults()
		if len(evs) != 1 || evs[0].Kind != fault.Crash || evs[0].Rank != 1 {
			t.Fatalf("p=%d: fault events = %v", p, evs)
		}
		if surfaced.Load() == 0 {
			t.Fatalf("p=%d: no peer surfaced ErrRankDead", p)
		}
	}
}

func TestRecvTimeout(t *testing.T) {
	w := NewWorld(2, SP2())
	w.SetRecvTimeout(50 * time.Millisecond)
	var to atomic.Bool
	w.Run(func(c *Comm) {
		if c.Rank() != 0 {
			// Stay alive past the peer's deadline so dead/done detection
			// cannot beat the timer.
			time.Sleep(150 * time.Millisecond)
			return
		}
		defer func() {
			e, ok := fault.AsError(recover())
			if !ok || !errors.Is(e, fault.ErrTimeout) {
				panic(fmt.Sprintf("want ErrTimeout, got %v", e))
			}
			to.Store(true)
		}()
		c.Recv(1, 3)
	})
	if !to.Load() {
		t.Fatal("receive did not time out")
	}
}

// A dropped message charges the sender's wire cost but never arrives; the
// receiver's bounded wait turns the loss into a typed timeout.
func TestDropDetectedByTimeout(t *testing.T) {
	w := NewWorld(2, SP2())
	w.SetFaultPlan(fault.NewPlan(fault.DropAt(1, 1, 5)))
	w.SetRecvTimeout(50 * time.Millisecond)
	var timedOut atomic.Bool
	w.Run(func(c *Comm) {
		if c.Rank() == 1 {
			c.Send(0, 5, "lost", 64)
			time.Sleep(150 * time.Millisecond)
			return
		}
		defer func() {
			e, ok := fault.AsError(recover())
			if !ok || !errors.Is(e, fault.ErrTimeout) {
				panic(fmt.Sprintf("want ErrTimeout, got %v", e))
			}
			timedOut.Store(true)
		}()
		c.Recv(1, 5)
	})
	if !timedOut.Load() {
		t.Fatal("dropped message was delivered")
	}
	if tr := w.RankTraffic(1); tr.Msgs != 1 || tr.Bytes != 64 {
		t.Fatalf("sender traffic = %+v, want the wire cost of the lost message", tr)
	}
	evs := w.Faults()
	if len(evs) != 1 || evs[0].Kind != fault.Drop {
		t.Fatalf("fault events = %v", evs)
	}
}

// A duplicated message is suppressed by the at-most-once filter: the
// program observes exactly one copy and the same results as fault-free.
func TestDuplicateSuppressed(t *testing.T) {
	run := func(plan *fault.Plan) (sum int64, w *World) {
		w = NewWorld(4, SP2())
		w.SetFaultPlan(plan)
		var out atomic.Int64
		w.Run(func(c *Comm) {
			x := []int64{int64(c.Rank() + 1)}
			Allreduce(c, x, Sum)
			if c.Rank() == 0 {
				out.Store(x[0])
			}
		})
		return out.Load(), w
	}
	clean, _ := run(nil)
	dup, w := run(fault.NewPlan(fault.DuplicateAt(2, 1, fault.AnyTag)))
	if dup != clean {
		t.Fatalf("allreduce under duplication = %d, want %d", dup, clean)
	}
	if got := w.DuplicatesDropped(); got != 1 {
		t.Fatalf("DuplicatesDropped = %d, want 1", got)
	}
	if got := w.DeadRanks(); got != nil {
		t.Fatalf("DeadRanks = %v, want none", got)
	}
}

// TestDropThenDuplicateGapDetected combines both message faults on one
// stream: the first send is dropped and the second is duplicated. The
// receiver's first matching message carries Seq 2, so the gap detector
// surfaces the loss immediately as a typed timeout naming the missing
// message — without waiting out the full receive deadline — while the
// at-most-once filter silently absorbs the duplicate copy.
func TestDropThenDuplicateGapDetected(t *testing.T) {
	const tag = 5
	w := NewWorld(2, SP2())
	w.SetFaultPlan(fault.NewPlan(
		fault.DropAt(1, 1, tag),
		fault.DuplicateAt(1, 2, tag),
	))
	w.SetRecvTimeout(2 * time.Second)
	var gap atomic.Bool
	w.Run(func(c *Comm) {
		if c.Rank() == 1 {
			c.Send(0, tag, "lost", 32)
			c.Send(0, tag, "doubled", 32)
			time.Sleep(150 * time.Millisecond)
			return
		}
		defer func() {
			e, ok := fault.AsError(recover())
			if !ok || !errors.Is(e, fault.ErrTimeout) {
				panic(fmt.Sprintf("want gap timeout, got %v", e))
			}
			if !strings.Contains(e.Cause, "never arrived") {
				panic(fmt.Sprintf("gap error does not name the lost message: %v", e))
			}
			gap.Store(true)
		}()
		c.Recv(1, tag)
	})
	if !gap.Load() {
		t.Fatal("sequence gap was not detected")
	}
	if got := w.DuplicatesDropped(); got != 1 {
		t.Fatalf("DuplicatesDropped = %d, want 1", got)
	}
	if got := w.DeadRanks(); got != nil {
		t.Fatalf("DeadRanks = %v, want none", got)
	}
	kinds := map[fault.Kind]int{}
	for _, ev := range w.Faults() {
		kinds[ev.Kind]++
	}
	if kinds[fault.Drop] != 1 || kinds[fault.Duplicate] != 1 {
		t.Fatalf("fault events = %v, want one drop and one duplicate", w.Faults())
	}
}

func TestDelayAdvancesClock(t *testing.T) {
	run := func(plan *fault.Plan) float64 {
		w := NewWorld(4, SP2())
		w.SetFaultPlan(plan)
		w.Run(func(c *Comm) {
			x := []int64{1}
			Allreduce(c, x, Sum)
			c.Barrier()
		})
		return w.MaxClock()
	}
	base := run(nil)
	slow := run(fault.NewPlan(fault.DelayAt(2, fault.CollStart, 1, 0.25)))
	if slow < base+0.25 {
		t.Fatalf("MaxClock with straggler = %v, want >= %v", slow, base+0.25)
	}
}

// Reset re-arms the plan and drains faulted-run leftovers so the same
// world replays the same faults deterministically.
func TestResetRearmsPlan(t *testing.T) {
	w := NewWorld(2, SP2())
	w.SetFaultPlan(fault.NewPlan(fault.CrashAt(1, fault.AnyOp, 1)))
	crashRun := func() {
		w.Run(func(c *Comm) {
			defer func() {
				v := recover()
				if v == nil {
					return
				}
				if e, ok := fault.AsError(v); ok && errors.Is(e, fault.ErrRankDead) {
					return
				}
				panic(v) // incl. the injected fault.Crashed on rank 1
			}()
			c.Send((c.Rank()+1)%2, 1, nil, 8)
			c.Recv((c.Rank()+1)%2, 1)
		})
	}
	crashRun()
	first := w.Faults()
	if len(first) != 1 {
		t.Fatalf("first run fired %d faults, want 1", len(first))
	}
	w.Reset()
	if len(w.Faults()) != 0 || len(w.DeadRanks()) != 0 {
		t.Fatal("Reset did not clear fault state")
	}
	crashRun()
	second := w.Faults()
	if len(second) != 1 || second[0] != first[0] {
		t.Fatalf("re-armed run fired %v, want %v", second, first)
	}
}

// EnterRecovery + ShrinkAlive + PurgeStale: survivors of a crashed rank
// form a working communicator and finish a collective among themselves.
func TestShrinkAliveAfterCrash(t *testing.T) {
	w := NewWorld(4, SP2())
	w.SetFaultPlan(fault.NewPlan(fault.CrashAt(2, fault.CollStart, 1)))
	sums := make([]int64, 4)
	w.Run(func(c *Comm) {
		err := func() (err error) {
			defer func() {
				v := recover()
				if v == nil {
					return
				}
				if e, ok := fault.AsError(v); ok {
					err = e
					return
				}
				panic(v) // incl. the injected fault.Crashed on rank 2
			}()
			x := []int64{int64(c.Rank() + 1)}
			Allreduce(c, x, Sum)
			sums[c.Rank()] = x[0]
			return nil
		}()
		if err == nil {
			return // only possible for a rank that finished before detection
		}
		c.EnterRecovery()
		nc := c.ShrinkAlive()
		nc.Barrier()
		nc.PurgeStale()
		if nc.Size() != 3 {
			panic(fmt.Sprintf("survivor comm size = %d, want 3", nc.Size()))
		}
		x := []int64{int64(c.Rank() + 1)}
		Allreduce(nc, x, Sum)
		sums[c.Rank()] = x[0]
	})
	for _, r := range []int{0, 1, 3} {
		if sums[r] != 1+2+4 {
			t.Fatalf("rank %d survivor sum = %d, want 7", r, sums[r])
		}
	}
	if got := w.DeadRanks(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("DeadRanks = %v, want [2]", got)
	}
}

// The epoch-suffixed survivor id must strip a previous epoch suffix so a
// second recovery does not nest suffixes.
func TestShrinkAliveIDBase(t *testing.T) {
	w := NewWorld(1, SP2())
	var id1, id2 string
	w.Run(func(c *Comm) {
		c.EnterRecovery()
		n1 := c.ShrinkAlive()
		id1 = n1.ID()
		c.EnterRecovery()
		n2 := n1.ShrinkAlive()
		id2 = n2.ID()
	})
	if id1 != "w!1" || id2 != "w!2" {
		t.Fatalf("survivor ids = %v, %v; want w!1, w!2", id1, id2)
	}
}

func TestRandomPlansTerminate(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		w := NewWorld(4, SP2())
		w.SetFaultPlan(fault.Random(seed, 4, 30))
		w.SetRecvTimeout(time.Second)
		finished := make(chan struct{})
		go func() {
			defer close(finished)
			w.Run(func(c *Comm) {
				defer func() {
					v := recover()
					if v == nil {
						return
					}
					if _, ok := fault.AsError(v); ok {
						return
					}
					panic(v) // incl. injected crashes
				}()
				for i := 0; i < 8; i++ {
					x := []int64{int64(c.Rank())}
					Allreduce(c, x, Sum)
				}
			})
		}()
		select {
		case <-finished:
		case <-time.After(30 * time.Second):
			t.Fatalf("seed %d: faulted run did not terminate", seed)
		}
	}
}
