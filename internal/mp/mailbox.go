package mp

import (
	"strings"
	"sync"
	"time"
)

// Msg is a delivered message. Payload is shared by reference — senders
// must not mutate a payload after sending. SendSlice sends a fresh copy
// the receiver keeps, Alltoallv the blocks its caller hands off, and the
// reduction and broadcast wires a pooled buffer that the one receiver
// returns to its pool once consumed (payload.go); put's duplicate filter
// is what keeps a pooled payload to one receiver.
type Msg struct {
	Src     int     // comm rank of the sender within the delivering comm
	Tag     int     // user tag
	Payload any     // message body
	Bytes   int     // modeled wire size
	Arrive  float64 // modeled arrival time at the receiver
	Seq     int64   // per-(comm,src,tag) sequence number; 0 when unsequenced
}

// qkey identifies a mailbox queue: messages match on the communicator
// identity and tag; the source is matched by scanning within the queue so
// both targeted and wildcard receives are possible.
type qkey struct {
	comm string
	tag  int
}

// dupKey identifies one receiver-side message stream for the
// at-most-once sequence filter.
type dupKey struct {
	comm string
	src  int // comm rank of the sender
	tag  int
}

// mailbox is the unbounded per-rank message store. Sends never block;
// receives block until a matching message exists, the waited-on rank is
// unreachable, a recovery epoch starts, or the optional real-time
// deadline expires.
//
// A queue that empties leaves queues, so the per-instance keys of
// collectives (comm#inst) do not pile up; its zeroed backing array goes
// on free, where put finds it for the next new key.
type mailbox struct {
	mu        sync.Mutex
	cond      *sync.Cond
	queues    map[qkey][]Msg
	free      [][]Msg          // emptied queues, length 0, at most maxFreeQueues
	lastSeq   map[dupKey]int64 // highest accepted Seq per stream (nil until sequenced traffic)
	lastTaken map[dupKey]int64 // highest consumed Seq per stream, for gap (drop) detection
}

func newMailbox() *mailbox {
	m := &mailbox{queues: make(map[qkey][]Msg)}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// put queues msg and reports whether it was accepted; a sequenced message
// (Seq != 0) whose stream already delivered that Seq is a duplicate and
// is rejected.
func (m *mailbox) put(comm string, msg Msg) bool {
	m.mu.Lock()
	if msg.Seq != 0 {
		dk := dupKey{comm, msg.Src, msg.Tag}
		if m.lastSeq == nil {
			m.lastSeq = make(map[dupKey]int64)
		}
		if msg.Seq <= m.lastSeq[dk] {
			m.mu.Unlock()
			return false
		}
		m.lastSeq[dk] = msg.Seq
	}
	k := qkey{comm, msg.Tag}
	q := m.queues[k]
	if q == nil && len(m.free) > 0 {
		q = m.free[len(m.free)-1]
		m.free = m.free[:len(m.free)-1]
	}
	m.queues[k] = append(q, msg)
	m.mu.Unlock()
	m.cond.Broadcast()
	return true
}

// take removes and returns the first message in (comm, tag) order of
// arrival whose source matches src (AnySource matches all). It blocks
// until one exists — bounded by the waiter: each wake-up re-checks the
// queue first (a message already delivered always wins), then the
// waiter's failure conditions (dead/finished sender, recovery epoch,
// deadline), so a missing peer surfaces as a typed error, never a hang.
func (m *mailbox) take(comm string, src, tag int, wt *waiter) (Msg, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !wt.deadline.IsZero() {
		// The condition variable has no timed wait: a timer broadcast wakes
		// the loop so it can observe the expired deadline.
		t := time.AfterFunc(time.Until(wt.deadline)+time.Millisecond, func() {
			m.mu.Lock()
			m.cond.Broadcast()
			m.mu.Unlock()
		})
		defer t.Stop()
	}
	k := qkey{comm, tag}
	for {
		q := m.queues[k]
		for i, msg := range q {
			if src == AnySource || msg.Src == src {
				if msg.Seq != 0 {
					// Sequenced stream: a jump past lastTaken+1 means an
					// earlier message of this stream was dropped in flight —
					// surface it now rather than deliver out of order (or
					// wait for a timeout that may not be configured).
					dk := dupKey{comm, msg.Src, msg.Tag}
					if want := m.lastTakenLocked(dk) + 1; msg.Seq > want {
						return Msg{}, wt.gap(msg.Seq - want)
					}
					m.lastTaken[dk] = msg.Seq
				}
				m.removeLocked(k, q, i)
				return msg, nil
			}
		}
		if !wt.deadline.IsZero() && !time.Now().Before(wt.deadline) {
			return Msg{}, wt.timeout()
		}
		if err := wt.check(); err != nil {
			return Msg{}, err
		}
		m.cond.Wait()
	}
}

// tryTake is the non-blocking variant; ok is false when no matching
// message is queued.
func (m *mailbox) tryTake(comm string, src, tag int) (Msg, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	k := qkey{comm, tag}
	q := m.queues[k]
	for i, msg := range q {
		if src == AnySource || msg.Src == src {
			if msg.Seq != 0 {
				// Opportunistic probes deliver across gaps; just track the
				// consumed position so blocking receives stay consistent.
				dk := dupKey{comm, msg.Src, msg.Tag}
				if msg.Seq > m.lastTakenLocked(dk) {
					m.lastTaken[dk] = msg.Seq
				}
			}
			m.removeLocked(k, q, i)
			return msg, true
		}
	}
	return Msg{}, false
}

// maxFreeQueues bounds a mailbox's free list: a rank waits on one
// receive at a time, so only a few queues are ever live at once.
const maxFreeQueues = 8

// removeLocked removes q[i], the queue of k, in place, zeroing the
// vacated slot so the mailbox keeps no payload alive. An emptied queue
// leaves the map and its array goes on the free list. Caller holds mu.
func (m *mailbox) removeLocked(k qkey, q []Msg, i int) {
	copy(q[i:], q[i+1:])
	q[len(q)-1] = Msg{}
	q = q[:len(q)-1]
	if len(q) > 0 {
		m.queues[k] = q
		return
	}
	delete(m.queues, k)
	if len(m.free) < maxFreeQueues {
		m.free = append(m.free, q)
	}
}

// lastTakenLocked reads (allocating on first use) the consumed-Seq high
// water mark of one stream. Caller holds mu.
func (m *mailbox) lastTakenLocked(dk dupKey) int64 {
	if m.lastTaken == nil {
		m.lastTaken = make(map[dupKey]int64)
	}
	return m.lastTaken[dk]
}

// pending reports how many messages are queued for (comm, tag).
func (m *mailbox) pending(comm string, tag int) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.queues[qkey{comm, tag}])
}

// wake broadcasts under the lock so a waiter between its failure check
// and cond.Wait cannot miss the wake-up.
func (m *mailbox) wake() {
	m.mu.Lock()
	m.cond.Broadcast()
	m.mu.Unlock()
}

// purgeExcept drops every queued message (and sequence stream) not
// belonging to comm id or one of its "/"-descendants — the stale traffic
// of pre-recovery communicators.
func (m *mailbox) purgeExcept(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	keep := func(comm string) bool {
		// The comm itself, its collective instances (id#inst), and its
		// "/"-descendants (and their instances) survive.
		return comm == id || strings.HasPrefix(comm, id+"/") || strings.HasPrefix(comm, id+"#")
	}
	for k := range m.queues {
		if !keep(k.comm) {
			delete(m.queues, k)
		}
	}
	for k := range m.lastSeq {
		if !keep(k.comm) {
			delete(m.lastSeq, k)
		}
	}
	for k := range m.lastTaken {
		if !keep(k.comm) {
			delete(m.lastTaken, k)
		}
	}
}

// drain discards all queued messages and sequence state (World.Reset).
func (m *mailbox) drain() {
	m.mu.Lock()
	m.queues = make(map[qkey][]Msg)
	m.lastSeq = nil
	m.lastTaken = nil
	m.mu.Unlock()
}
