package mp

import (
	"fmt"
	"sort"

	"partree/internal/fault"
)

// Comm is a communicator: an ordered group of ranks that exchange
// messages and run collectives among themselves, isolated from other
// communicators by a deterministic identity string. Comms are arranged in
// a tree by Split, exactly like the processor partitions of the hybrid
// formulation.
type Comm struct {
	world *World
	id    string
	rank  int   // my rank within this comm
	ranks []int // comm rank -> world rank
	me    *proc

	splitSeq int // number of Splits issued on this comm (kept consistent collectively)

	// inst counts outermost collectives started on this comm by this rank
	// (bumped in beginColl). Collective-internal messages are delivered
	// under an instance-scoped mailbox key so a rank that races ahead into
	// the next collective can never feed a peer still blocked in the
	// previous one — after a fault diverges their progress, the blocked
	// peer's receive stays unmatched and surfaces as a typed error instead
	// of silently consuming a mismatched payload.
	inst int64
	// instKey caches mailKey's string for collective instance keyInst, so
	// a collective formats its key once, not once per message.
	instKey string
	keyInst int64
}

// mailKey is the mailbox key messages on this comm are filed under:
// the comm identity, extended with the collective instance number while a
// collective is running. Senders and receivers of the same collective
// agree on the instance because ranks of a comm execute the same
// collective sequence.
func (c *Comm) mailKey() string {
	if c.me.collDepth == 0 {
		return c.id
	}
	if c.instKey == "" || c.keyInst != c.inst {
		c.instKey, c.keyInst = fmt.Sprintf("%s#%d", c.id, c.inst), c.inst
	}
	return c.instKey
}

// Rank returns the caller's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.ranks) }

// ID returns the deterministic identity of the communicator ("w" for the
// world, extended by "/seq.color" per split).
func (c *Comm) ID() string { return c.id }

// WorldRank translates a communicator rank to its world rank.
func (c *Comm) WorldRank(r int) int { return c.ranks[r] }

// Ranks returns a copy of the comm-rank → world-rank mapping.
func (c *Comm) Ranks() []int { return append([]int(nil), c.ranks...) }

// Machine returns the cost parameters of the underlying world.
func (c *Comm) Machine() Machine { return c.world.Machine }

// Clock returns the caller's modeled clock in seconds.
func (c *Comm) Clock() float64 { return c.me.clock }

// Compute advances the caller's modeled clock by ops units of t_c and
// accounts it as computation time. Builders call this with the number of
// record-attribute touches they perform.
func (c *Comm) Compute(ops float64) {
	d := ops * c.world.Machine.TC
	c.me.clock += d
	c.me.chargeComp(d)
}

// AdvanceClock adds raw modeled seconds (e.g. a modeled disk scan) to the
// caller's clock, accounted as computation.
func (c *Comm) AdvanceClock(seconds float64) {
	c.me.clock += seconds
	c.me.chargeComp(seconds)
}

// ChargeDisk records bytes moved to or from stable storage — the durable
// checkpoint cost class — and advances the caller's clock by bytes·t_d.
// Under the default machines (TD = 0) the byte count is tracked but the
// clock is untouched, keeping durable checkpointing off the modeled
// critical path.
func (c *Comm) ChargeDisk(bytes int) {
	d := float64(bytes) * c.world.Machine.TD
	c.me.clock += d
	c.me.chargeDisk(int64(bytes), d)
}

// Rebase returns this communicator under the derived identity
// "<base>~<gen>" — same ranks, same rank numbering — where base is the
// identity stripped of any previous resume ("~gen") or recovery
// ("!epoch") suffix. Process-restart resume rebases the world
// communicator so the boundary IDs of the resumed attempt never collide
// with checkpoint IDs a previous incarnation of the process left on
// disk.
func (c *Comm) Rebase(gen int) *Comm {
	base := c.id
	for i := 0; i < len(base); i++ {
		if base[i] == '~' || base[i] == '!' {
			base = base[:i]
			break
		}
	}
	return &Comm{
		world: c.world,
		id:    fmt.Sprintf("%s~%d", base, gen),
		rank:  c.rank,
		ranks: append([]int(nil), c.ranks...),
		me:    c.me,
	}
}

// Send delivers payload to rank dst of this communicator under tag. The
// modeled wire size is bytes; the sender's clock advances by
// t_s + t_w·bytes — plus t_h per hop between the two world ranks under
// the world's Topology when Machine.TH > 0 — and the message arrives at
// that time. The payload is shared by reference: the caller must not
// mutate it after sending, and ownership passes to the receiver — which
// may recycle it (the pooled payloads of the collective wires), because a
// duplicated delivery is rejected by sequence number before it is queued.
func (c *Comm) Send(dst, tag int, payload any, bytes int) {
	if dst < 0 || dst >= c.Size() {
		panic(fmt.Sprintf("mp: send to rank %d of %d-rank comm %s", dst, c.Size(), c.id))
	}
	c.op(fault.SendOp, tag)
	drop, dup := c.sendFault(tag)
	cost := c.world.Machine.SendCost(bytes)
	if th := c.world.Machine.TH; th != 0 {
		cost += th * float64(c.world.topo.Hops(c.me.rank, c.ranks[dst]))
	}
	start := c.me.clock
	c.me.clock += cost
	c.me.chargeComm(cost)
	c.me.noteSend(bytes)
	if c.world.trace && c.me.collDepth == 0 {
		c.me.recordEvent(c.id, CollP2P, "", tag, int64(bytes), start, c.me.clock)
	}
	msg := Msg{
		Src:     c.rank,
		Tag:     tag,
		Payload: payload,
		Bytes:   bytes,
		Arrive:  c.me.clock,
	}
	key := c.mailKey()
	if c.world.plan != nil {
		msg.Seq = c.me.nextSeq(key, dst, tag)
	}
	if drop {
		// The sender paid the wire cost; the receiver never sees it.
		return
	}
	mb := c.world.procs[c.ranks[dst]].mailbox
	mb.put(key, msg)
	if dup {
		if !mb.put(key, msg) {
			c.world.dupDropped.Add(1)
		}
	}
}

// Recv blocks until a message with the given tag from src (or AnySource)
// arrives on this communicator, advances the caller's clock to at least
// the message's modeled arrival time, and returns it. The wait is
// bounded: if the expected sender is dead or finished, a peer entered
// recovery, or the world's receive timeout expires, Recv panics with a
// *fault.Error (recoverable at the builders' protected boundaries).
func (c *Comm) Recv(src, tag int) Msg {
	c.op(fault.RecvOp, tag)
	start := c.me.clock
	wt := c.waiterFor(src, tag)
	msg, err := c.me.mailbox.take(c.mailKey(), src, tag, &wt)
	if err != nil {
		panic(err)
	}
	if msg.Arrive > c.me.clock {
		c.me.chargeComm(msg.Arrive - c.me.clock)
		c.me.clock = msg.Arrive
	}
	if c.world.trace && c.me.collDepth == 0 {
		c.me.recordEvent(c.id, CollP2P, "", tag, int64(msg.Bytes), start, c.me.clock)
	}
	return msg
}

// TryRecv returns a matching message if one has already been delivered
// (in real time); ok=false otherwise. The modeled clock only advances when
// a message is returned. Used for the opportunistic probes of the hybrid
// formulation's idle-partition protocol.
func (c *Comm) TryRecv(src, tag int) (Msg, bool) {
	msg, ok := c.me.mailbox.tryTake(c.mailKey(), src, tag)
	if !ok {
		return Msg{}, false
	}
	start := c.me.clock
	if msg.Arrive > c.me.clock {
		c.me.chargeComm(msg.Arrive - c.me.clock)
		c.me.clock = msg.Arrive
	}
	if c.world.trace && c.me.collDepth == 0 {
		c.me.recordEvent(c.id, CollP2P, "", tag, int64(msg.Bytes), start, c.me.clock)
	}
	return msg, true
}

// Split partitions the communicator collectively: every rank calls Split
// with a color and key; ranks sharing a color form a new communicator,
// ordered by (key, old rank). Returns the caller's new communicator. The
// new comm's identity is derived deterministically from the parent's, so
// sibling partitions are fully isolated. Unlike MPI, color must be ≥ 0.
func (c *Comm) Split(color, key int) *Comm {
	if color < 0 {
		panic("mp: Split color must be non-negative")
	}
	type ck struct{ Color, Key, Rank int32 }
	mine := []int64{int64(color), int64(key), int64(c.rank)}
	all := Allgatherv(c, tagSplit, mine)
	var members []ck
	for i := 0; i+2 < len(all); i += 3 {
		if int(all[i]) == color {
			members = append(members, ck{int32(all[i]), int32(all[i+1]), int32(all[i+2])})
		}
	}
	sort.Slice(members, func(a, b int) bool {
		if members[a].Key != members[b].Key {
			return members[a].Key < members[b].Key
		}
		return members[a].Rank < members[b].Rank
	})
	ranks := make([]int, len(members))
	myNew := -1
	for i, m := range members {
		ranks[i] = c.ranks[m.Rank]
		if int(m.Rank) == c.rank {
			myNew = i
		}
	}
	seq := c.splitSeq
	c.splitSeq++
	return &Comm{
		world: c.world,
		id:    fmt.Sprintf("%s/%d.%d", c.id, seq, color),
		rank:  myNew,
		ranks: ranks,
		me:    c.me,
	}
}

// Reserved internal tags. User code should use tags ≥ 0.
const (
	tagSplit = -iota - 1
	tagReduce
	tagBcast
	tagGather
	tagAllgather
	tagAlltoall
	tagBarrier
	tagClock
	tagVote
	tagVoteScore
)
