package core

import (
	"sync/atomic"
	"time"
)

// mailbox is a rank's inbound event queue, built from per-sender SPSC
// lanes: one unbounded single-producer/single-consumer chunk queue per
// sender rank plus one lane for engine-external emissions (InitVertex,
// Signal). Senders never contend with each other — each lane has exactly
// one producer (the owning sender goroutine; the external lane is
// serialized by the engine's extMu) and one consumer (the owning rank) —
// and events from any single sender are delivered in the order that sender
// pushed them, so the pairwise-FIFO guarantee the paper's undirected-edge
// serialization relies on (§III-C) falls out of the structure instead of a
// lock. Senders never block, so no cycle of blocked sends can deadlock the
// engine; memory is the only backpressure, matching the paper's saturation
// methodology.
type mailbox struct {
	// lanes[sender] is that sender rank's private channel; the last lane
	// (index == rank count) carries external emissions.
	lanes []lane
	// wake carries at most one token; a sender deposits it after
	// publishing, and an idle rank parks on it.
	wake chan struct{}
	// queued approximates the current queue depth (published minus
	// drained; it can transiently dip below zero when a drain races a
	// producer's add). hwm is the deepest it has ever been.
	queued atomic.Int64
	hwm    atomic.Uint64
	// resStamp is the mailbox-residency probe: the push instant (UnixNano)
	// of one still-undrained batch, or 0 when no sample is pending. One
	// sample at a time keeps the producer cost to a single load (plus a CAS
	// and clock read only when the probe is vacant, i.e. at most once per
	// drain cycle); the consumer Swaps it out and records now-stamp.
	resStamp atomic.Int64
	// scratch is the consumer-owned drain buffer, handed out by drain and
	// returned via recycle to avoid reallocation.
	scratch []Event
}

// laneChunkSize is the event capacity of one lane chunk. Chunks are the
// unit of producer→consumer publication and of recycling.
const laneChunkSize = 256

// laneChunk is one fixed-size segment of a lane. The producer fills buf in
// order and publishes progress through n (monotone within a chunk); when
// full it links a successor through next. The consumer reads buf[:n] and
// advances to next once the chunk is exhausted.
type laneChunk struct {
	next atomic.Pointer[laneChunk]
	n    atomic.Int32
	buf  [laneChunkSize]Event
}

// lane is one unbounded SPSC chunk queue. Producer-owned and
// consumer-owned fields sit on separate cache lines so the two sides never
// false-share; the only cross-side traffic is the atomic publish (n, next)
// and the free-slot chunk exchange.
type lane struct {
	_ [64]byte
	// tail is the producer's current write chunk; tailN its count of
	// events written there (mirrored into tail.n to publish).
	tail  *laneChunk
	tailN int
	_     [64]byte
	// head is the consumer's current read chunk; read its count of events
	// already consumed from it.
	head *laneChunk
	read int
	_    [64]byte
	// free is a single-slot recycling exchange: the consumer deposits an
	// exhausted (reset) chunk, the producer swaps it out instead of
	// allocating.
	free atomic.Pointer[laneChunk]
}

// push appends a batch to the lane. Producer side only.
func (l *lane) push(batch []Event) {
	c := l.tail
	for len(batch) > 0 {
		if l.tailN == laneChunkSize {
			c = l.nextChunk(c)
		}
		k := copy(c.buf[l.tailN:], batch)
		l.tailN += k
		c.n.Store(int32(l.tailN)) // publish: events are written before n
		batch = batch[k:]
	}
}

// pushOne appends a single event to the lane. Producer side only.
func (l *lane) pushOne(ev Event) {
	c := l.tail
	if l.tailN == laneChunkSize {
		c = l.nextChunk(c)
	}
	c.buf[l.tailN] = ev
	l.tailN++
	c.n.Store(int32(l.tailN))
}

// nextChunk links a fresh (or recycled) chunk after the full chunk c and
// makes it the producer's tail. Linking through next is what lets the
// consumer follow; a recycled chunk was reset by the consumer before being
// deposited in free.
func (l *lane) nextChunk(c *laneChunk) *laneChunk {
	nc := l.free.Swap(nil)
	if nc == nil {
		nc = new(laneChunk)
	}
	l.tail = nc
	l.tailN = 0
	c.next.Store(nc)
	return nc
}

// drainInto appends every currently-published event to out and returns the
// extended slice. Consumer side only. Exhausted chunks are reset and
// offered back to the producer through the free slot — safe because a
// non-nil next proves the producer has moved its tail past the chunk.
func (l *lane) drainInto(out []Event) []Event {
	for {
		c := l.head
		n := int(c.n.Load())
		if n > l.read {
			out = append(out, c.buf[l.read:n]...)
			l.read = n
		}
		if l.read < laneChunkSize {
			return out
		}
		next := c.next.Load()
		if next == nil {
			return out
		}
		l.head = next
		l.read = 0
		c.n.Store(0)
		c.next.Store(nil)
		l.free.Store(c)
	}
}

// pending counts the published-but-undrained events in the lane. Consumer
// side only (it walks the chunk list from head without consuming).
func (l *lane) pending() int {
	n := 0
	c := l.head
	read := l.read
	for {
		n += int(c.n.Load()) - read
		next := c.next.Load()
		if next == nil {
			return n
		}
		c = next
		read = 0
	}
}

// newMailbox builds a mailbox with the given number of sender lanes (rank
// count + 1; the last lane is the external one).
func newMailbox(senders int) *mailbox {
	m := &mailbox{
		lanes: make([]lane, senders),
		wake:  make(chan struct{}, 1),
	}
	for i := range m.lanes {
		c := new(laneChunk)
		m.lanes[i].head = c
		m.lanes[i].tail = c
	}
	return m
}

// externalLane returns the index of the engine-external lane.
func (m *mailbox) externalLane() int { return len(m.lanes) - 1 }

// push appends a batch of events on the sender's lane and wakes the owner
// if it is parked. Each lane admits one producer: rank goroutine `sender`
// for rank lanes, the extMu-serialized engine for the external lane.
func (m *mailbox) push(sender int, batch []Event) {
	if len(batch) == 0 {
		return
	}
	m.lanes[sender].push(batch)
	m.noteQueued(len(batch))
	m.stampResidency()
	m.poke()
}

// pushExternal appends one engine-external event (caller holds extMu).
func (m *mailbox) pushExternal(ev Event) {
	m.lanes[m.externalLane()].pushOne(ev)
	m.noteQueued(1)
	m.stampResidency()
	m.poke()
}

// stampResidency arms the residency probe if it is vacant. Racing
// producers may both pass the load; the CAS keeps exactly one stamp and
// the loser's clock read is wasted, which is harmless and rare.
func (m *mailbox) stampResidency() {
	if m.resStamp.Load() == 0 {
		m.resStamp.CompareAndSwap(0, time.Now().UnixNano())
	}
}

// takeResidency consumes the pending residency stamp (0 if none). Called by
// the consumer once per drain; the elapsed time since the stamp is one
// mailbox-residency sample.
func (m *mailbox) takeResidency() int64 { return m.resStamp.Swap(0) }

// depth returns the current approximate inbound queue depth (clamped at
// zero: the estimate can transiently dip negative when a drain races a
// producer's add).
func (m *mailbox) depth() int64 {
	if d := m.queued.Load(); d > 0 {
		return d
	}
	return 0
}

// noteQueued advances the depth estimate and its high-water mark.
func (m *mailbox) noteQueued(k int) {
	d := m.queued.Add(int64(k))
	if d <= 0 {
		return
	}
	for {
		h := m.hwm.Load()
		if uint64(d) <= h || m.hwm.CompareAndSwap(h, uint64(d)) {
			return
		}
	}
}

// poke deposits a wake token without delivering events (used to nudge a
// parked rank to re-check snapshot duty, queries, or termination).
func (m *mailbox) poke() {
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// drain collects every published event from every lane into one slice
// (nil if none), preserving per-lane order. The caller must hand the slice
// back via recycle once processed.
func (m *mailbox) drain() []Event {
	out := m.scratch
	m.scratch = nil
	if out == nil {
		out = []Event{}
	}
	out = out[:0]
	for i := range m.lanes {
		out = m.lanes[i].drainInto(out)
	}
	if len(out) == 0 {
		m.scratch = out
		return nil
	}
	m.queued.Add(-int64(len(out)))
	return out
}

// lanePending counts the undrained events in one lane. Consumer side only.
func (m *mailbox) lanePending(i int) int { return m.lanes[i].pending() }

// drainLane collects every published event from a single lane (the sim
// driver's per-lane stepping granularity; the concurrent loop always drains
// all lanes via drain). Consumer side only.
func (m *mailbox) drainLane(i int) []Event {
	out := m.lanes[i].drainInto(nil)
	if len(out) > 0 {
		m.queued.Add(-int64(len(out)))
	}
	return out
}

// recycle returns a drained slice for reuse by the next drain, unless
// reuseDrained releases it. Consumer side only, like drain.
func (m *mailbox) recycle(batch []Event) {
	if cap(batch) > cap(m.scratch) {
		m.scratch = reuseDrained(batch)
	}
}

// drainKeepFloor is the capacity, in events, up to which a drained buffer
// is always kept for the next drain.
const drainKeepFloor = 16384

// reuseDrained returns buf emptied for reuse, or nil when it is above
// drainKeepFloor and the drain just finished filled under a quarter of
// it. A flood grows the mailbox drain buffer and the self ring to its
// backlog's size; without the release they would keep that size until
// the rank exits. The next flood grows a fresh one.
func reuseDrained(buf []Event) []Event {
	if cap(buf) > drainKeepFloor && 4*len(buf) < cap(buf) {
		return nil
	}
	return buf[:0]
}

// wait parks until a wake token arrives or done closes. It returns
// immediately if a token is already pending.
func (m *mailbox) wait(done <-chan struct{}) {
	select {
	case <-m.wake:
	case <-done:
	}
}

// wakeChan exposes the wake-token channel so a parked rank can select on
// mailbox activity together with its lifecycle resume gate. Receiving from
// it consumes the pending token, exactly like wait.
func (m *mailbox) wakeChan() <-chan struct{} { return m.wake }

// highWater returns the deepest the queue has ever been — a saturation
// indicator: a high-water mark near the total event count means one rank
// fell far behind its senders.
func (m *mailbox) highWater() uint64 { return m.hwm.Load() }
