package core

import (
	"fmt"
	"sync"
	"time"

	"incregraph/internal/graph"
	"incregraph/internal/serve"
	"incregraph/internal/stream"
)

// rank is one shared-nothing event loop: it exclusively owns a shard of the
// dynamic graph, the per-vertex state of every program for its vertices,
// and one ingestion stream. All communication is through mailboxes.
type rank struct {
	id int
	// proc is the process (cluster node) hosting this rank — the proc byte
	// stamped into lineage IDs and node words.
	proc int
	eng  *Engine

	store *graph.Store
	// values[algo][slot] is the live local state (§II-C local state).
	values [][]uint64
	// prevValues[algo][slot] is the previous-version state while a
	// snapshot is in flight (§III-D); nil otherwise.
	prevValues [][]uint64
	// Parent-witness deletion state (DESIGN.md "Deletions"), maintained
	// only for programs with a non-nil engine witness entry; the arrays
	// grow with values. gens[algo][slot] is the vertex's witness
	// generation (0 until its first invalidation). witMask[algo][slot] is
	// the bitmap of lanes with a recorded witness; wits[algo][slot*lanes+
	// lane] is that lane's supporting parent, meaningful only while its
	// mask bit is set (so the full VertexID range, including ^0, stays
	// addressable — there is no in-band "no witness" sentinel).
	gens    [][]uint32
	witMask [][]uint64
	wits    [][]graph.VertexID
	// witLanes[algo] caches WitnessLanes() (0 for non-witness programs).
	witLanes []int
	// removedEdge is set the first time this rank removes an edge from its
	// store, and never cleared. Until then every UPDATE arrives over an edge
	// the store still holds (DESIGN.md "Deletions"), so handleUpdate skips
	// its live-edge probe.
	removedEdge bool
	// firedBits[trigger][slot/64] marks triggers that already fired for a
	// vertex; monotonicity makes one firing per vertex sufficient (§III-E).
	firedBits [][]uint64

	inbox *mailbox
	// out[dest] buffers outbound events per destination rank; flushed when
	// full or before idling. Per-destination buffers preserve pairwise
	// FIFO order.
	out [][]Event
	// self is the self-delivery ring: events this rank addresses to its own
	// vertices bypass the mailbox (no publish, no wake) and are drained in
	// the same batch loop. selfHead is the next unprocessed index.
	self     []Event
	selfHead int
	// cb is the one Ctx every callback on this rank receives (see ctx).
	// inProcess marks a running process call; only invariants builds
	// maintain it.
	cb        Ctx
	inProcess bool
	// coal merges redundant monotone UPDATEs inside out/self before they
	// are delivered (see coalesce.go).
	coal *coalescer

	stream     stream.Stream
	streamDone bool

	// Snapshot-epoch state.
	snapSeen    uint32 // marker of the last snapshot locally begun
	snapMarker  uint32 // == snapSeen while a snapshot is active
	snapCopyLen int    // shard size when the local copy was taken
	contributed bool

	qmu     sync.Mutex
	queries []queryReq

	// pendingDec batches in-flight decrements per ring slot for one
	// processed batch; applied after the whole batch (and thus after all
	// child emissions), so the counters can never falsely reach zero.
	pendingDec [4]int64

	// counters is the rank's always-on instrumentation block (written only
	// by this rank, read by EngineStats from anywhere).
	counters *rankCounters

	// lat is the rank's latency-histogram block (hist.go). sampleLeft
	// counts ingests until the next traced cascade; curTrace is the Trace
	// of the event currently mid-process, inherited by everything its
	// callback emits; drainLeft counts mailbox batches until the next timed
	// drain; lastFlushNS is the previous flush instant, for the
	// flush-interval histogram.
	lat         *rankLats
	sampleLeft  int
	curTrace    uint64
	drainLeft   int
	lastFlushNS int64

	// effBatch is the rank's effective outbound/pull batch size. It starts
	// at Options.BatchSize and stays there unless AutoTune is on, in which
	// case the tuner adjusts it between event batches (tune.go). Plain
	// field: only this rank reads it on the hot path; the tuner mirrors it
	// into counters.effBatch for cross-goroutine stats.
	effBatch int
	// tune is the rank's feedback controller (nil unless Options.AutoTune).
	tune *tuner

	// warmSink keeps the words warm read, so the compiler keeps the loads;
	// nothing reads it.
	warmSink uint64

	// pub is this rank's single-writer handle onto the MVCC read plane
	// (nil unless Options.Serve and the rank is local): value writes and
	// edge-set changes Touch their slot, and publishChores swaps in a
	// fresh immutable segment at every epoch boundary.
	pub *serve.Publisher
}

type queryReq struct {
	algo  uint8
	v     graph.VertexID
	reply chan QueryResult
}

func newRank(e *Engine, id int) *rank {
	r := &rank{
		id:       id,
		proc:     e.tr.procOf(id),
		eng:      e,
		store:    graph.NewStore(e.opts.SmallCap),
		inbox:    newMailbox(e.opts.Ranks + 1),
		out:      make([][]Event, e.opts.Ranks),
		coal:     newCoalescer(e.combine, e.opts.Ranks),
		counters: newRankCounters(e.opts.Ranks),
		lat:      &rankLats{},
		// Both countdowns start at 1 so short runs still produce samples:
		// the rank's first ingest opens a trace and its first batch is
		// drain-timed; the steady-state strides take over from there.
		sampleLeft: 1,
		drainLeft:  1,
	}
	r.cb.r = r
	r.store.SetWeightPolicy(e.opts.WeightPolicy)
	r.effBatch = e.opts.BatchSize
	r.counters.effBatch.Store(uint64(r.effBatch))
	if e.opts.AutoTune {
		r.tune = newTuner(r)
	}
	r.values = make([][]uint64, len(e.programs))
	r.prevValues = make([][]uint64, len(e.programs))
	r.gens = make([][]uint32, len(e.programs))
	r.witMask = make([][]uint64, len(e.programs))
	r.wits = make([][]graph.VertexID, len(e.programs))
	r.witLanes = make([]int, len(e.programs))
	for a, wp := range e.witness {
		if wp != nil {
			r.witLanes[a] = wp.WitnessLanes()
		}
	}
	return r
}

// loop is the rank's event loop. Default priority (the paper's §V-C
// tradeoff): algorithmic/mailbox events first, then one topology event
// from the stream — each rank "pulling a topology event as soon as local
// work is completed".
func (r *rank) loop() {
	defer r.eng.wg.Done()
	for {
		r.snapshotChores()
		r.drainQueries()
		r.publishChores()
		if r.tune != nil {
			r.tune.maybeStep()
		}

		// IngestFirst pulls a topology event BEFORE draining the mailbox
		// (eager ingestion, §V-C's tradeoff knob) but the mailbox is still
		// drained every iteration, so algorithmic work is deprioritized —
		// never starved.
		pulled := false
		if r.eng.opts.IngestFirst {
			pulled = r.pullBurst()
		}

		batch := r.inbox.drain()
		if batch != nil || r.selfPending() {
			if batch != nil {
				r.counters.batchesDrained.Add(1)
				// Component latency probes, both at batch granularity so the
				// per-event path stays clock-free: inbound residency when a
				// push left its one-at-a-time stamp, and the batch's own
				// processing time every latDrainStride-th drain.
				if ts := r.inbox.takeResidency(); ts != 0 {
					r.lat.mailbox.record(time.Now().UnixNano() - ts)
				}
				var t0 int64
				if r.drainLeft--; r.drainLeft <= 0 {
					r.drainLeft = latDrainStride
					t0 = time.Now().UnixNano()
				}
				warmed := 0
				for i := range batch {
					if i == warmed {
						warmed += r.warm(batch[i:])
					}
					r.process(&batch[i])
				}
				if t0 != 0 {
					r.lat.drain.record(time.Now().UnixNano() - t0)
				}
				r.inbox.recycle(batch)
			}
			r.drainSelf()
			r.applyDecrements()
			r.flushAll()
			continue
		}
		if pulled {
			continue
		}

		if !r.eng.opts.IngestFirst && r.pullBurst() {
			continue
		}

		// Idle: everything buffered must be visible to others before we
		// park or declare termination.
		r.flushAll()
		r.snapshotChores()
		// A requested pause parks the rank once the whole engine is
		// quiescent: external emissions are fenced, so the remaining
		// in-flight work is finite and this point is always reached.
		if r.eng.pauseReq.Load() && r.eng.Quiescent() {
			r.park()
			continue
		}
		if r.eng.tryFinish() {
			r.exit()
			return
		}
		r.inbox.wait(r.eng.done)
		if r.eng.finished.Load() {
			r.exit()
			return
		}
	}
}

// exit performs final duties after global termination: serve queries that
// raced the shutdown and contribute to any pending snapshot (termination
// implies the old version is drained).
func (r *rank) exit() {
	r.snapshotChores()
	r.drainQueries()
	// Publish the converged final state unconditionally (restamps if the
	// last epoch's segment already carries it): after termination the read
	// plane serves exactly what Collect would return. No rewrite follows,
	// so the spare segment's arrays go back to the collector.
	r.publishNow()
	if r.pub != nil {
		r.pub.DropSpare()
	}
}

// publishChores publishes a fresh serve-plane segment if an epoch boundary
// passed since this rank's last publication. Called at event boundaries
// only — the segment is always a consistent committed prefix.
func (r *rank) publishChores() {
	if r.pub != nil && r.pub.Due() {
		r.publishNow()
	}
}

// publishNow builds and swaps in this rank's segment (see serve.Publisher;
// no-ops into a restamp when no event was processed since the last one).
func (r *rank) publishNow() {
	if r.pub == nil {
		return
	}
	r.pub.Publish(r.store, r.values, r.counters.totalEvents())
}

// touchEdges marks slot for the next publish after its edge set changed.
// A weight merge needs no mark: served adjacency carries only neighbours.
func (r *rank) touchEdges(slot graph.Slot) {
	if r.pub != nil {
		r.pub.Touch(slot)
	}
}

// pullBurst pulls up to BatchSize topology events in one go. Locally-owned
// events accumulate in the self ring and remote ones in the outbound
// buffers, so the per-iteration loop overhead (mailbox lane scan, flush
// sweep, snapshot/query chores) is paid once per burst rather than once
// per event — the same amortization the outbound path gets from BatchSize.
// The mailbox is still drained between bursts, so algorithmic work is
// deprioritized, never starved.
func (r *rank) pullBurst() bool {
	if !r.pullStream() {
		return false
	}
	for n := 1; n < r.effBatch && r.pullStream(); n++ {
	}
	return true
}

// pullStream ingests one topology event; it returns false when no event is
// available right now (live stream empty, or ingestion halted by a pause
// or stop in progress) or ever again (exhausted). Live streams are polled
// without blocking so the rank keeps serving algorithmic events, queries,
// and snapshot duties while its source is quiet (§VI-A's real-time
// properties).
func (r *rank) pullStream() bool {
	ev, ok := r.nextTopoEvent()
	if !ok {
		return false
	}
	r.deliver(r.eng.part.Owner(ev.To), ev)
	return true
}

// nextTopoEvent pulls one topology event from the rank's stream and turns
// it into a labeled, in-flight-registered engine event, without delivering
// it (pullStream delivers; the sim driver delivers under its own schedule).
func (r *rank) nextTopoEvent() (Event, bool) {
	if r.streamDone || r.eng.ingestHalted() {
		return Event{}, false
	}
	var ev graph.EdgeEvent
	if live, isLive := r.stream.(stream.Live); isLive {
		var ok, closed bool
		ev, ok, closed = live.TryNext()
		if !ok {
			if closed {
				r.streamDone = true
				r.eng.streamsLeft.Add(-1)
			}
			return Event{}, false
		}
	} else {
		var ok bool
		ev, ok = r.stream.Next()
		if !ok {
			r.streamDone = true
			r.eng.streamsLeft.Add(-1)
			return Event{}, false
		}
	}
	kind := KindAdd
	if ev.Delete {
		kind = KindDelete
	}
	// Route to the owner of the edge source (§III-C: the directed edge is
	// co-located with its source vertex). The event is labeled with the
	// current snapshot sequence via the same guarded loop as external
	// emissions.
	out := Event{Kind: kind, Algo: NoAlgo, To: ev.Src, From: ev.Dst, W: ev.W}
	r.eng.labelSeq(&out)
	// A Stop that landed after the ingestHalted check above may already
	// have read every in-flight counter as zero and finished the engine,
	// with this event pulled but not yet registered. Drop it (the stopped
	// state is the prefix ingested before it) rather than process it after
	// termination.
	if r.eng.stopReq.Load() {
		r.eng.inflight[out.Seq&3].Add(-1)
		return Event{}, false
	}
	// Counted only after the in-flight increment: once Ingested() reports
	// n, all n events are either in flight or fully processed, so
	// Ingested()==pushed && Quiescent() is a sound "drained" check.
	r.eng.ingested.Add(1)
	// Cascade sampling: every SampleEvery-th ingest opens a lineage whose
	// Trace tags the event and, transitively, its whole cascade. The
	// unsampled path pays exactly this countdown.
	if r.eng.traces != nil {
		if r.sampleLeft--; r.sampleLeft <= 0 {
			r.sampleLeft = r.eng.opts.SampleEvery
			out.Trace = r.eng.traces.start(&out, r.id, r.proc)
		}
	}
	return out, true
}

// emit routes a callback-generated event; the child inherits its parent's
// snapshot sequence (§III-D), which the caller already set. A combinable
// UPDATE first tries to merge into a same-key UPDATE still sitting in the
// destination's buffer — a merged event is dropped before the in-flight
// increment, so the ring counters stay exact with no extra bookkeeping.
// Otherwise the in-flight increment happens before the parent's (batched)
// decrement, so the ring counter cannot falsely reach zero.
func (r *rank) emit(ev Event) {
	r.counters.cascadeEmits.Add(1)
	dest := r.eng.part.Owner(ev.To)
	if ev.Kind == KindUpdate && r.coal.combinable(ev.Algo) {
		if merged, into := r.coal.combineInto(r, dest, &ev); merged {
			r.counters.combinedAway.Add(1)
			// The merged event joins its lineage as a leaf (never delivered,
			// so no pending count) — CombinedAway, explained per event.
			if r.curTrace != 0 {
				r.eng.traces.merged(r.curTrace, &ev, r.id, r.proc, into)
			}
			return
		}
		// The child's trace must be opened before the in-flight increment,
		// mirroring the ring discipline: its lineage pending count is up
		// before the parent's retire can run.
		if r.curTrace != 0 {
			ev.Trace = r.eng.traces.child(r.curTrace, &ev, r.id, r.proc)
		}
		r.eng.inflight[ev.Seq&3].Add(1)
		if pos := r.deliver(dest, ev); pos >= 0 {
			r.coal.remember(dest, &ev, pos)
		}
		return
	}
	if r.curTrace != 0 {
		ev.Trace = r.eng.traces.child(r.curTrace, &ev, r.id, r.proc)
	}
	r.eng.inflight[ev.Seq&3].Add(1)
	r.deliver(dest, ev)
}

// deliver appends ev to its destination buffer: the self-delivery ring for
// this rank's own vertices, the outbound buffer otherwise (flushed when
// full). It returns the buffered position, or -1 when the event is no
// longer addressable (the append triggered a flush).
func (r *rank) deliver(dest int, ev Event) int {
	if ev.Kind != KindUpdate {
		// Ordering barrier: no later UPDATE may coalesce backward across
		// a topology/init/signal event on the same channel.
		r.coal.barrier(dest)
	}
	if dest == r.id {
		r.counters.selfDelivered.Add(1)
		r.self = append(r.self, ev)
		return len(r.self) - 1
	}
	r.out[dest] = append(r.out[dest], ev)
	if len(r.out[dest]) >= r.effBatch {
		r.flush(dest)
		return -1
	}
	return len(r.out[dest]) - 1
}

// selfPending reports whether the self-delivery ring holds unprocessed
// events.
func (r *rank) selfPending() bool { return r.selfHead < len(r.self) }

// drainSelf processes every event in the self-delivery ring, including
// ones appended by the cascades it runs (events are read by value, so
// append-driven reallocation during iteration is safe). The ring's storage
// is kept for reuse unless the drain left a flood-sized ring mostly idle
// (reuseDrained).
func (r *rank) drainSelf() {
	if !r.selfPending() {
		return
	}
	warmed := r.selfHead
	for r.selfHead < len(r.self) {
		if r.selfHead == warmed {
			warmed += r.warm(r.self[r.selfHead:])
		}
		ev := r.self[r.selfHead]
		r.selfHead++
		r.process(&ev)
	}
	r.self = reuseDrained(r.self)
	r.selfHead = 0
	r.coal.barrier(r.id)
}

// warmN is how many upcoming events of a drain warm reads ahead for.
const warmN = 16

// warm reads ahead for the first warmN events of evs and returns how many
// it covered. For each topology event (ADD, REVERSE_ADD, DELETE,
// REVERSE_DELETE) it looks up the target's slot, then, once every slot is
// known, peeks at the store memory the event's edge lookup will touch
// (graph.Store.Peek). The lookups of one window do not depend on each
// other, so the core overlaps their cache misses, and processing the
// window then finds its adjacency in cache. It changes nothing and
// reorders nothing. UPDATEs are not covered: their vertex state is mostly
// in cache already, and warming them cost more than it saved.
func (r *rank) warm(evs []Event) int {
	n := min(len(evs), warmN)
	var slots [warmN]graph.Slot
	for i := range n {
		slots[i] = graph.NoSlot
		switch evs[i].Kind {
		case KindAdd, KindReverseAdd, KindDelete, KindReverseDelete:
			slots[i], _ = r.store.SlotOf(evs[i].To)
		}
	}
	var mix uint64
	for i := range n {
		if slots[i] != graph.NoSlot {
			mix ^= r.store.Peek(slots[i], evs[i].From)
		}
	}
	r.warmSink = mix
	return n
}

// drainSelfOne processes exactly one self-ring event (the sim driver's
// stepping granularity), invoking pre (if non-nil) with the event before it
// runs. The ring reset and coalescer barrier mirror drainSelf's.
func (r *rank) drainSelfOne(pre func(Event)) bool {
	if !r.selfPending() {
		return false
	}
	ev := r.self[r.selfHead]
	r.selfHead++
	if pre != nil {
		pre(ev)
	}
	r.process(&ev)
	if !r.selfPending() {
		r.self = reuseDrained(r.self)
		r.selfHead = 0
		r.coal.barrier(r.id)
	}
	return true
}

func (r *rank) flush(dest int) {
	if len(r.out[dest]) == 0 {
		return
	}
	// Flush-interval probe: one clock read per non-empty flush (already
	// amortized over the whole outbound batch, like the traffic counters
	// below).
	now := time.Now().UnixNano()
	if r.lastFlushNS != 0 {
		r.lat.flushGap.record(now - r.lastFlushNS)
	}
	r.lastFlushNS = now
	// The buffered positions the coalescer remembered are gone.
	r.coal.barrier(dest)
	// Simulation seam: the observer sees the true batch order, then the
	// mutation hook (mutation testing only) may corrupt it. Both are nil in
	// production, costing one predictable branch per flushed batch.
	if r.eng.simFlushHook != nil {
		r.eng.simFlushHook(r.id, dest, r.out[dest])
	}
	if r.eng.simMutateBatch != nil {
		r.eng.simMutateBatch(r.out[dest])
	}
	// Counted at flush, not per send: one pair of adds amortized over the
	// whole outbound batch.
	r.counters.sentTo[dest].Add(uint64(len(r.out[dest])))
	r.counters.flushesTo[dest].Add(1)
	// The transport seam: inproc pushes straight onto dest's SPSC mailbox
	// lane (the pre-seam hot path, branch-predicted through the interface);
	// TCP encodes the batch as one EVENTS frame and hands the events'
	// in-flight registrations over to the receiving node.
	r.eng.tr.Send(r.id, dest, r.out[dest])
	r.out[dest] = r.out[dest][:0]
}

func (r *rank) flushAll() {
	for dest := range r.out {
		r.flush(dest)
	}
}

func (r *rank) applyDecrements() {
	for i := range r.pendingDec {
		if n := r.pendingDec[i]; n != 0 {
			r.pendingDec[i] = 0
			if r.eng.inflight[i].Add(-n) == 0 {
				// A version may just have drained: snapshots, idle ranks
				// awaiting termination or the pause barrier, and quiescence
				// waiters all need to know.
				if snap := r.eng.activeSnap.Load(); snap != nil && uint32(i) == (snap.marker-1)&3 {
					r.eng.wakeAll()
				} else if r.eng.streamsLeft.Load() == 0 || r.eng.ingestHalted() {
					r.eng.wakeAll()
				}
				r.eng.signalQuiesce()
			}
		}
	}
}

// growValues extends every state array to cover a newly created slot, in a
// single step per array (Unset is the zero value, so the grown region
// needs no explicit fill; witness-free and generation-zero are likewise
// the zero values of the witness arrays).
func (r *rank) growValues(slot graph.Slot) {
	for a := range r.values {
		r.values[a] = grownTo(r.values[a], slot)
		if n := r.witLanes[a]; n != 0 {
			r.gens[a] = grownSlice(r.gens[a], int(slot)+1)
			r.witMask[a] = grownSlice(r.witMask[a], int(slot)+1)
			r.wits[a] = grownSlice(r.wits[a], (int(slot)+1)*n)
		}
	}
}

// setPrevValue writes previous-version state, growing the array for
// vertices created by old-version events after the local copy was taken.
func (r *rank) setPrevValue(algo uint8, slot graph.Slot, v uint64) {
	r.prevValues[algo] = grownTo(r.prevValues[algo], slot)
	r.prevValues[algo][slot] = v
}

// prevValue reads previous-version state; slots beyond the marker-time
// copy that no old-version event has touched read as Unset.
func (r *rank) prevValue(algo uint8, slot graph.Slot) uint64 {
	pv := r.prevValues[algo]
	if int(slot) >= len(pv) {
		return Unset
	}
	return pv[slot]
}

// grownTo returns vals extended (in one step) so that slot is in range.
func grownTo(vals []uint64, slot graph.Slot) []uint64 {
	return grownSlice(vals, int(slot)+1)
}

// grownSlice returns s extended (in one step) to at least length n.
func grownSlice[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	if n <= cap(s) {
		return s[:n] // append-grown capacity is already zeroed
	}
	grown := make([]T, n, max(n, 2*cap(s)))
	copy(grown, s)
	return grown
}

// process dispatches one event. The in-flight decrement is batched in
// pendingDec and applied by the caller after the whole batch. The per-kind
// counter add is the hot path's entire instrumentation cost: one
// uncontended atomic add on a rank-owned cache line.
func (r *rank) process(ev *Event) {
	if invariants {
		r.enterProcess()
	}
	r.counters.events[ev.Kind].Add(1)
	// A traced event makes its lineage current for the duration of its
	// callbacks, so every emit it performs is recorded as its child.
	// process never nests (drains are sequential), so a plain field works.
	if ev.Trace != 0 {
		r.curTrace = ev.Trace
	}
	if r.eng.activeSnap.Load() != nil {
		// Must copy the previous-version state before applying any event
		// once a snapshot is active (old events would double-apply via
		// the copy; new events must not leak into it).
		r.ensureSnapBegun()
	}
	switch ev.Kind {
	case KindAdd:
		r.handleAdd(ev)
	case KindReverseAdd:
		r.handleReverseAdd(ev)
	case KindReverseAddPrev:
		r.handleReverseAddPrev(ev)
	case KindUpdate:
		r.handleUpdate(ev)
	case KindInit:
		r.handleInit(ev)
	case KindDelete:
		r.handleDelete(ev)
	case KindReverseDelete:
		r.handleReverseDelete(ev)
	case KindSignal:
		r.handleSignal(ev)
	case KindInvalidate:
		r.handleInvalidate(ev)
	}
	r.pendingDec[ev.Seq&3]++
	// Retire strictly after the dispatch emitted (and trace-registered) all
	// children: the lineage pending count can only reach zero at true
	// cascade quiescence, at which point retire finalizes the lineage and
	// records its ingest-to-quiescence latency on this rank.
	if ev.Trace != 0 {
		r.curTrace = 0
		r.eng.traces.retire(ev.Trace, r, r.proc)
	}
	if invariants {
		r.inProcess = false
	}
}

// dualRun reports whether the event belongs to the previous version of an
// active snapshot for program algo, in which case its callback must also
// run against the previous-version view (§III-D: "both S_prev and S_new
// apply the state modifier").
func (r *rank) dualRun(seq uint32, algo uint8) bool {
	snap := r.eng.activeSnap.Load()
	return snap != nil && seq < snap.marker && int(algo) == snap.Algo
}

// ctx readies the rank's one Ctx for the next callback and returns it.
// Reusing it, rather than passing the address of a fresh value into an
// interface call, keeps it off the heap. That is safe because callbacks
// never nest on a rank: a callback's Ctx methods only buffer emissions, and
// the handlers and visit run one callback at a time, always inside process.
func (r *rank) ctx(algo uint8, slot graph.Slot, id graph.VertexID, seq uint32, v view) *Ctx {
	if invariants {
		r.assertInProcess()
	}
	c := &r.cb
	c.algo, c.slot, c.id, c.seq, c.view = algo, slot, id, seq, v
	return c
}

// enterProcess (invariants builds) asserts that process never nests on a
// rank. ctx is only called inside process, so this is what guarantees no
// callback sees its Ctx overwritten mid-run.
func (r *rank) enterProcess() {
	if r.inProcess {
		panic(fmt.Sprintf("invariant: rank %d re-entered process while a callback was running", r.id))
	}
	r.inProcess = true
}

// assertInProcess (invariants builds) asserts that ctx is reached only from
// inside process.
func (r *rank) assertInProcess() {
	if !r.inProcess {
		panic(fmt.Sprintf("invariant: rank %d built a callback Ctx outside process", r.id))
	}
}

// assertLiveEdge (invariants builds) asserts the argument behind the gated
// live-edge guard: while this rank has removed no edge, the edge an UPDATE
// arrives over is in the store.
func (r *rank) assertLiveEdge(slot graph.Slot, ev *Event) {
	if _, present := r.store.EdgeWeight(slot, ev.From); !present {
		panic(fmt.Sprintf("invariant: rank %d got an UPDATE %d→%d over an absent edge with no edge ever removed",
			r.id, ev.From, ev.To))
	}
}

func (r *rank) handleAdd(ev *Event) {
	slot, created, isNew := r.store.AddEdge(ev.To, ev.From, ev.W, ev.Seq)
	if created {
		r.growValues(slot)
	}
	if isNew {
		r.touchEdges(slot)
	}
	for a, p := range r.eng.programs {
		p.OnAdd(r.ctx(uint8(a), slot, ev.To, ev.Seq, viewLive), ev.From, ev.W)
		if r.dualRun(ev.Seq, uint8(a)) {
			p.OnAdd(r.ctx(uint8(a), slot, ev.To, ev.Seq, viewPrev), ev.From, ev.W)
		}
	}
	if r.eng.opts.Undirected {
		// Serialize undirected edge creation through the FIFO channel to
		// the destination's owner (§III-C): the reverse edge exists
		// before any later event can traverse it. One reverse-add per
		// program carries that program's source-vertex value (Algorithm 3
		// queues this.value); with no programs a topology-only
		// notification is sent.
		if len(r.eng.programs) == 0 {
			r.emit(Event{Kind: KindReverseAdd, Algo: NoAlgo, Seq: ev.Seq,
				To: ev.From, From: ev.To, W: ev.W})
		}
		for a := range r.eng.programs {
			r.emit(Event{Kind: KindReverseAdd, Algo: uint8(a), Seq: ev.Seq,
				Gen: r.genOf(uint8(a), slot),
				To:  ev.From, From: ev.To, Val: r.values[a][slot], W: ev.W})
			if r.dualRun(ev.Seq, uint8(a)) {
				// The reverse-add above carries the live value, which may
				// already be converged past the snapshot prefix; the
				// destination's previous-version callback needs the
				// *previous-version* value or it can skip the
				// back-notification the old version still requires.
				r.emit(Event{Kind: KindReverseAddPrev, Algo: uint8(a), Seq: ev.Seq,
					To: ev.From, From: ev.To, Val: r.prevValue(uint8(a), slot), W: ev.W})
			}
		}
	}
}

func (r *rank) handleReverseAdd(ev *Event) {
	slot, created, isNew := r.store.AddEdge(ev.To, ev.From, ev.W, ev.Seq)
	if created {
		r.growValues(slot)
	}
	if isNew {
		r.touchEdges(slot)
	}
	if ev.Algo == NoAlgo {
		return
	}
	p := r.eng.programs[ev.Algo]
	wp := r.eng.witness[ev.Algo]
	// The reverse edge is inserted above regardless, but the carried value
	// still passes the generation guard: from a generation below ours it
	// may be supported by an already-deleted edge.
	if wp != nil && !r.admitGen(wp, ev, slot) {
		return
	}
	var before uint64
	if wp != nil {
		before = r.values[ev.Algo][slot]
	}
	p.OnReverseAdd(r.ctx(ev.Algo, slot, ev.To, ev.Seq, viewLive), ev.From, ev.Val, ev.W)
	if wp != nil {
		r.recordWitness(wp, ev, slot, before)
	}
	if r.dualRun(ev.Seq, ev.Algo) {
		p.OnReverseAdd(r.ctx(ev.Algo, slot, ev.To, ev.Seq, viewPrev), ev.From, ev.Val, ev.W)
	}
}

// handleReverseAddPrev runs the previous-version half of an undirected
// edge insertion whose forward half dual-ran: the same OnReverseAdd
// exchange, but with the first endpoint's previous-version value and
// against the previous-version view only. The topology work already
// happened when the ordinary reverse-add — emitted immediately before this
// twin on the same FIFO channel — was processed.
func (r *rank) handleReverseAddPrev(ev *Event) {
	slot, ok := r.store.SlotOf(ev.To)
	if !ok || !r.dualRun(ev.Seq, ev.Algo) {
		return
	}
	r.eng.programs[ev.Algo].OnReverseAdd(r.ctx(ev.Algo, slot, ev.To, ev.Seq, viewPrev), ev.From, ev.Val, ev.W)
}

func (r *rank) handleUpdate(ev *Event) {
	slot, ok := r.store.SlotOf(ev.To)
	if !ok {
		// Directed mode: the destination vertex materializes lazily when
		// the first value reaches it.
		slot, _ = r.store.EnsureVertex(ev.To)
		r.growValues(slot)
	}
	p := r.eng.programs[ev.Algo]
	wp := r.eng.witness[ev.Algo]
	w := ev.W
	if wp != nil {
		// Live-edge guard: under deletions a value may only be accepted
		// over an edge that still exists — an UPDATE that raced the
		// deletion of its own edge would smuggle the doomed value back in.
		// (Witness programs run undirected, so the reverse edge is always
		// locally visible; this guard is why directed mode keeps witness
		// deletion off.) Only a rank that has removed an edge can receive
		// such an UPDATE: the reverse-add travels the sender's FIFO channel
		// ahead of any UPDATE over the new edge, so until the first removal
		// the probe could only answer "present". Once it runs, the value
		// applies over the edge's live weight: the edge may have been
		// deleted and re-added with another weight since the sender emitted.
		if r.removedEdge {
			live, present := r.store.EdgeWeight(slot, ev.From)
			if !present {
				return
			}
			w = live
		} else if invariants {
			r.assertLiveEdge(slot, ev)
		}
		if !r.admitGen(wp, ev, slot) {
			return
		}
	}
	var before uint64
	if wp != nil {
		before = r.values[ev.Algo][slot]
	}
	p.OnUpdate(r.ctx(ev.Algo, slot, ev.To, ev.Seq, viewLive), ev.From, ev.Val, w)
	if wp != nil {
		r.recordWitness(wp, ev, slot, before)
	}
	if r.dualRun(ev.Seq, ev.Algo) {
		p.OnUpdate(r.ctx(ev.Algo, slot, ev.To, ev.Seq, viewPrev), ev.From, ev.Val, w)
	}
}

func (r *rank) handleInit(ev *Event) {
	slot, created := r.store.EnsureVertex(ev.To)
	if created {
		r.growValues(slot)
	}
	p := r.eng.programs[ev.Algo]
	wp := r.eng.witness[ev.Algo]
	var before uint64
	if wp != nil {
		before = r.values[ev.Algo][slot]
	}
	p.Init(r.ctx(ev.Algo, slot, ev.To, ev.Seq, viewLive))
	if wp != nil {
		// Init progress is self-supported (the paper's external
		// instantiation, not an edge traversal): no edge deletion may ever
		// doom it, so the improved lanes carry no witness.
		r.clearWitness(wp, ev.Algo, slot, before)
	}
	if r.dualRun(ev.Seq, ev.Algo) {
		p.Init(r.ctx(ev.Algo, slot, ev.To, ev.Seq, viewPrev))
	}
}

func (r *rank) handleSignal(ev *Event) {
	sa, ok := r.eng.programs[ev.Algo].(SignalAware)
	if !ok {
		return
	}
	slot, created := r.store.EnsureVertex(ev.To)
	if created {
		r.growValues(slot)
	}
	wp := r.eng.witness[ev.Algo]
	var before uint64
	if wp != nil {
		before = r.values[ev.Algo][slot]
	}
	sa.OnSignal(r.ctx(ev.Algo, slot, ev.To, ev.Seq, viewLive), ev.Val)
	if wp != nil {
		// Signal progress is external input, self-supported like Init.
		r.clearWitness(wp, ev.Algo, slot, before)
	}
	if r.dualRun(ev.Seq, ev.Algo) {
		sa.OnSignal(r.ctx(ev.Algo, slot, ev.To, ev.Seq, viewPrev), ev.Val)
	}
}

func (r *rank) pushQuery(q queryReq) {
	r.qmu.Lock()
	r.queries = append(r.queries, q)
	r.qmu.Unlock()
	r.inbox.poke()
}

// drainQueries serves pending local-state observations between events —
// "any vertices' local state can be observed in constant time" (§VI-A).
func (r *rank) drainQueries() {
	r.qmu.Lock()
	qs := r.queries
	r.queries = nil
	r.qmu.Unlock()
	if len(qs) > 0 {
		r.counters.queriesServed.Add(uint64(len(qs)))
	}
	for _, q := range qs {
		res := QueryResult{}
		if slot, ok := r.store.SlotOf(q.v); ok {
			res.Exists = true
			if vals := r.values[q.algo]; int(slot) < len(vals) {
				res.Value = vals[slot]
			}
		}
		q.reply <- res
	}
}

// checkTriggers evaluates registered triggers against a fresh local-state
// value (§III-E). Monotonicity ensures no false positives; the fired
// bitmap ensures each trigger fires at most once per vertex.
func (r *rank) checkTriggers(algo uint8, slot graph.Slot, id graph.VertexID, v uint64) {
	for ti := range r.eng.triggers {
		t := &r.eng.triggers[ti]
		if t.algo != algo || !t.pred(id, v) {
			continue
		}
		word, bit := int(slot)/64, uint(slot)%64
		for len(r.firedBits) <= ti {
			r.firedBits = append(r.firedBits, nil)
		}
		for len(r.firedBits[ti]) <= word {
			r.firedBits[ti] = append(r.firedBits[ti], 0)
		}
		if r.firedBits[ti][word]&(1<<bit) != 0 {
			continue
		}
		r.firedBits[ti][word] |= 1 << bit
		t.action(id, v)
	}
}
