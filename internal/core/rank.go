package core

import (
	"math/bits"
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

	// pub is this rank's single-writer handle onto the MVCC read plane
	// (nil unless Options.Serve and the rank is local): mutation handlers
	// mirror adjacency changes into it, and publishChores swaps in a fresh
	// immutable segment at every epoch boundary.
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
	r.store.SetWeightPolicy(e.opts.WeightPolicy)
	if !e.opts.NoHybrid {
		r.store.EnableHybrid(e.opts.CompactCap)
	}
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
		r.compactChores()
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
				for i := range batch {
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
	// plane serves exactly what Collect would return.
	r.publishNow()
}

// compactBurst caps how many queued vertices a rank compacts per loop
// iteration, keeping the chore's latency contribution bounded the way
// drainQueries bounds query service.
const compactBurst = 4

// compactChores merges a few queued vertices' deltas into their immutable
// segments (internal/graph/hybrid.go). Runs at event boundaries only, on
// this rank's own shard — shared-nothing, zero locking, no ingestion
// pause. Freshly compacted segments are handed to the serve plane by
// reference.
func (r *rank) compactChores() {
	for i := 0; i < compactBurst; i++ {
		if !r.compactOne() {
			return
		}
	}
}

// compactOne pops and compacts one queued vertex, reporting whether the
// queue held anything.
func (r *rank) compactOne() bool {
	slot, compacted, ok := r.store.CompactNext()
	if !ok {
		return false
	}
	if compacted && r.pub != nil {
		r.pub.SegmentCompacted(slot, r.store.Segment(slot))
	}
	return true
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
	r.pub.Publish(r.store.IDs(), r.values, r.counters.totalEvents())
}

// mirrorAdd reflects an edge insertion into the serve plane's adjacency
// mirror: a brand-new half-edge appends, a duplicate may have merged its
// weight under the store's policy — fetch the merged result and mirror
// that (no-op if unchanged).
func (r *rank) mirrorAdd(slot graph.Slot, nbr graph.VertexID, w graph.Weight, isNew bool) {
	if r.pub == nil {
		return
	}
	if isNew {
		r.pub.EdgeAdded(slot, nbr, w)
	} else if merged, ok := r.store.EdgeWeight(slot, nbr); ok {
		r.pub.EdgeWeight(slot, nbr, merged)
	}
}

// pullStream ingests one topology event; it returns false when no event is
// available right now (live stream empty, or ingestion halted by a pause
// or stop in progress) or ever again (exhausted). Live streams are polled
// without blocking so the rank keeps serving algorithmic events, queries,
// and snapshot duties while its source is quiet (§VI-A's real-time
// properties).
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
// is kept for reuse.
func (r *rank) drainSelf() {
	if !r.selfPending() {
		return
	}
	for r.selfHead < len(r.self) {
		ev := r.self[r.selfHead]
		r.selfHead++
		r.process(&ev)
	}
	r.self = r.self[:0]
	r.selfHead = 0
	r.coal.barrier(r.id)
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
		r.self = r.self[:0]
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

// genOf reads a vertex's witness generation (0 for non-witness programs
// and vertices never invalidated) — the generation every value the vertex
// emits is stamped with.
func (r *rank) genOf(algo uint8, slot graph.Slot) uint32 {
	g := r.gens[algo]
	if int(slot) >= len(g) {
		return 0
	}
	return g[slot]
}

// unsafeLanes is the RisGraph-style safe/unsafe classification: the lanes
// of (algo, slot) whose recorded supporting witness is nbr. A deletion (or
// upstream invalidation) of the edge to nbr dooms exactly these lanes;
// every other lane's value is supported by a surviving parent and is safe.
func (r *rank) unsafeLanes(algo uint8, slot graph.Slot, nbr graph.VertexID) uint64 {
	masks := r.witMask[algo]
	if int(slot) >= len(masks) || masks[slot] == 0 {
		return 0
	}
	var unsafe uint64
	base := int(slot) * r.witLanes[algo]
	for m := masks[slot]; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros64(m)
		if r.wits[algo][base+lane] == nbr {
			unsafe |= 1 << lane
		}
	}
	return unsafe
}

// recordWitness runs after a live-view OnUpdate/OnReverseAdd callback for
// a witness program: lanes the callback improved adopt ev.From as their
// supporting parent. The stored generation is never touched here — a
// vertex's generation changes only in visit, which pairs the adoption of
// a newer generation with the reset of every witnessed lane. (Callers
// visit before applying any value carried under a newer generation, so
// ev.Gen <= gens[slot] always holds at this point; adopting ev.Gen here
// without that reset would let stale lanes re-emit under the new
// generation and slip past other vertices' generation guards.)
func (r *rank) recordWitness(wp WitnessProgram, ev *Event, slot graph.Slot, before uint64) {
	lanes := wp.ChangedLanes(before, r.values[ev.Algo][slot])
	if lanes == 0 {
		return
	}
	r.witMask[ev.Algo][slot] |= lanes
	base := int(slot) * r.witLanes[ev.Algo]
	for m := lanes; m != 0; m &= m - 1 {
		r.wits[ev.Algo][base+bits.TrailingZeros64(m)] = ev.From
	}
}

// clearWitness marks lanes self-supported (Init/Signal progress: the value
// came from outside the topology, so no edge deletion can doom it).
func (r *rank) clearWitness(wp WitnessProgram, algo uint8, slot graph.Slot, before uint64) {
	if lanes := wp.ChangedLanes(before, r.values[algo][slot]); lanes != 0 {
		r.witMask[algo][slot] &^= lanes
	}
}

// invalidate starts an invalidation cascade at (algo, slot): the root
// visit, under a globally fresh cascade generation. One generation is
// minted per cascade — every vertex the flood reaches adopts this same
// number, so "my generation >= the event's" is a visited marker and each
// vertex participates in a cascade at most once (generations are strictly
// increasing, so the marker can never be un-set). That visit-once bound is
// what makes the cascade terminate even when recorded witnesses form
// cycles (reset epochs can close honest cycles: a re-learns from b whose
// value earlier derived from a — see DESIGN.md "Deletions").
func (r *rank) invalidate(wp WitnessProgram, algo uint8, slot graph.Slot,
	id graph.VertexID, seq uint32) {
	r.visit(wp, algo, slot, id, seq, r.eng.nextGen())
}

// visit runs one vertex's participation in cascade generation gen: adopt
// the generation, reseed every witnessed lane (self-supported lanes —
// Init/Signal progress, a reseed bottom — survive: they are the frontier
// the region re-converges from), and flood INVALIDATE to every live
// neighbour. Resetting all witnessed lanes, not just the ones witnessing
// the cascade's sender, is what makes the protocol sound when witness
// pointers lie in cycles ("doomed islands" whose members support each
// other): the flood covers the entire live component without trusting any
// witness direction, and after the visit every value the vertex emits is
// stamped gen — so, inductively, any value accepted under gen derives
// from self-supported lanes over live edges only.
//
// The flood doubles as the re-seed: each INVALIDATE carries the sender's
// post-reset value, which an already-visited receiver applies as an
// ordinary update. Because every neighbour gets the INVALIDATE before any
// later gen-stamped traffic on the same FIFO channel, no value stamped
// gen can arrive anywhere before the visit that justifies it.
func (r *rank) visit(wp WitnessProgram, algo uint8, slot graph.Slot,
	id graph.VertexID, seq uint32, gen uint32) {
	r.gens[algo][slot] = gen
	if lanes := r.witMask[algo][slot]; lanes != 0 {
		r.witMask[algo][slot] = 0
		ctx := r.ctx(algo, slot, id, seq, viewLive)
		wp.Reseed(&ctx, lanes)
	}
	val := r.values[algo][slot]
	r.store.Neighbors(slot, func(nbr graph.VertexID, w graph.Weight) bool {
		r.emit(Event{Kind: KindInvalidate, Algo: algo, Seq: seq, Gen: gen,
			To: nbr, From: id, Val: val, W: w})
		return true
	})
}

// handleInvalidate receives one step of an invalidation flood from
// ev.From. An unvisited vertex (generation below the cascade's) visits —
// reset plus onward flood; a visited one absorbs the step. Either way the
// carried value is then applied over the surviving edge like a plain
// update: the flood re-offers every surviving value to every reset
// vertex, so the region re-converges from the self-supported frontier
// with no separate re-seeding round. A step from a cascade older than the
// vertex's generation applies nothing (its value may predate our reset)
// but echoes our value back — the sender is freshly reset and owed a
// re-offer under our newer generation.
func (r *rank) handleInvalidate(ev *Event) {
	wp := r.eng.witness[ev.Algo]
	if wp == nil {
		return
	}
	slot, ok := r.store.SlotOf(ev.To)
	if !ok {
		return
	}
	r.growValues(slot)
	own := r.genOf(ev.Algo, slot)
	switch {
	case own < ev.Gen:
		r.visit(wp, ev.Algo, slot, ev.To, ev.Seq, ev.Gen)
	case own > ev.Gen:
		if w, present := r.store.EdgeWeight(slot, ev.From); present {
			r.emit(Event{Kind: KindUpdate, Algo: ev.Algo, Seq: ev.Seq, Gen: own,
				To: ev.From, From: ev.To, Val: r.values[ev.Algo][slot], W: w})
		}
		return
	}
	w, present := r.store.EdgeWeight(slot, ev.From)
	if !present {
		return
	}
	before := r.values[ev.Algo][slot]
	ctx := r.ctx(ev.Algo, slot, ev.To, ev.Seq, viewLive)
	r.eng.programs[ev.Algo].OnUpdate(&ctx, ev.From, ev.Val, w)
	r.recordWitness(wp, ev, slot, before)
}

// solicit answers a stale-generation value offer: an INVALIDATE back to
// the sender carrying our generation and value. An unvisited sender is
// pulled into the cascade (visit: reset plus flood — it would have been
// reached by the flood over this same edge anyway); a visited one applies
// our value and its own re-offer has either already flooded or arrives as
// ordinary updates. Either way the value exchange this edge owes
// completes under the new generation.
func (r *rank) solicit(ev *Event, slot graph.Slot, gen uint32) {
	w, present := r.store.EdgeWeight(slot, ev.From)
	if !present {
		return
	}
	r.emit(Event{Kind: KindInvalidate, Algo: ev.Algo, Seq: ev.Seq, Gen: gen,
		To: ev.From, From: ev.To, Val: r.values[ev.Algo][slot], W: w})
}

// witnessDelete classifies one endpoint of an edge deletion for a witness
// program and starts the invalidation cascade when any lane was supported
// by the removed neighbour. Safe deletions (the overwhelming majority on
// real churn) end here, costing one witness probe.
func (r *rank) witnessDelete(wp WitnessProgram, algo uint8, slot graph.Slot, ev *Event) {
	if r.eng.simSkipInvalidate {
		return
	}
	if r.unsafeLanes(algo, slot, ev.From) != 0 {
		r.invalidate(wp, algo, slot, ev.To, ev.Seq)
	}
}

// process dispatches one event. The in-flight decrement is batched in
// pendingDec and applied by the caller after the whole batch. The per-kind
// counter add is the hot path's entire instrumentation cost: one
// uncontended atomic add on a rank-owned cache line.
func (r *rank) process(ev *Event) {
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
}

// dualRun reports whether the event belongs to the previous version of an
// active snapshot for program algo, in which case its callback must also
// run against the previous-version view (§III-D: "both S_prev and S_new
// apply the state modifier").
func (r *rank) dualRun(seq uint32, algo uint8) bool {
	snap := r.eng.activeSnap.Load()
	return snap != nil && seq < snap.marker && int(algo) == snap.Algo
}

func (r *rank) ctx(algo uint8, slot graph.Slot, id graph.VertexID, seq uint32, v view) Ctx {
	return Ctx{r: r, algo: algo, slot: slot, id: id, seq: seq, view: v}
}

func (r *rank) handleAdd(ev *Event) {
	slot, created, isNew := r.store.AddEdge(ev.To, ev.From, ev.W, ev.Seq)
	if created {
		r.growValues(slot)
	}
	r.mirrorAdd(slot, ev.From, ev.W, isNew)
	for a := range r.eng.programs {
		ctx := r.ctx(uint8(a), slot, ev.To, ev.Seq, viewLive)
		r.eng.programs[a].OnAdd(&ctx, ev.From, ev.W)
		if r.dualRun(ev.Seq, uint8(a)) {
			pctx := r.ctx(uint8(a), slot, ev.To, ev.Seq, viewPrev)
			r.eng.programs[a].OnAdd(&pctx, ev.From, ev.W)
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
	r.mirrorAdd(slot, ev.From, ev.W, isNew)
	if ev.Algo == NoAlgo {
		return
	}
	p := r.eng.programs[ev.Algo]
	wp := r.eng.witness[ev.Algo]
	if wp != nil {
		// The reverse edge is inserted above regardless, but a carried
		// value from a generation below ours may be supported by an
		// already-deleted edge: skip the callback and solicit a re-offer
		// instead (the value exchange this edge owes still happens, under
		// the fresh generation).
		if gen := r.genOf(ev.Algo, slot); ev.Gen < gen {
			r.solicit(ev, slot, gen)
			return
		} else if ev.Gen > gen {
			// A newly inserted edge can deliver a newer generation ahead of
			// any flood (the flood only covered edges alive at visit time):
			// visit before accepting, same as handleUpdate's guard. The
			// flood emitted here travels the fresh reverse edge too, so the
			// cascade's coverage extends to topology added mid-flight.
			r.visit(wp, ev.Algo, slot, ev.To, ev.Seq, ev.Gen)
		}
	}
	var before uint64
	if wp != nil {
		before = r.values[ev.Algo][slot]
	}
	ctx := r.ctx(ev.Algo, slot, ev.To, ev.Seq, viewLive)
	p.OnReverseAdd(&ctx, ev.From, ev.Val, ev.W)
	if wp != nil {
		r.recordWitness(wp, ev, slot, before)
	}
	if r.dualRun(ev.Seq, ev.Algo) {
		pctx := r.ctx(ev.Algo, slot, ev.To, ev.Seq, viewPrev)
		p.OnReverseAdd(&pctx, ev.From, ev.Val, ev.W)
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
	pctx := r.ctx(ev.Algo, slot, ev.To, ev.Seq, viewPrev)
	r.eng.programs[ev.Algo].OnReverseAdd(&pctx, ev.From, ev.Val, ev.W)
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
	if wp != nil {
		// Live-edge guard: under deletions a value may only be accepted
		// over an edge that still exists — an UPDATE that raced the
		// deletion of its own edge would smuggle the doomed value back in.
		// (Witness programs run undirected, so the reverse edge is always
		// locally visible; this guard is why directed mode keeps witness
		// deletion off.)
		if _, present := r.store.EdgeWeight(slot, ev.From); !present {
			return
		}
		if gen := r.genOf(ev.Algo, slot); ev.Gen < gen {
			// Stale generation: the value may predate our invalidation.
			// Drop it, but ask the sender to re-offer under our generation
			// — unconditionally dropping could lose the last offer of a
			// still-valid value.
			r.solicit(ev, slot, gen)
			return
		} else if ev.Gen > gen {
			// A value stamped with a cascade we have not been visited by.
			// Visit first (reset witnessed lanes, adopt the generation,
			// flood onward): accepting the value while merely bumping our
			// generation would let our untouched stale lanes re-emit under
			// it, laundering doomed values past other vertices' guards —
			// and absorbing the later flood arrival without forwarding it
			// would leave our witness children uncovered.
			r.visit(wp, ev.Algo, slot, ev.To, ev.Seq, ev.Gen)
		}
	}
	var before uint64
	if wp != nil {
		before = r.values[ev.Algo][slot]
	}
	ctx := r.ctx(ev.Algo, slot, ev.To, ev.Seq, viewLive)
	p.OnUpdate(&ctx, ev.From, ev.Val, ev.W)
	if wp != nil {
		r.recordWitness(wp, ev, slot, before)
	}
	if r.dualRun(ev.Seq, ev.Algo) {
		pctx := r.ctx(ev.Algo, slot, ev.To, ev.Seq, viewPrev)
		p.OnUpdate(&pctx, ev.From, ev.Val, ev.W)
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
	ctx := r.ctx(ev.Algo, slot, ev.To, ev.Seq, viewLive)
	p.Init(&ctx)
	if wp != nil {
		// Init progress is self-supported (the paper's external
		// instantiation, not an edge traversal): no edge deletion may ever
		// doom it, so the improved lanes carry no witness.
		r.clearWitness(wp, ev.Algo, slot, before)
	}
	if r.dualRun(ev.Seq, ev.Algo) {
		pctx := r.ctx(ev.Algo, slot, ev.To, ev.Seq, viewPrev)
		p.Init(&pctx)
	}
}

func (r *rank) handleDelete(ev *Event) {
	removed := r.store.DeleteEdge(ev.To, ev.From)
	if !removed {
		return
	}
	// The source vertex normally still exists after the removal (the store
	// never deletes vertices), but a slot without grown state arrays — or
	// no slot at all — must not index another vertex's value: run the
	// callbacks only for a resolvable vertex and fall back to Unset for
	// the reverse notification's carried value.
	slot, ok := r.store.SlotOf(ev.To)
	if r.pub != nil && ok {
		r.pub.EdgeDeleted(slot, ev.From)
	}
	if ok {
		r.growValues(slot)
		for a, p := range r.eng.programs {
			if wp := r.eng.witness[a]; wp != nil {
				// Witness programs use the safe/unsafe classification
				// instead of a program-level delete callback.
				r.witnessDelete(wp, uint8(a), slot, ev)
				continue
			}
			da, isDA := p.(DeleteAware)
			if !isDA {
				continue
			}
			ctx := r.ctx(uint8(a), slot, ev.To, ev.Seq, viewLive)
			da.OnDelete(&ctx, ev.From, ev.W)
		}
	}
	if r.eng.opts.Undirected {
		if len(r.eng.programs) == 0 {
			r.emit(Event{Kind: KindReverseDelete, Algo: NoAlgo, Seq: ev.Seq,
				To: ev.From, From: ev.To, W: ev.W})
		}
		for a := range r.eng.programs {
			val := Unset
			if ok {
				val = r.values[a][slot]
			}
			r.emit(Event{Kind: KindReverseDelete, Algo: uint8(a), Seq: ev.Seq,
				To: ev.From, From: ev.To, Val: val, W: ev.W})
		}
	}
}

func (r *rank) handleReverseDelete(ev *Event) {
	removed := r.store.DeleteEdge(ev.To, ev.From)
	if removed && r.pub != nil {
		// Mirror before the program-level early returns: the reverse edge
		// is gone from the store regardless of what the programs do.
		if slot, ok := r.store.SlotOf(ev.To); ok {
			r.pub.EdgeDeleted(slot, ev.From)
		}
	}
	if !removed || ev.Algo == NoAlgo {
		return
	}
	slot, ok := r.store.SlotOf(ev.To)
	if !ok {
		return
	}
	if wp := r.eng.witness[ev.Algo]; wp != nil {
		r.growValues(slot)
		r.witnessDelete(wp, ev.Algo, slot, ev)
		return
	}
	if da, isDA := r.eng.programs[ev.Algo].(DeleteAware); isDA {
		ctx := r.ctx(ev.Algo, slot, ev.To, ev.Seq, viewLive)
		da.OnReverseDelete(&ctx, ev.From, ev.Val, ev.W)
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
	ctx := r.ctx(ev.Algo, slot, ev.To, ev.Seq, viewLive)
	sa.OnSignal(&ctx, ev.Val)
	if wp != nil {
		// Signal progress is external input, self-supported like Init.
		r.clearWitness(wp, ev.Algo, slot, before)
	}
	if r.dualRun(ev.Seq, ev.Algo) {
		pctx := r.ctx(ev.Algo, slot, ev.To, ev.Seq, viewPrev)
		sa.OnSignal(&pctx, ev.Val)
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
