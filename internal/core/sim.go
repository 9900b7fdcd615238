package core

import (
	"fmt"
	"sort"
	"time"

	"incregraph/internal/graph"
	"incregraph/internal/stream"
)

// SimDriver drives an engine one micro-step at a time from a single
// goroutine, with no rank goroutines at all: the caller — in practice the
// deterministic scheduler in internal/sim — decides which rank ingests,
// which mailbox lane drains, when outbound buffers flush, and when
// snapshot duties run. Every source of nondeterminism the concurrent
// engine leaves to the Go scheduler is therefore owned by the caller, so a
// run is exactly reproducible from the caller's random seed.
//
// The driver deliberately reuses the production code paths (nextTopoEvent,
// deliver, process, flush, snapshotChores): it changes who makes the
// scheduling choices, not what a step does. Between any two driver calls
// the engine is at an event boundary, so direct state reads (Collect,
// QueryLocal, WriteCheckpoint) are always consistent.
type SimDriver struct {
	e *Engine
}

// StartSim places the engine under manual single-goroutine control with
// one stream per rank (missing ones idle), instead of launching rank
// goroutines via Start. The engine reports StateRunning; drive it with the
// micro-step methods and declare termination with Finish.
func (e *Engine) StartSim(streams []stream.Stream) (*SimDriver, error) {
	if err := e.claim(streams); err != nil {
		return nil, err
	}
	switch e.tr.(type) {
	case *inprocTransport:
	case *loopbackTransport:
		// Goroutine-free by construction, so the scheduler keeps ownership
		// of every decision; start() only hooks lineage-report shipping.
		if err := e.tr.start(); err != nil {
			return nil, err
		}
	default:
		// The simulator owns every scheduling decision from one goroutine;
		// a transport with its own connection goroutines would reintroduce
		// exactly the nondeterminism the harness exists to remove.
		return nil, fmt.Errorf("core: StartSim requires the in-process or loopback transport")
	}
	e.simManual = true
	e.state.Store(int32(StateRunning))
	e.startNanos.Store(time.Now().UnixNano())
	return &SimDriver{e: e}, nil
}

// Engine returns the driven engine (for Collect, QueryLocal, snapshots,
// checkpoints — all legal between micro-steps).
func (d *SimDriver) Engine() *Engine { return d.e }

// Ranks returns the rank count.
func (d *SimDriver) Ranks() int { return len(d.e.ranks) }

// Lanes returns the per-rank mailbox lane count (rank count + 1; the last
// lane carries engine-external emissions).
func (d *SimDriver) Lanes() int { return len(d.e.ranks) + 1 }

// StreamDone reports whether the rank's ingestion stream is exhausted.
func (d *SimDriver) StreamDone(rank int) bool { return d.e.ranks[rank].streamDone }

// PullStream ingests one topology event on the rank, delivering it toward
// its owner exactly like the concurrent loop, and returns the labeled
// event. ok is false when the stream is exhausted or empty.
func (d *SimDriver) PullStream(rank int) (ev Event, ok bool) {
	r := d.e.ranks[rank]
	ev, ok = r.nextTopoEvent()
	if !ok {
		return Event{}, false
	}
	r.deliver(d.e.part.Owner(ev.To), ev)
	return ev, true
}

// LanePending counts the undrained events in one lane of the rank's
// mailbox.
func (d *SimDriver) LanePending(rank, lane int) int {
	var n [4]int
	d.e.ranks[rank].inbox.lanes[lane].pending(&n)
	return n[0] + n[1] + n[2] + n[3]
}

// DrainLane drains one mailbox lane of the rank and processes every event
// in it, invoking fn (if non-nil) with each event just before it runs.
// Cascade emissions land in the rank's outbound buffers and self ring for
// the caller to schedule. Returns the number of events processed.
func (d *SimDriver) DrainLane(rank, lane int, fn func(ev Event)) int {
	r := d.e.ranks[rank]
	batch := r.inbox.drainLane(lane)
	if len(batch) == 0 {
		return 0
	}
	r.counters.batchesDrained.Add(1)
	// Residency-probe parity with the concurrent loop (the stamp is
	// mailbox-wide, so consuming it on a per-lane drain is equally valid).
	if ts := r.inbox.takeResidency(); ts != 0 {
		r.lat.mailbox.record(time.Now().UnixNano() - ts)
	}
	for i := range batch {
		if fn != nil {
			fn(batch[i])
		}
		r.process(&batch[i])
		r.publishDone()
	}
	return len(batch)
}

// SelfPending counts the unprocessed events in the rank's self-delivery
// ring.
func (d *SimDriver) SelfPending(rank int) int {
	r := d.e.ranks[rank]
	return len(r.self) - r.selfHead
}

// StepSelf processes exactly one event from the rank's self-delivery ring,
// invoking fn (if non-nil) with it first.
func (d *SimDriver) StepSelf(rank int, fn func(ev Event)) bool {
	r := d.e.ranks[rank]
	if !r.drainSelfOne(fn) {
		return false
	}
	r.publishDone()
	return true
}

// OutboundLen returns the number of events buffered from rank toward dest.
func (d *SimDriver) OutboundLen(rank, dest int) int {
	return len(d.e.ranks[rank].out[dest])
}

// Flush pushes the rank's outbound buffer for dest into dest's mailbox
// (a no-op when empty), exactly like a batch-full or idle flush.
func (d *SimDriver) Flush(rank, dest int) { d.e.ranks[rank].flush(dest) }

// SnapshotChoresPending reports whether running the rank's snapshot duties
// would make progress: its previous-version copy is still to be taken, or
// the old version has drained and its contribution is still owed.
func (d *SimDriver) SnapshotChoresPending(rank int) bool {
	snap := d.e.activeSnap.Load()
	if snap == nil {
		return false
	}
	r := d.e.ranks[rank]
	if r.snapSeen < snap.marker {
		return true
	}
	return !r.contributed && snap.drained()
}

// SnapshotChores advances the rank's part of the active snapshot (local
// copy, then contribution once the previous version drains).
func (d *SimDriver) SnapshotChores(rank int) { d.e.ranks[rank].snapshotChores() }

// SlotCounts sums one snapshot-sequence slot's created and done counts
// over every rank and the external block.
func (d *SimDriver) SlotCounts(slot int) (created, done uint64) {
	for _, c := range d.e.counts {
		created += c.created[slot&3].Load()
		done += c.done[slot&3].Load()
	}
	return created, done
}

// Buffered counts, per slot (Seq&3), the events sitting in a mailbox lane,
// an outbound buffer, or a self ring. Between micro-steps each slot's
// created minus done must equal its count here — the conservation
// invariant.
func (d *SimDriver) Buffered() (n [4]int) {
	for _, r := range d.e.ranks {
		for i := range r.inbox.lanes {
			r.inbox.lanes[i].pending(&n)
		}
		for dest := range r.out {
			for _, ev := range r.out[dest] {
				n[ev.Seq&3]++
			}
		}
		for _, ev := range r.self[r.selfHead:] {
			n[ev.Seq&3]++
		}
	}
	return n
}

// SnapSeq reads the engine's current snapshot sequence; no event with a
// larger label may exist.
func (d *SimDriver) SnapSeq() uint32 { return d.e.snapSeq.Load() }

// SnapshotActive reports whether a snapshot is still collecting.
func (d *SimDriver) SnapshotActive() bool { return d.e.activeSnap.Load() != nil }

// Idle reports that no event is buffered or in flight anywhere: the
// engine is at a globally quiescent cut.
func (d *SimDriver) Idle() bool {
	return d.Buffered() == [4]int{} && d.e.Quiescent()
}

// Finish declares natural termination: every stream exhausted, everything
// drained, no snapshot still collecting. It errors if any of that is not
// true — the scheduler has work left to schedule.
func (d *SimDriver) Finish() error {
	if d.e.streamsLeft.Load() != 0 {
		return fmt.Errorf("core: Finish with %d streams unexhausted", d.e.streamsLeft.Load())
	}
	if !d.Idle() {
		return fmt.Errorf("core: Finish with %v events buffered, %v pending",
			d.Buffered(), d.e.pending())
	}
	if d.SnapshotActive() {
		return fmt.Errorf("core: Finish with a snapshot still collecting")
	}
	if !d.e.tryFinish() {
		return fmt.Errorf("core: termination not detected")
	}
	return nil
}

// Owner returns the rank owning vertex v under the engine's partitioner
// (the rank whose serve segment publishes v).
func (d *SimDriver) Owner(v graph.VertexID) int { return d.e.part.Owner(v) }

// ServeEnabled reports whether the engine was built with Options.Serve.
func (d *SimDriver) ServeEnabled() bool { return d.e.plane != nil }

// ServeAdvance bumps the serve plane's epoch — the sim-driven stand-in
// for the production ticker (StartSim never starts one). No-op when the
// plane is off.
func (d *SimDriver) ServeAdvance() {
	if d.e.plane != nil {
		d.e.plane.Advance()
	}
}

// ServePublishDue reports whether rank owes the plane a publication for
// the current epoch.
func (d *SimDriver) ServePublishDue(rank int) bool {
	r := d.e.ranks[rank]
	return r.pub != nil && r.pub.Due()
}

// ServePublish makes rank publish its segment now, due or not (the
// engine's exit() path does the same unconditional publish at
// termination). Like every SimDriver step this stands in for work the
// rank's own goroutine would do, at a legal event boundary. It then
// checks the served adjacency differentially: every slot's published
// neighbours must equal the store's as a multiset. A change to a slot's
// edge set that skipped Publisher.Touch leaves a stale header and is
// reported here as a non-nil error.
func (d *SimDriver) ServePublish(rank int) error {
	r := d.e.ranks[rank]
	r.publishNow()
	if r.pub == nil {
		return nil
	}
	for slot := graph.Slot(0); int(slot) < r.store.NumVertices(); slot++ {
		id := r.store.IDOf(slot)
		served := d.e.plane.Neighbors(id)
		sort.Slice(served, func(i, j int) bool { return served[i] < served[j] })
		live := sortedAdj(r.store, slot)
		if len(served) != len(live) {
			return fmt.Errorf("serve adjacency rank %d vertex %d: %d neighbours served, %d in the store",
				rank, id, len(served), len(live))
		}
		for i := range live {
			if served[i] != live[i].Nbr() {
				return fmt.Errorf("serve adjacency rank %d vertex %d: served %v, store %v",
					rank, id, served, live)
			}
		}
	}
	return nil
}

// CheckStores reports the first rank whose adjacency store disagrees with
// itself: an indexed vertex with an entry not indexed at its position, an
// index whose live count is not the degree, or a snapshot's hidden-edge
// bitmap that disagrees with its vertex's count or marks past its array
// (graph.Store.CheckIndex).
// The check walks every store, so it runs only in invariants builds; the
// scheduler calls it at globally quiescent cuts.
func (d *SimDriver) CheckStores() error {
	if !invariants {
		return nil
	}
	for i, r := range d.e.ranks {
		if err := r.store.CheckIndex(); err != nil {
			return fmt.Errorf("store rank %d: %w", i, err)
		}
	}
	return nil
}

func sortedAdj(s *graph.Store, slot graph.Slot) []graph.HalfEdge {
	out := s.AdjEntries(slot)
	sort.Slice(out, func(i, j int) bool { return out[i].Nbr() < out[j].Nbr() })
	return out
}

// SetFlushHook installs an observer called with every outbound batch at
// flush time, before it is pushed (and before any mutation hook corrupts
// it): the ground truth for per-sender FIFO checking.
func (d *SimDriver) SetFlushHook(fn func(from, dest int, batch []Event)) {
	d.e.simFlushHook = fn
}

// SetMergeHook installs an observer called on every coalescer merge with
// the buffered value, the offered value, and the merged result.
func (d *SimDriver) SetMergeHook(fn func(algo uint8, to graph.VertexID, old, offered, merged uint64)) {
	d.e.simMergeHook = fn
}

// SetBatchMutation installs a mutation-testing hook that may corrupt an
// outbound batch in place after the flush observer recorded the true
// order. Used to prove the FIFO invariant checker has teeth.
func (d *SimDriver) SetBatchMutation(fn func(batch []Event)) {
	d.e.simMutateBatch = fn
}

// SetSkipInvalidate (mutation testing) disables the witness classification
// on deletion: edges are removed from the topology but dependent values are
// never invalidated. The post-delete differential oracle must catch the
// stale state this leaves behind.
func (d *SimDriver) SetSkipInvalidate(skip bool) {
	d.e.simSkipInvalidate = skip
}

// SetUncertifiedRewitness (mutation testing) makes an unsafe deletion
// re-point its doomed witness at any local neighbour whose offer
// reproduces the lane, without the certificate's generation check and
// witness-chain walk. The differential oracle must catch the circular
// support this admits.
func (d *SimDriver) SetUncertifiedRewitness(on bool) {
	d.e.simUncertified = on
}

// SetLateCreate (mutation testing) counts an emitted cross-rank event
// created only after the flush that hands it to its destination, so it
// sits buffered uncounted. The conservation check must catch it.
func (d *SimDriver) SetLateCreate(on bool) {
	d.e.simLateCreate = on
}

// SetCombine replaces program algo's Combine hook (mutation testing: a
// non-monotone combine must be caught by the merge checker or the final
// differential). The coalescers share the engine's combine table, so the
// replacement takes effect everywhere at once. No-op if the program was
// not coalescing in the first place.
func (d *SimDriver) SetCombine(algo int, fn func(old, new uint64) uint64) {
	d.e.checkAlgo(algo)
	if d.e.combine[algo] != nil {
		d.e.combine[algo] = fn
	}
}
