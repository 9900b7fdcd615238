package core

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"incregraph/internal/graph"
)

// Snapshot is an asynchronous global-state collection (§III-D): the state
// of one program over the whole graph at a discrete cut, taken without
// pausing ingestion. The implementation is the paper's Chandy-Lamport
// variant: requesting the snapshot bumps the engine's version sequence
// (the marker); every event is tagged with the sequence current when it
// entered the system, children inherit their parent's tag; each rank
// copies its state shard into a previous-version array when it first
// observes the marker; previous-version events apply to both versions
// (the dual-run in rank.process); and the snapshot finalizes when the
// previous version has fully drained.
type Snapshot struct {
	// Algo is the program whose state is collected.
	Algo int

	marker    uint32
	eng       *Engine
	requested time.Time

	mu      sync.Mutex
	parts   []VertexValue
	pending atomic.Int32

	finalize sync.Once
	done     chan struct{}
	result   []VertexValue
	sortOnce sync.Once
	latency  time.Duration
}

// SnapshotAsync requests a global-state collection of program algo at the
// current discrete time point. It returns immediately; ingestion and
// algorithm processing continue. Call Wait for the result. Snapshots are
// serialized: a request blocks (briefly) until any in-flight snapshot
// finalizes. On an engine that is not running, the collection is
// immediate. On a paused engine the marker protocol still applies: parked
// ranks serve their snapshot duties from the pause barrier, and since the
// engine is quiescent the snapshot finalizes without resuming ingestion.
func (e *Engine) SnapshotAsync(algo int) *Snapshot {
	e.checkAlgo(algo)
	if e.remote {
		// The marker protocol assumes one shared snapshot sequence; across
		// processes that would need a distributed marker broadcast, which
		// does not exist yet. Distributed engines keep Seq pinned to 0 on
		// the wire, so allowing a local bump would desynchronize versions.
		panic("core: snapshots are not supported over a multi-process transport")
	}
	e.snapRequests.Add(1)
	e.snapMu.Lock()
	defer e.snapMu.Unlock()
	if prev := e.activeSnap.Load(); prev != nil {
		<-prev.done
	}
	s := &Snapshot{Algo: algo, eng: e, requested: time.Now(), done: make(chan struct{})}
	if !e.started.Load() || e.finished.Load() {
		s.finalizeDirect()
		return s
	}
	s.pending.Store(int32(len(e.ranks)))
	// Publish, then bump. No event carries the new marker before every
	// rank can see the snapshot, so a rank always takes its copy
	// (ensureSnapBegun) before it processes such an event. Between the two
	// steps events may still be labelled with the old sequence, so ranks
	// contribute only once the bump is visible (snapshotChores).
	s.marker = e.snapSeq.Load() + 1
	e.activeSnap.Store(s)
	if e.simSnapPublished != nil {
		e.simSnapPublished()
	}
	e.snapSeq.Store(s.marker)
	// Nudge every rank: idle ranks must copy their shard and, if the old
	// version is already drained, contribute right away.
	e.wakeAll()
	return s
}

// Wait blocks until the snapshot is final and returns the collected state,
// sorted by vertex ID. The result covers every vertex that existed at the
// cut (vertices created after the marker are excluded unless a
// previous-version event touched them). Sorting happens lazily on first
// access: Latency() measures collection only, matching the paper's
// metric.
func (s *Snapshot) Wait() []VertexValue {
	s.wait()
	s.sortOnce.Do(func() {
		sort.Slice(s.result, func(i, j int) bool { return s.result[i].ID < s.result[j].ID })
	})
	return s.result
}

func (s *Snapshot) wait() {
	select {
	case <-s.done:
	case <-s.eng.done:
		// The engine terminated while the snapshot was in flight. Ranks
		// contribute during their exit sequence; wait for them, then fall
		// back to a direct collection if the request raced past the exits.
		s.eng.wg.Wait()
		select {
		case <-s.done:
		default:
			s.finalizeDirect()
		}
	}
}

// Ready reports whether the snapshot has finalized (Wait would return
// without blocking).
func (s *Snapshot) Ready() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// Marker returns the snapshot's version marker: the collected cut contains
// exactly the effects of events labeled with a smaller sequence.
func (s *Snapshot) Marker() uint32 { return s.marker }

// Latency returns the time from the snapshot request to finalization —
// the quantity Fig. 4 plots against a from-scratch static recompute.
func (s *Snapshot) Latency() time.Duration {
	s.wait()
	return s.latency
}

// AsMap returns the collected state keyed by vertex.
func (s *Snapshot) AsMap() map[graph.VertexID]uint64 {
	res := s.Wait()
	m := make(map[graph.VertexID]uint64, len(res))
	for _, p := range res {
		m[p.ID] = p.Val
	}
	return m
}

// drained reports that the previous version has fully drained: the marker
// is bumped, so no event is labelled below it any more, and none labelled
// below it is pending. A label that read the old sequence and verified it
// did so before the bump, so its created count is visible to the sweep
// that follows the marker load here (eventCounts.label).
func (s *Snapshot) drained() bool {
	e := s.eng
	return e.snapSeq.Load() >= s.marker && e.pending()[(s.marker-1)&3] == 0
}

// addPart receives one rank's shard of the previous-version state; the
// last contribution finalizes the snapshot.
func (s *Snapshot) addPart(part []VertexValue) {
	s.mu.Lock()
	s.parts = append(s.parts, part...)
	s.mu.Unlock()
	if s.pending.Add(-1) == 0 {
		s.finalize.Do(func() {
			s.mu.Lock()
			s.result = s.parts
			s.parts = nil
			s.mu.Unlock()
			s.latency = time.Since(s.requested)
			s.eng.activeSnap.Store(nil)
			close(s.done)
		})
	}
}

// finalizeDirect collects the live state directly — valid only when no
// rank goroutine is running (engine not started, or fully terminated, in
// which case quiescence makes the live state a consistent cut).
func (s *Snapshot) finalizeDirect() {
	s.finalize.Do(func() {
		s.result = s.eng.Collect(s.Algo)
		s.latency = time.Since(s.requested)
		s.eng.activeSnap.CompareAndSwap(s, nil)
		close(s.done)
	})
}

// ensureSnapBegun takes the rank-local previous-version copy the first
// time the rank observes an active snapshot's marker, and has the store
// hide the edges added past the marker from then on. It must run before
// the rank applies any event while a snapshot is active: old events are
// then double-applied through the dual-run, and new events are kept out
// of the copy.
func (r *rank) ensureSnapBegun() {
	snap := r.eng.activeSnap.Load()
	if snap == nil || r.snapSeen >= snap.marker {
		return
	}
	r.snapSeen = snap.marker
	r.contributed = false
	r.store.BeginSnapshot(snap.marker)
	src := r.values[snap.Algo]
	dst := make([]uint64, len(src))
	copy(dst, src)
	r.prevValues[snap.Algo] = dst
	r.snapCopyLen = len(dst)
}

// snapshotChores advances the rank's part of an active snapshot: local
// copy on first sight of the marker, contribution once the marker is
// bumped and the previous version has drained. After the contribution no
// previous-version event is left, so the store's hidden set is freed.
func (r *rank) snapshotChores() {
	snap := r.eng.activeSnap.Load()
	if snap == nil {
		return
	}
	r.ensureSnapBegun()
	if r.contributed || r.snapSeen != snap.marker {
		return
	}
	if !snap.drained() {
		return
	}
	r.contributed = true
	r.store.EndSnapshot()
	r.counters.snapshotParts.Add(1)
	prev := r.prevValues[snap.Algo]
	part := make([]VertexValue, 0, len(prev))
	for slot := 0; slot < len(prev); slot++ {
		v := prev[slot]
		// Slots beyond the marker-time copy belong to vertices created
		// later; include them only if a previous-version event touched
		// them (setPrevValue grew the array for exactly those, leaving
		// interleaved new-version vertices at Unset).
		if slot >= r.snapCopyLen && v == Unset {
			continue
		}
		part = append(part, VertexValue{ID: r.store.IDOf(graph.Slot(slot)), Val: v})
	}
	r.prevValues[snap.Algo] = nil
	snap.addPart(part)
}
