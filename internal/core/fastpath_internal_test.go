package core

import (
	"bytes"
	"sync"
	"testing"

	"incregraph/internal/graph"
)

// combineStub is stubProg plus a min-Combine, for white-box coalescing
// tests.
type combineStub struct{ stubProg }

func (combineStub) Combine(old, new uint64) uint64 {
	if new < old {
		return new
	}
	return old
}

// vertexOwnedBy returns some vertex the partitioner assigns to rank want.
func vertexOwnedBy(e *Engine, want int) graph.VertexID {
	for v := graph.VertexID(0); ; v++ {
		if e.part.Owner(v) == want {
			return v
		}
	}
}

// TestCoalesceOutboundBuffer covers the combine/remember/barrier cycle on
// a cross-rank outbound buffer.
func TestCoalesceOutboundBuffer(t *testing.T) {
	e := New(Options{Ranks: 2}, combineStub{})
	r := e.ranks[0]
	v := vertexOwnedBy(e, 1)

	r.emit(Event{Kind: KindUpdate, Algo: 0, To: v, Val: 9})
	r.emit(Event{Kind: KindUpdate, Algo: 0, To: v, Val: 4})
	if n := len(r.out[1]); n != 1 {
		t.Fatalf("buffered %d events, want 1 (combined)", n)
	}
	if got := r.out[1][0].Val; got != 4 {
		t.Fatalf("combined value = %d, want 4", got)
	}
	if got := r.counters.combinedAway.Load(); got != 1 {
		t.Fatalf("combinedAway = %d, want 1", got)
	}
	if got := e.inflight[0].Load(); got != 1 {
		t.Fatalf("inflight = %d, want 1 (merged event never registered)", got)
	}

	// A differing weight must not merge (the candidate value depends on it).
	r.emit(Event{Kind: KindUpdate, Algo: 0, To: v, Val: 3, W: 2})
	if n := len(r.out[1]); n != 2 {
		t.Fatalf("buffered %d events after weight change, want 2", n)
	}

	// Any non-UPDATE is an ordering barrier: later updates must not merge
	// backward across it.
	r.emit(Event{Kind: KindReverseAdd, Algo: 0, To: v})
	r.emit(Event{Kind: KindUpdate, Algo: 0, To: v, Val: 1})
	if n := len(r.out[1]); n != 4 {
		t.Fatalf("buffered %d events after barrier, want 4", n)
	}
	// ... but coalescing restarts after the barrier.
	r.emit(Event{Kind: KindUpdate, Algo: 0, To: v, Val: 7})
	if n := len(r.out[1]); n != 4 {
		t.Fatalf("buffered %d events, want 4 (post-barrier update combined)", n)
	}
	if got := r.out[1][3].Val; got != 1 {
		t.Fatalf("post-barrier combined value = %d, want 1", got)
	}
}

// TestCoalesceSelfRing covers coalescing into the self-delivery ring,
// including invalidation of already-consumed positions.
func TestCoalesceSelfRing(t *testing.T) {
	e := New(Options{Ranks: 1}, combineStub{})
	r := e.ranks[0]

	r.emit(Event{Kind: KindUpdate, Algo: 0, To: 5, Val: 8})
	r.emit(Event{Kind: KindUpdate, Algo: 0, To: 5, Val: 6})
	if n := len(r.self); n != 1 {
		t.Fatalf("self ring holds %d events, want 1 (combined)", n)
	}
	if got := r.self[0].Val; got != 6 {
		t.Fatalf("combined value = %d, want 6", got)
	}
	// Consume past the buffered position: a later same-key update must not
	// mutate an already-processed slot.
	r.selfHead = 1
	r.emit(Event{Kind: KindUpdate, Algo: 0, To: 5, Val: 2})
	if n := len(r.self); n != 2 {
		t.Fatalf("self ring holds %d events, want 2 (consumed slot not merged)", n)
	}
	if r.self[0].Val != 6 || r.self[1].Val != 2 {
		t.Fatalf("self ring = %+v", r.self)
	}
}

// TestLabelSeqRegression pins the one shared implementation of the
// increment-then-verify seq-labeling loop: the event must always be
// registered in the in-flight ring slot matching its label, even when the
// load races a snapshot-marker bump.
func TestLabelSeqRegression(t *testing.T) {
	e := New(Options{Ranks: 1}, stubProg{})
	var ev Event
	e.labelSeq(&ev)
	if ev.Seq != 0 || e.inflight[0].Load() != 1 {
		t.Fatalf("seq=%d inflight[0]=%d, want 0/1", ev.Seq, e.inflight[0].Load())
	}
	e.snapSeq.Store(3)
	e.labelSeq(&ev)
	if ev.Seq != 3 || e.inflight[3].Load() != 1 {
		t.Fatalf("seq=%d inflight[3]=%d, want 3/1", ev.Seq, e.inflight[3].Load())
	}

	// Concurrent marker bumps: whatever sequence each label observes, the
	// matching ring slot must account for it exactly.
	e2 := New(Options{Ranks: 1}, stubProg{})
	const events = 20000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for s := uint32(1); s <= 3; s++ {
			e2.snapSeq.Store(s)
		}
	}()
	var labeled [4]int64
	for i := 0; i < events; i++ {
		var ev Event
		e2.labelSeq(&ev)
		labeled[ev.Seq&3]++
	}
	wg.Wait()
	for s := range labeled {
		if got := e2.inflight[s].Load(); got != labeled[s] {
			t.Fatalf("slot %d: inflight %d, labeled %d", s, got, labeled[s])
		}
	}
}

// TestEmitExternalNoAllocs pins the external-injection fast path: pushing
// through the dedicated external lane must not allocate per event (the old
// path wrapped every event in a fresh one-event slice). Only the amortized
// lane-chunk allocation (one per laneChunkSize events) remains.
func TestEmitExternalNoAllocs(t *testing.T) {
	e := New(Options{Ranks: 2}, stubProg{})
	e.InitVertex(0, 7) // warm the lane
	allocs := testing.AllocsPerRun(2000, func() { e.InitVertex(0, 7) })
	if allocs > 0.1 {
		t.Fatalf("external injection allocates %.3f times per event", allocs)
	}
}

// ssspStub is undirected SSSP as a witness program with a min-Combine, for
// white-box tests of the witness hot path (internal/algo imports this
// package, so it cannot supply the real one here).
type ssspStub struct{}

var _ WitnessProgram = ssspStub{}

func ssspNorm(v uint64) uint64 {
	if v == Unset {
		return Infinity
	}
	return v
}

func (ssspStub) Init(c *Ctx) { c.SetValue(1); c.UpdateNbrs(1) }

func (ssspStub) OnAdd(c *Ctx, _ graph.VertexID, _ graph.Weight) {
	if c.Value() == Unset {
		c.SetValue(Infinity)
	}
}

func (s ssspStub) OnReverseAdd(c *Ctx, nbr graph.VertexID, nbrVal uint64, w graph.Weight) {
	s.OnAdd(c, nbr, w)
	s.OnUpdate(c, nbr, nbrVal, w)
}

func (ssspStub) OnUpdate(c *Ctx, from graph.VertexID, fromVal uint64, w graph.Weight) {
	cur, fv := ssspNorm(c.Value()), ssspNorm(fromVal)
	switch {
	case fv != Infinity && cur > fv+uint64(w):
		c.SetValue(fv + uint64(w))
		c.UpdateNbrs(fv + uint64(w))
	case cur != Infinity && (fv == Infinity || fv > cur+uint64(w)):
		c.UpdateNbr(from, cur)
	}
}

func (ssspStub) Combine(old, new uint64) uint64 { return min(ssspNorm(old), ssspNorm(new)) }
func (ssspStub) WitnessLanes() int              { return 1 }
func (ssspStub) Reseed(c *Ctx, _ uint64)        { c.SetValue(Infinity) }

func (ssspStub) ChangedLanes(before, after uint64) uint64 {
	if ssspNorm(before) != ssspNorm(after) {
		return 1
	}
	return 0
}

func (ssspStub) Reproduces(parent uint64, w graph.Weight, child uint64) uint64 {
	if p := ssspNorm(parent); p != Infinity && p+uint64(w) == ssspNorm(child) {
		return 1
	}
	return 0
}

func (ssspStub) SeedLanes(_ graph.VertexID, val uint64) uint64 {
	if ssspNorm(val) == Infinity {
		return 1
	}
	return 0
}

// processOne runs ev through the rank's dispatcher and drops whatever it
// emitted, so a repeated event exercises one handler and nothing else.
func processOne(r *rank, ev Event) {
	r.process(&ev)
	r.self, r.selfHead = r.self[:0], 0
	r.coal.barrier(r.id)
}

// TestHotHandlersNoAllocs pins the insert-only hot path: on a warmed
// undirected SSSP rank, ADD, REVERSE_ADD and UPDATE must not allocate per
// event (each callback used to heap-allocate its Ctx), nor may a self-ring
// drain with its read-ahead. The events hit existing vertices and edges,
// so no buffer grows during the measurement.
func TestHotHandlersNoAllocs(t *testing.T) {
	e := New(Options{Ranks: 1, Undirected: true}, ssspStub{})
	r := e.ranks[0]
	processOne(r, Event{Kind: KindAdd, Algo: NoAlgo, To: 1, From: 2, W: 3})
	processOne(r, Event{Kind: KindReverseAdd, Algo: 0, To: 2, From: 1, Val: Infinity, W: 3})
	processOne(r, Event{Kind: KindInit, Algo: 0, To: 1})
	for _, ev := range []Event{
		{Kind: KindAdd, Algo: NoAlgo, To: 1, From: 2, W: 3},
		{Kind: KindReverseAdd, Algo: 0, To: 2, From: 1, Val: 1, W: 3},
		{Kind: KindUpdate, Algo: 0, To: 2, From: 1, Val: 1, W: 3},
		{Kind: KindUpdate, Algo: 0, To: 1, From: 2, Val: Infinity, W: 3},
	} {
		processOne(r, ev) // warm the self ring and coalescer
		if allocs := testing.AllocsPerRun(1000, func() { processOne(r, ev) }); allocs != 0 {
			t.Errorf("%s %d→%d allocates %.2f times per event", ev.Kind, ev.From, ev.To, allocs)
		}
	}

	// A self-ring drain reads ahead (warm) before each window of events;
	// that must not allocate either. The drain covers more than one window,
	// and vertex 1's neighbours pass graph.DefaultSmallCap, so Peek reads
	// its position index.
	for v := graph.VertexID(10); v < 10+2*graph.DefaultSmallCap; v++ {
		processOne(r, Event{Kind: KindAdd, Algo: NoAlgo, To: 1, From: v, W: 3})
		processOne(r, Event{Kind: KindReverseAdd, Algo: 0, To: v, From: 1, Val: 1, W: 3})
	}
	var drain []Event
	for v := graph.VertexID(10); len(drain) < 3*warmN; v++ {
		drain = append(drain,
			Event{Kind: KindAdd, Algo: NoAlgo, To: 1, From: v, W: 3},
			Event{Kind: KindReverseAdd, Algo: 0, To: v, From: 1, Val: 1, W: 3})
	}
	drainOnce := func() {
		r.self = append(r.self[:0], drain...)
		r.drainSelf()
	}
	drainOnce() // grow the self ring to the drain's size
	if allocs := testing.AllocsPerRun(200, drainOnce); allocs != 0 {
		t.Errorf("a warmed drain of %d ADD/REVERSE_ADD events allocates %.2f times per event",
			len(drain), allocs/float64(len(drain)))
	}
}

// TestLiveEdgeGuardGate covers when a rank runs the live-edge probe: not
// before its first edge removal, always after it, and always on a rank
// restored from a checkpoint.
func TestLiveEdgeGuardGate(t *testing.T) {
	e := New(Options{Ranks: 1, Undirected: true}, ssspStub{})
	r := e.ranks[0]
	processOne(r, Event{Kind: KindAdd, Algo: NoAlgo, To: 1, From: 2, W: 3})
	processOne(r, Event{Kind: KindAdd, Algo: NoAlgo, To: 2, From: 1, W: 3})
	processOne(r, Event{Kind: KindAdd, Algo: NoAlgo, To: 2, From: 4, W: 3})
	processOne(r, Event{Kind: KindAdd, Algo: NoAlgo, To: 4, From: 2, W: 3})
	if r.removedEdge {
		t.Fatal("guard armed before any removal")
	}
	processOne(r, Event{Kind: KindDelete, Algo: NoAlgo, To: 9, From: 8})
	if r.removedEdge {
		t.Fatal("deleting an absent edge armed the guard")
	}
	processOne(r, Event{Kind: KindDelete, Algo: NoAlgo, To: 1, From: 2})
	processOne(r, Event{Kind: KindReverseDelete, Algo: 0, To: 2, From: 1})
	if !r.removedEdge {
		t.Fatal("guard not armed after an edge removal")
	}
	// Vertex 2 lost its edge to 1: an UPDATE that raced the deletion must
	// be dropped, while one over the surviving edge to 4 is applied.
	slot, _ := r.store.SlotOf(2)
	processOne(r, Event{Kind: KindUpdate, Algo: 0, To: 2, From: 1, Val: 1, W: 3})
	if got := r.values[0][slot]; got != Infinity {
		t.Fatalf("UPDATE over a removed edge applied: value %d", got)
	}
	// Re-added with weight 5, the edge is live again, but an UPDATE still
	// carrying the old weight 3 must apply over the live weight.
	processOne(r, Event{Kind: KindAdd, Algo: NoAlgo, To: 2, From: 1, W: 5})
	processOne(r, Event{Kind: KindUpdate, Algo: 0, To: 2, From: 1, Val: 1, W: 3})
	if got := r.values[0][slot]; got != 6 {
		t.Fatalf("UPDATE over a re-added edge: value %d, want 6 (live weight 5)", got)
	}
	processOne(r, Event{Kind: KindUpdate, Algo: 0, To: 2, From: 4, Val: 1, W: 3})
	if got := r.values[0][slot]; got != 4 {
		t.Fatalf("UPDATE over a live edge: value %d, want 4", got)
	}

	fresh := New(Options{Ranks: 1, Undirected: true}, ssspStub{})
	var buf bytes.Buffer
	if err := fresh.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadCheckpoint(&buf, Options{}, ssspStub{})
	if err != nil {
		t.Fatal(err)
	}
	if !restored.ranks[0].removedEdge {
		t.Fatal("a restored rank must start with the guard armed")
	}
}

// TestGrowValuesLargeJump covers single-step state-array growth across a
// large slot jump, for both the live and the previous-version arrays.
func TestGrowValuesLargeJump(t *testing.T) {
	e := New(Options{Ranks: 1}, stubProg{}, stubProg{})
	r := e.ranks[0]
	r.growValues(3)
	r.values[0][3] = 42
	r.growValues(50000)
	for a := range r.values {
		if len(r.values[a]) != 50001 {
			t.Fatalf("values[%d] len = %d, want 50001", a, len(r.values[a]))
		}
	}
	if r.values[0][3] != 42 {
		t.Fatalf("grow lost existing state: %d", r.values[0][3])
	}
	if r.values[0][50000] != Unset || r.values[1][49999] != Unset {
		t.Fatal("grown region not Unset")
	}

	r.setPrevValue(1, 30000, 9)
	if len(r.prevValues[1]) != 30001 || r.prevValues[1][30000] != 9 {
		t.Fatalf("prevValues[1] len=%d [30000]=%d", len(r.prevValues[1]), r.prevValues[1][30000])
	}
	if r.prevValues[1][12345] != Unset {
		t.Fatal("prev grown region not Unset")
	}

	// The growth itself is one allocation per array, independent of the
	// jump size (the old implementation appended one element at a time).
	if allocs := testing.AllocsPerRun(50, func() { _ = grownTo(nil, 4095) }); allocs > 1 {
		t.Fatalf("grownTo(nil, 4095) allocates %.1f times, want 1", allocs)
	}
}
