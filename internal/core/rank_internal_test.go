package core

import (
	"context"
	"testing"
	"time"

	"incregraph/internal/graph"
	"incregraph/internal/stream"
)

// stubProg is a minimal no-op Program for white-box tests (the real
// algorithms live in internal/algo, which imports this package).
type stubProg struct{}

func (stubProg) Init(*Ctx)                                               {}
func (stubProg) OnAdd(*Ctx, graph.VertexID, graph.Weight)                {}
func (stubProg) OnReverseAdd(*Ctx, graph.VertexID, uint64, graph.Weight) {}
func (stubProg) OnUpdate(*Ctx, graph.VertexID, uint64, graph.Weight)     {}

// TestHandleDeleteUngrownSlot regression-tests the delete path against a
// vertex whose slot exists in the store but whose per-program value
// arrays were never grown. handleDelete used to index values[a][slot]
// unconditionally — ignoring the SlotOf ok flag and the array length —
// which panicked with index-out-of-range; it must instead resolve the
// slot defensively and fall back to Unset for the reverse notification's
// carried value.
func TestHandleDeleteUngrownSlot(t *testing.T) {
	e := New(Options{Ranks: 1, Undirected: true}, stubProg{})
	r := e.ranks[0]
	// Plant the edge directly in the store, bypassing handleAdd and its
	// growValues call: the slot resolves but values[0] is still empty.
	r.store.AddEdge(5, 7, 1, 0)
	ev := Event{Kind: KindDelete, To: 5, From: 7, W: 1}
	r.handleDelete(&ev)
	// With one rank every emission takes the self-delivery fast path.
	var rev *Event
	for i := range r.self {
		if r.self[i].Kind == KindReverseDelete {
			rev = &r.self[i]
		}
	}
	if rev == nil {
		t.Fatal("no reverse-delete emitted for a removed undirected edge")
	}
	if rev.To != 7 || rev.From != 5 || rev.Val != Unset {
		t.Fatalf("reverse delete = %+v, want To=7 From=5 Val=Unset", *rev)
	}
	if _, ok := r.store.SlotOf(5); !ok {
		t.Fatal("edge delete must not remove the vertex itself")
	}
}

// TestHandleDeleteNoPrograms covers the program-less topology-maintenance
// variant: the reverse side must still be torn down via a NoAlgo event.
func TestHandleDeleteNoPrograms(t *testing.T) {
	e := New(Options{Ranks: 1, Undirected: true})
	r := e.ranks[0]
	r.store.AddEdge(3, 4, 2, 0)
	ev := Event{Kind: KindDelete, To: 3, From: 4, W: 2}
	r.handleDelete(&ev)
	found := false
	for _, oe := range r.self {
		if oe.Kind == KindReverseDelete && oe.Algo == NoAlgo && oe.To == 4 {
			found = true
		}
	}
	if !found {
		t.Fatal("no NoAlgo reverse-delete emitted")
	}
}

// latePull is a live stream whose one event is pulled late: its first
// TryNext closes entered and then holds the event back until Pause has
// set its flag and the engine's other rank has parked.
type latePull struct {
	e       *Engine
	ev      graph.EdgeEvent
	entered chan struct{}
	pulled  bool
}

func (s *latePull) Next() (graph.EdgeEvent, bool) {
	ev, ok, _ := s.TryNext()
	return ev, ok
}

func (s *latePull) TryNext() (graph.EdgeEvent, bool, bool) {
	if s.pulled {
		return graph.EdgeEvent{}, false, false
	}
	close(s.entered)
	for !s.e.pauseReq.Load() || s.e.parked.Load() != 1 {
		time.Sleep(100 * time.Microsecond)
	}
	s.pulled = true
	return s.ev, true, false
}

func (s *latePull) SetNotify(func()) {}

// TestPauseCompletesOverLatePull pins the one event source the pause
// fence misses: a stream pull that passed ingestHalted just before Pause
// set its flag. Its event goes to a rank that has already parked on the
// quiescent engine. The parked rank must un-park to process it; otherwise
// the engine never becomes quiescent again, the pulling rank never parks,
// and Pause never returns.
func TestPauseCompletesOverLatePull(t *testing.T) {
	e := New(Options{Ranks: 2, Undirected: true}, stubProg{})
	src := graph.VertexID(1)
	for e.part.Owner(src) != 1 {
		src++
	}
	s := &latePull{
		e:       e,
		ev:      graph.EdgeEvent{Edge: graph.Edge{Src: src, Dst: src + 1, W: 1}},
		entered: make(chan struct{}),
	}
	if err := e.Start([]stream.Stream{s}); err != nil { // rank 1 has no stream
		t.Fatal(err)
	}
	<-s.entered // rank 0 passed ingestHalted
	paused := make(chan error, 1)
	go func() { paused <- e.Pause() }()
	select {
	case err := <-paused:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Pause hung: the late pull's event is held by a parked rank")
	}
	if slot, ok := e.ranks[1].store.SlotOf(src); !ok || e.ranks[1].store.Degree(slot) != 1 {
		t.Fatalf("vertex %d lacks its edge at the pause", src)
	}
	if err := e.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}
}
