package core_test

import (
	"testing"

	"incregraph/internal/algo"
	"incregraph/internal/core"
	"incregraph/internal/gen"
	"incregraph/internal/graph"
	"incregraph/internal/stream"
)

// gossipMax is a minimal custom REMO program exercising Signal events:
// every vertex converges to the maximum signalled value reachable from it
// (monotone increasing state — a valid convex solution space).
type gossipMax struct{}

func (gossipMax) Init(ctx *core.Ctx)                                      {}
func (gossipMax) OnAdd(ctx *core.Ctx, nbr graph.VertexID, w graph.Weight) {}
func (gossipMax) OnReverseAdd(ctx *core.Ctx, nbr graph.VertexID, nbrVal uint64, w graph.Weight) {
	gossipMax{}.OnUpdate(ctx, nbr, nbrVal, w)
}
func (gossipMax) OnUpdate(ctx *core.Ctx, from graph.VertexID, fromVal uint64, w graph.Weight) {
	cur := ctx.Value()
	switch {
	case fromVal > cur:
		ctx.SetValue(fromVal)
		ctx.UpdateNbrs(fromVal)
	case cur > fromVal:
		ctx.UpdateNbr(from, cur)
	}
}
func (g gossipMax) OnSignal(ctx *core.Ctx, val uint64) {
	if val > ctx.Value() {
		ctx.SetValue(val)
		ctx.UpdateNbrs(val)
	}
}

var _ core.SignalAware = gossipMax{}

func TestSignalGossip(t *testing.T) {
	// Two disjoint paths; signals injected into each must flood exactly
	// their own component.
	edges := append(gen.Path(10), offsetEdges(gen.Path(10), 100)...)
	e := core.New(core.Options{Ranks: 3, Undirected: true}, gossipMax{})
	e.Signal(0, 5, 42) // before Start: queued
	if err := e.Start(stream.Split(edges, 3)); err != nil {
		t.Fatal(err)
	}
	e.Signal(0, 105, 7)  // during the run
	e.Signal(0, 105, 99) // monotone: the larger one wins
	stats := e.Wait()
	if stats.Events.Algo() == 0 {
		t.Fatal("signals generated no algorithmic events")
	}
	got := e.CollectMap(0)
	for v := graph.VertexID(0); v <= 9; v++ {
		if got[v] != 42 {
			t.Fatalf("component A vertex %d = %d, want 42", v, got[v])
		}
	}
	for v := graph.VertexID(100); v <= 109; v++ {
		if got[v] != 99 {
			t.Fatalf("component B vertex %d = %d, want 99", v, got[v])
		}
	}
}

func TestSignalIgnoredByUnawareProgram(t *testing.T) {
	e := core.New(core.Options{Ranks: 2, Undirected: true}, algo.BFS{})
	e.Signal(0, 3, 123) // BFS is not SignalAware: must be dropped safely
	if _, err := e.Run(stream.Split(gen.Path(5), 2)); err != nil {
		t.Fatal(err)
	}
	// The signal created no vertex value surprises; vertex 3 keeps its
	// BFS semantics (uninitialized source -> Infinity).
	got := e.CollectMap(0)
	if got[3] != core.Infinity {
		t.Fatalf("vertex 3 = %d; signal leaked into a non-aware program", got[3])
	}
}

func TestSignalCreatesVertex(t *testing.T) {
	e := core.New(core.Options{Ranks: 2, Undirected: true}, gossipMax{})
	e.Signal(0, 77, 5)
	e.Run(nil)
	res := e.QueryLocal(0, 77)
	if !res.Exists || res.Value != 5 {
		t.Fatalf("signalled vertex = %+v", res)
	}
}
