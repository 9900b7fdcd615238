package incregraph_test

import (
	"context"
	"testing"
	"time"

	"incregraph"
	"incregraph/internal/gen"
)

// TestFacadeStatsDeterministicIngest pins Graph.Stats to a deterministic
// ingest: every pushed topology event must appear exactly once in the
// totals, in every lifecycle state it is legal to ask from.
func TestFacadeStatsDeterministicIngest(t *testing.T) {
	const n = 300 // path edges: vertices 0..n, n edges
	g := incregraph.New(incregraph.Config{Ranks: 4}, incregraph.BFS())
	g.InitVertex(0, 0)

	if s := g.Stats(); s.State != incregraph.StateIdle || s.Events.Total() != 0 {
		t.Fatalf("idle stats = %+v", s)
	}

	live := incregraph.NewLiveStream()
	if err := g.Start(live); err != nil {
		t.Fatal(err)
	}
	edges := gen.Path(n + 1)
	for _, e := range edges {
		live.PushEdge(e)
	}
	g.Drain(live)

	if s := g.Stats(); s.State != incregraph.StateRunning {
		t.Fatalf("running state = %s", s.State)
	}

	if err := g.Pause(); err != nil {
		t.Fatal(err)
	}
	s := g.Stats()
	if s.State != incregraph.StatePaused {
		t.Fatalf("paused state = %s", s.State)
	}
	if s.Ingested != uint64(len(edges)) || s.Events.Topo() != uint64(len(edges)) {
		t.Fatalf("paused totals: ingested=%d topo=%d, want %d", s.Ingested, s.Events.Topo(), len(edges))
	}
	if s.Events.Adds != uint64(len(edges)) || s.Events.ReverseAdds != uint64(len(edges)) {
		t.Fatalf("paused kinds: adds=%d revAdds=%d, want %d each", s.Events.Adds, s.Events.ReverseAdds, len(edges))
	}
	if err := g.Resume(); err != nil {
		t.Fatal(err)
	}

	live.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := g.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	s = g.Stats()
	if s.State != incregraph.StateStopped {
		t.Fatalf("stopped state = %s", s.State)
	}
	if s.Events.Topo() != uint64(len(edges)) || s.Ingested != uint64(len(edges)) {
		t.Fatalf("stopped totals: topo=%d ingested=%d, want %d", s.Events.Topo(), s.Ingested, len(edges))
	}
	// The end-of-run Stats and the live counters agree exactly.
	run := g.Wait()
	if run.TopoEvents != s.Events.Topo() || run.TotalEvents != s.Events.Total() {
		t.Fatalf("Wait stats %d/%d != live stats %d/%d",
			run.TopoEvents, run.TotalEvents, s.Events.Topo(), s.Events.Total())
	}
}
