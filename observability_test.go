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
	// The run report Wait returns and the stopped live view agree exactly.
	run := g.Wait()
	if run.Events != s.Events || run.Uptime != s.Uptime {
		t.Fatalf("Wait stats %+v/%s != live stats %+v/%s",
			run.Events, run.Uptime, s.Events, s.Uptime)
	}
}

// TestStatsFrozenAfterWait pins the one run report: once the graph has
// stopped, Stats keeps returning the Uptime and EventRate that Wait
// reported, instead of dividing by a clock that keeps running.
func TestStatsFrozenAfterWait(t *testing.T) {
	g := incregraph.New(incregraph.Config{Ranks: 2}, incregraph.CC())
	run, err := g.Run(incregraph.StreamEdges(gen.Path(500)))
	if err != nil {
		t.Fatal(err)
	}
	if run.Uptime <= 0 || run.EventRate() <= 0 {
		t.Fatalf("run report: uptime %s, rate %v", run.Uptime, run.EventRate())
	}
	a := g.Stats()
	time.Sleep(20 * time.Millisecond)
	b := g.Stats()
	if a.Uptime != b.Uptime || a.EventRate() != b.EventRate() {
		t.Fatalf("stopped stats drift: uptime %s -> %s, rate %v -> %v",
			a.Uptime, b.Uptime, a.EventRate(), b.EventRate())
	}
	if a.Uptime != run.Uptime || a.EventRate() != run.EventRate() {
		t.Fatalf("Stats (uptime %s, rate %v) != Wait (uptime %s, rate %v)",
			a.Uptime, a.EventRate(), run.Uptime, run.EventRate())
	}
}
