package core_test

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"incregraph/internal/algo"
	"incregraph/internal/core"
	"incregraph/internal/graph"
	"incregraph/internal/stream"
)

// chainEdges builds a deterministic path graph 0-1-2-...-n.
func chainEdges(n int) []graph.Edge {
	edges := make([]graph.Edge, n)
	for i := 0; i < n; i++ {
		edges[i] = graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1), W: 1}
	}
	return edges
}

// TestEngineStatsDeterministicTotals pins the counter plane to a run whose
// event population is exactly derivable: an undirected ingest of E edges
// with one hooked program processes E ADDs, E REVERSE_ADDs, and one INIT,
// plus BFS update cascades — and every event except the external INIT
// travels through the flush-counted mailbox path.
func TestEngineStatsDeterministicTotals(t *testing.T) {
	edges := chainEdges(500)
	e := runDynamic(t, edges, 4, true, map[int]graph.VertexID{0: 0}, algo.BFS{})
	es := e.EngineStats()

	if es.State != core.StateStopped {
		t.Fatalf("state = %s, want stopped", es.State)
	}
	if es.Ranks != 4 || len(es.PerRank) != 4 {
		t.Fatalf("ranks = %d / %d per-rank entries", es.Ranks, len(es.PerRank))
	}
	if es.Ingested != uint64(len(edges)) {
		t.Fatalf("Ingested = %d, want %d", es.Ingested, len(edges))
	}
	if es.Events.Adds != uint64(len(edges)) || es.Events.Topo() != uint64(len(edges)) {
		t.Fatalf("adds = %d topo = %d, want %d", es.Events.Adds, es.Events.Topo(), len(edges))
	}
	if es.Events.ReverseAdds != uint64(len(edges)) {
		t.Fatalf("reverse adds = %d, want %d (one per edge with one program)",
			es.Events.ReverseAdds, len(edges))
	}
	if es.Events.Inits != 1 {
		t.Fatalf("inits = %d, want 1", es.Events.Inits)
	}
	if es.Events.Updates == 0 {
		t.Fatal("BFS over a path must cascade updates")
	}

	// Cross-check against the end-of-run Stats: both views read the same
	// counters, so the totals must agree exactly.
	rs := e.Wait()
	if rs.TopoEvents != es.Events.Topo() || rs.AlgoEvents != es.Events.Algo() ||
		rs.TotalEvents != es.Events.Total() {
		t.Fatalf("Wait stats %d/%d/%d != EngineStats %d/%d/%d",
			rs.TopoEvents, rs.AlgoEvents, rs.TotalEvents,
			es.Events.Topo(), es.Events.Algo(), es.Events.Total())
	}

	// Every processed event travelled exactly one of three paths: the
	// flush-counted outbound mailbox path, the self-delivery fast path, or
	// (for the single INIT) the external lane.
	if es.MessagesSent+es.SelfDelivered+es.Events.Inits != es.Events.Total() {
		t.Fatalf("MessagesSent %d + SelfDelivered %d + Inits %d != Total %d",
			es.MessagesSent, es.SelfDelivered, es.Events.Inits, es.Events.Total())
	}
	if es.SelfDelivered == 0 {
		t.Fatal("a 4-rank chain ingest must self-deliver some events")
	}
	// Cascade emissions are exactly the callback-generated events: every
	// processed algorithmic event except the external INIT, plus the
	// emitted-but-coalesced-away updates that were never processed.
	if want := es.Events.Algo() - es.Events.Inits + es.CombinedAway; es.CascadeEmits != want {
		t.Fatalf("CascadeEmits = %d, want %d (combinedAway=%d)",
			es.CascadeEmits, want, es.CombinedAway)
	}
	if es.Flushes == 0 || es.BatchesDrained == 0 || es.MailboxHWM == 0 {
		t.Fatalf("traffic counters empty: flushes=%d drains=%d hwm=%d",
			es.Flushes, es.BatchesDrained, es.MailboxHWM)
	}
	if es.BatchingFactor() <= 0 {
		t.Fatalf("BatchingFactor = %f", es.BatchingFactor())
	}
	if es.Uptime <= 0 {
		t.Fatalf("Uptime = %s", es.Uptime)
	}

	// Per-rank rows must sum to the aggregate.
	var sum core.EventCounts
	var sent uint64
	for _, r := range es.PerRank {
		sum.Adds += r.Events.Adds
		sum.ReverseAdds += r.Events.ReverseAdds
		sum.Updates += r.Events.Updates
		sum.Inits += r.Events.Inits
		for _, n := range r.SentTo {
			sent += n
		}
	}
	if sum != (core.EventCounts{Adds: es.Events.Adds, ReverseAdds: es.Events.ReverseAdds,
		Updates: es.Events.Updates, Inits: es.Events.Inits}) {
		t.Fatalf("per-rank sums %+v disagree with aggregate %+v", sum, es.Events)
	}
	if sent != es.MessagesSent {
		t.Fatalf("per-rank sent %d != aggregate %d", sent, es.MessagesSent)
	}
}

// TestEngineStatsIdle: the snapshot is legal before Start.
func TestEngineStatsIdle(t *testing.T) {
	e := core.New(core.Options{Ranks: 2, Undirected: true}, algo.BFS{})
	es := e.EngineStats()
	if es.State != core.StateIdle || es.Uptime != 0 || es.Events.Total() != 0 {
		t.Fatalf("idle stats = %+v", es)
	}
	if es.String() == "" {
		t.Fatal("empty String()")
	}
	// JSON consumers (the expvar endpoint) see state names, not ints.
	b, err := json.Marshal(es)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"State":"idle"`) {
		t.Fatalf("marshaled stats lack a readable state: %s", b)
	}
	if err := e.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestEngineStatsAcrossLifecycle drives a live run through
// Running → Paused → Running → Stopped, taking stats snapshots in every
// state (the -race runs of this test are the "no data races while hot"
// guarantee) and checking the paused totals form a consistent cut.
func TestEngineStatsAcrossLifecycle(t *testing.T) {
	e := core.New(core.Options{Ranks: 3, Undirected: true}, algo.BFS{})
	e.InitVertex(0, 0)
	live := stream.NewChan()
	if err := e.Start([]stream.Stream{live}); err != nil {
		t.Fatal(err)
	}

	// Concurrent pollers hammer the aggregation while ranks are hot.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = e.EngineStats()
				}
			}
		}()
	}

	edges := chainEdges(2000)
	for _, ed := range edges {
		live.Push(graph.EdgeEvent{Edge: ed})
	}
	e.WaitDrained(func() uint64 { return uint64(len(edges)) })

	if err := e.Pause(); err != nil {
		t.Fatal(err)
	}
	es := e.EngineStats()
	if es.State != core.StatePaused {
		t.Fatalf("state = %s, want paused", es.State)
	}
	// Paused at a quiescent point: the snapshot is a consistent cut, so
	// the exact-population invariants hold mid-run.
	if es.Ingested != uint64(len(edges)) || es.Events.Adds != uint64(len(edges)) {
		t.Fatalf("paused cut: ingested=%d adds=%d, want %d", es.Ingested, es.Events.Adds, len(edges))
	}
	if es.Events.ReverseAdds != uint64(len(edges)) {
		t.Fatalf("paused cut: reverse adds = %d, want %d", es.Events.ReverseAdds, len(edges))
	}
	time.Sleep(10 * time.Millisecond) // accrue measurable parked time
	if err := e.Resume(); err != nil {
		t.Fatal(err)
	}
	live.Close()
	e.Wait()
	close(stop)
	wg.Wait()

	es = e.EngineStats()
	if es.State != core.StateStopped {
		t.Fatalf("state = %s, want stopped", es.State)
	}
	if es.ParkedTime < 10*time.Millisecond {
		t.Fatalf("ParkedTime = %s, want >= 10ms across the pause", es.ParkedTime)
	}
	if es.QueriesServed != 0 {
		t.Fatalf("QueriesServed = %d with no queries", es.QueriesServed)
	}

	// Two post-termination snapshots are identical (counters are frozen).
	if again := e.EngineStats(); again.Events != es.Events || again.MessagesSent != es.MessagesSent {
		t.Fatalf("stopped stats drifted: %+v vs %+v", again.Events, es.Events)
	}
}

// TestEngineStatsServiceCounters checks the control-plane counters: queries
// and snapshot contributions taken during a live run.
func TestEngineStatsServiceCounters(t *testing.T) {
	const ranks = 2
	e := core.New(core.Options{Ranks: ranks, Undirected: true}, algo.CC{})
	live := stream.NewChan()
	if err := e.Start([]stream.Stream{live}); err != nil {
		t.Fatal(err)
	}
	edges := chainEdges(100)
	for _, ed := range edges {
		live.Push(graph.EdgeEvent{Edge: ed})
	}
	e.WaitDrained(func() uint64 { return uint64(len(edges)) })

	for i := 0; i < 10; i++ {
		e.QueryLocal(0, graph.VertexID(i))
	}
	e.SnapshotAsync(0).Wait()
	live.Close()
	e.Wait()

	es := e.EngineStats()
	if es.QueriesServed != 10 {
		t.Fatalf("QueriesServed = %d, want 10", es.QueriesServed)
	}
	if es.SnapshotsTaken != 1 {
		t.Fatalf("SnapshotsTaken = %d, want 1", es.SnapshotsTaken)
	}
	if es.SnapshotParts != ranks {
		t.Fatalf("SnapshotParts = %d, want %d (one per rank)", es.SnapshotParts, ranks)
	}
}
