package incregraph_test

import (
	"bytes"
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"incregraph"
	"incregraph/internal/gen"
	"incregraph/internal/graph"
	"incregraph/internal/rmat"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	g := incregraph.New(incregraph.Config{Ranks: 4}, incregraph.BFS())
	g.InitVertex(0, 0)
	live := incregraph.NewLiveStream()
	if err := g.Start(live); err != nil {
		t.Fatal(err)
	}
	for _, e := range gen.Path(100) {
		live.PushEdge(e)
	}
	deadline := time.Now().Add(10 * time.Second)
	for g.Ingested() != 99 || !g.Quiescent() {
		if time.Now().After(deadline) {
			t.Fatal("no quiescence")
		}
		time.Sleep(time.Millisecond)
	}
	if res := g.Query(0, 99); !res.Exists || res.Value != 100 {
		t.Fatalf("Query(99) = %+v", res)
	}
	snap := g.Snapshot(0)
	m := snap.AsMap()
	if m[50] != 51 {
		t.Fatalf("snapshot[50] = %d", m[50])
	}
	live.Close()
	stats := g.Wait()
	if stats.Events.Topo() != 99 || g.Topology().NumVertices() != 100 {
		t.Fatalf("stats = %+v, %d vertices", stats, g.Topology().NumVertices())
	}
	// Static algorithm over the finished dynamic topology.
	levels := incregraph.StaticBFS(g.Topology(), 0)
	if levels[99] != 100 {
		t.Fatalf("static BFS on dynamic topology: %d", levels[99])
	}
}

func TestFacadeMultipleAlgorithms(t *testing.T) {
	edges := gen.ErdosRenyi(100, 600, 10, 1)
	g := incregraph.New(incregraph.Config{Ranks: 3},
		incregraph.BFS(), incregraph.CC(), incregraph.SSSP(), incregraph.DegreeTracker())
	g.InitVertex(0, 0)
	g.InitVertex(2, 0)
	if _, err := g.Run(incregraph.SplitEdges(edges, 3)...); err != nil {
		t.Fatal(err)
	}
	topo := g.Topology()
	bfs := incregraph.StaticBFS(topo, 0)
	for _, p := range g.Collect(0) {
		if p.Val != bfs[p.ID] {
			t.Fatalf("bfs vertex %d: %d vs %d", p.ID, p.Val, bfs[p.ID])
		}
	}
	cc := incregraph.StaticCC(topo)
	for _, p := range g.Collect(1) {
		if p.Val != cc[p.ID] {
			t.Fatalf("cc vertex %d: %d vs %d", p.ID, p.Val, cc[p.ID])
		}
	}
	sssp := incregraph.StaticSSSP(topo, 0)
	for _, p := range g.Collect(2) {
		if p.Val != sssp[p.ID] {
			t.Fatalf("sssp vertex %d: %d vs %d", p.ID, p.Val, sssp[p.ID])
		}
	}
}

func TestFacadeTriggers(t *testing.T) {
	g := incregraph.New(incregraph.Config{Ranks: 2}, incregraph.MultiST([]incregraph.VertexID{0}))
	var hit atomic.Bool
	g.WhenVertex(0, 30, func(val uint64) bool { return val&1 != 0 }, func(uint64) { hit.Store(true) })
	g.InitVertex(0, 0)
	if _, err := g.Run(incregraph.StreamEdges(gen.Path(31))); err != nil {
		t.Fatal(err)
	}
	if !hit.Load() {
		t.Fatal("connectivity trigger never fired")
	}
}

func TestFacadeBFSDeletes(t *testing.T) {
	events := []incregraph.EdgeEvent{
		{Edge: incregraph.Edge{Src: 0, Dst: 1, W: 1}},
		{Edge: incregraph.Edge{Src: 1, Dst: 2, W: 1}},
		{Edge: incregraph.Edge{Src: 0, Dst: 2, W: 1}},
		{Edge: incregraph.Edge{Src: 0, Dst: 2, W: 1}, Delete: true},
	}
	p := incregraph.BFS()
	if !incregraph.DeleteAware(p) {
		t.Fatal("BFS handles deletes through witnesses and should be delete-aware")
	}
	if !incregraph.DeleteAware(incregraph.DegreeTracker()) {
		t.Fatal("DegreeTracker should be delete-aware")
	}
	g := incregraph.New(incregraph.Config{Ranks: 2}, p)
	g.InitVertex(0, 0)
	if _, err := g.Run(incregraph.StreamEvents(events)); err != nil {
		t.Fatal(err)
	}
	m := g.CollectMap(0)
	if lvl := m[2]; lvl != 3 {
		t.Fatalf("vertex 2 level = %d after delete, want 3", lvl)
	}
}

func TestFacadeStreamFuncAndRateLimit(t *testing.T) {
	s := incregraph.StreamFunc(10, func(i uint64) incregraph.Edge {
		return incregraph.Edge{Src: incregraph.VertexID(i), Dst: incregraph.VertexID(i + 1), W: 1}
	})
	s = incregraph.RateLimit(s, 1e9)
	g := incregraph.New(incregraph.Config{Ranks: 1}, incregraph.CC())
	stats, err := g.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Events.Topo() != 10 {
		t.Fatalf("stats = %+v", stats)
	}
	// One path: every vertex shares a label, the minimum CCLabelOf.
	want := incregraph.CCLabelOf(0)
	for v := incregraph.VertexID(1); v <= 10; v++ {
		if l := incregraph.CCLabelOf(v); l < want {
			want = l
		}
	}
	for _, p := range g.Collect(0) {
		if p.Val != want {
			t.Fatalf("vertex %d label %d want %d", p.ID, p.Val, want)
		}
	}
}

func TestFacadeSaveLoad(t *testing.T) {
	dir := t.TempDir()
	events := []incregraph.EdgeEvent{{Edge: incregraph.Edge{Src: 1, Dst: 2, W: 3}}}
	path := dir + "/x.bin"
	if err := incregraph.SaveEvents(path, events); err != nil {
		t.Fatal(err)
	}
	got, err := incregraph.LoadEvents(path)
	if err != nil || len(got) != 1 || got[0] != events[0] {
		t.Fatalf("round trip: %v %v", got, err)
	}
}

func TestFacadeCheckpointResume(t *testing.T) {
	edges := gen.Path(30)
	g := incregraph.New(incregraph.Config{Ranks: 2}, incregraph.BFS())
	g.InitVertex(0, 0)
	if _, err := g.Run(incregraph.StreamEdges(edges[:15])); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := incregraph.LoadCheckpoint(&buf, incregraph.Config{}, incregraph.BFS())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g2.Run(incregraph.StreamEdges(edges[15:])); err != nil {
		t.Fatal(err)
	}
	if lvl := g2.Query(0, 29).Value; lvl != 30 {
		t.Fatalf("resumed path end level = %d", lvl)
	}
	if _, err := incregraph.LoadCheckpoint(bytes.NewReader([]byte("junk")), incregraph.Config{}); err == nil {
		t.Fatal("junk checkpoint should fail")
	}
}

// TestFacadeLoadCheckpointKeepsConfig: a restored graph honours every
// engine knob of the Config it is loaded with, and its read plane serves
// the restored values and adjacency without any new event.
func TestFacadeLoadCheckpointKeepsConfig(t *testing.T) {
	g := incregraph.New(incregraph.Config{Ranks: 2, Serve: true}, incregraph.BFS())
	g.InitVertex(0, 0)
	if _, err := g.Run(incregraph.StreamEdges(gen.Grid(8, 8))); err != nil {
		t.Fatal(err)
	}
	topo := g.Topology()
	var buf bytes.Buffer
	if err := g.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}

	cfg := incregraph.Config{Serve: true, SampleEvery: 7, LineageKeep: 3}
	g2, err := incregraph.LoadCheckpoint(&buf, cfg, incregraph.BFS())
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.Start(incregraph.StreamEdges(nil)); err != nil {
		t.Fatal(err)
	}
	g2.Wait()

	if got := g2.Stats().Latency.SampleEvery; got != 7 {
		t.Fatalf("restored SampleEvery = %d, want 7", got)
	}
	want := g2.Collect(0)
	ids := make([]incregraph.VertexID, len(want))
	for i, p := range want {
		ids[i] = p.ID
	}
	got, _ := g2.ReadBatch(0, ids, nil)
	for i, p := range want {
		if !got[i].Found || got[i].Val != p.Val {
			t.Fatalf("ReadBatch(%d) = %+v, Collect has %d", p.ID, got[i], p.Val)
		}
	}
	topo.ForEachVertex(func(v incregraph.VertexID) bool {
		nbrs := map[incregraph.VertexID]bool{}
		topo.Neighbors(v, func(n incregraph.VertexID, _ incregraph.Weight) bool {
			nbrs[n] = true
			return true
		})
		nodes, _ := g2.ReadNeighborhood(0, v, 1, 1<<10)
		served := map[incregraph.VertexID]bool{}
		for _, n := range nodes {
			if n.Depth == 1 {
				served[n.Vertex] = true
			}
		}
		if len(served) != len(nbrs) {
			t.Fatalf("vertex %d: read plane serves %d neighbours, topology has %d", v, len(served), len(nbrs))
		}
		for n := range nbrs {
			if !served[n] {
				t.Fatalf("vertex %d: neighbour %d missing from the read plane", v, n)
			}
		}
		return true
	})
}

// TestConfigValidate: NewCluster and LoadCheckpoint reject the Config values
// no default can stand in for, and New panics on them. A negative
// ServeEvery used to reach time.NewTicker and kill the process at Start; a
// negative Ranks used to be silently turned into 1.
func TestConfigValidate(t *testing.T) {
	var ckpt bytes.Buffer
	if err := incregraph.New(incregraph.Config{}, incregraph.BFS()).WriteCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  incregraph.Config
		ok   bool
	}{
		{"zero", incregraph.Config{}, true},
		{"serve default cadence", incregraph.Config{Serve: true}, true},
		{"negative ranks", incregraph.Config{Ranks: -1}, false},
		{"negative serve cadence", incregraph.Config{Serve: true, ServeEvery: -1}, false},
		{"negative cadence, serve off", incregraph.Config{ServeEvery: -time.Second}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := incregraph.NewCluster(tc.cfg, incregraph.BFS())
			if g != nil {
				// Whatever NewCluster accepts must run: without validation a
				// negative ServeEvery panics in the epoch ticker at Start.
				if _, err := g.Run(incregraph.StreamEdges(gen.Path(8))); err != nil {
					t.Fatal(err)
				}
			}
			if (err == nil) != tc.ok {
				t.Fatalf("NewCluster: err = %v, want ok=%v", err, tc.ok)
			}
			if _, err := incregraph.LoadCheckpoint(bytes.NewReader(ckpt.Bytes()), tc.cfg, incregraph.BFS()); (err == nil) != tc.ok {
				t.Fatalf("LoadCheckpoint: err = %v, want ok=%v", err, tc.ok)
			}
			if !tc.ok {
				defer func() {
					if recover() == nil {
						t.Fatal("New accepted an invalid Config")
					}
				}()
				incregraph.New(tc.cfg, incregraph.BFS())
			}
		})
	}
}

func TestFacadeSignalAndDrain(t *testing.T) {
	g := incregraph.New(incregraph.Config{Ranks: 2}, incregraph.DegreeTracker())
	live := incregraph.NewLiveStream()
	if err := g.Start(live); err != nil {
		t.Fatal(err)
	}
	for _, e := range gen.Star(20) {
		live.PushEdge(e)
	}
	g.Signal(0, 5, 99) // DegreeTracker is not SignalAware: safely ignored
	g.Drain(live)
	if deg := g.Query(0, 0).Value; deg != 19 {
		t.Fatalf("hub degree after Drain = %d", deg)
	}
	live.Close()
	stats := g.Wait()
	if len(stats.PerRank) != 2 || stats.EventSkew() < 1 {
		t.Fatalf("per-rank stats missing: %+v", stats.PerRank)
	}
}

func TestFacadeWidestPath(t *testing.T) {
	edges := []incregraph.Edge{
		{Src: 0, Dst: 1, W: 5},
		{Src: 1, Dst: 2, W: 3},
		{Src: 0, Dst: 2, W: 1},
	}
	g := incregraph.New(incregraph.Config{Ranks: 2, WeightPolicy: incregraph.KeepMaxWeight},
		incregraph.WidestPath())
	g.InitVertex(0, 0)
	if _, err := g.Run(incregraph.StreamEdges(edges)); err != nil {
		t.Fatal(err)
	}
	if w := g.Query(0, 2).Value; w != 3 {
		t.Fatalf("widest(2) = %d, want 3", w)
	}
	want := incregraph.StaticWidestPath(g.Topology(), 0)
	if want[2] != 3 {
		t.Fatalf("static widest = %v", want)
	}
}

func TestFacadeDirectedMode(t *testing.T) {
	g := incregraph.New(incregraph.Config{Ranks: 2, Directed: true}, incregraph.DirectedBFS())
	g.InitVertex(0, 0)
	if _, err := g.Run(incregraph.StreamEdges(gen.Path(5))); err != nil {
		t.Fatal(err)
	}
	if lvl := g.Query(0, 4).Value; lvl != 5 {
		t.Fatalf("directed path end = %d", lvl)
	}
	// Directed SSSP and widest variants construct fine too.
	_ = incregraph.DirectedSSSP()
	_ = incregraph.DirectedWidestPath()
}

// TestFacadeLifecycle drives the public lifecycle surface: Pause making Collect/Topology/WriteCheckpoint legal
// mid-run, deferred events on Resume, and Stop as the graceful end of a
// live run whose stream never closes.
func TestFacadeLifecycle(t *testing.T) {
	g := incregraph.New(incregraph.Config{Ranks: 3}, incregraph.BFS(), incregraph.CC())
	g.InitVertex(0, 0)
	if g.State() != incregraph.StateIdle {
		t.Fatalf("fresh state = %v", g.State())
	}
	live := incregraph.NewLiveStream()
	if err := g.Start(live); err != nil {
		t.Fatal(err)
	}
	if g.State() != incregraph.StateRunning {
		t.Fatalf("running state = %v", g.State())
	}
	edges := gen.Path(120)
	for _, e := range edges {
		live.PushEdge(e)
	}
	g.Drain(live)

	if err := g.Pause(); err != nil {
		t.Fatal(err)
	}
	if g.State() != incregraph.StatePaused {
		t.Fatalf("paused state = %v", g.State())
	}
	// Mid-run reads that would panic on a running graph are legal now.
	if vals := g.Collect(0); len(vals) != 120 {
		t.Fatalf("paused Collect: %d vertices, want 120", len(vals))
	}
	if lv := incregraph.StaticBFS(g.Topology(), 0); lv[119] != 120 {
		t.Fatalf("static BFS over paused topology: %d", lv[119])
	}
	var ckpt bytes.Buffer
	if err := g.WriteCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}

	// The checkpoint restores as a paused-run image with the stream offset.
	g2, err := incregraph.LoadCheckpoint(&ckpt, incregraph.Config{},
		incregraph.BFS(), incregraph.CC())
	if err != nil {
		t.Fatal(err)
	}
	meta := g2.CheckpointMeta()
	if !meta.Paused || meta.Ingested != uint64(len(edges)) {
		t.Fatalf("checkpoint meta = %+v, want Paused at offset %d", meta, len(edges))
	}
	if q := g2.Query(0, 119); q.Value != 120 {
		t.Fatalf("restored query = %+v", q)
	}

	if err := g.Resume(); err != nil {
		t.Fatal(err)
	}
	if g.State() != incregraph.StateRunning {
		t.Fatalf("resumed state = %v", g.State())
	}
	// Stop ends the live run without closing the stream.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := g.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	if g.State() != incregraph.StateStopped {
		t.Fatalf("stopped state = %v", g.State())
	}
	g.Wait() // does not block after Stop
	if err := g.Pause(); err != incregraph.ErrStopped {
		t.Fatalf("Pause after Stop = %v, want ErrStopped", err)
	}
}

// TestFacadeDrainPrompt bounds the latency of Drain on an already-idle
// live stream: the condition-signalled wait must return without polling
// delays (the old implementation spun on runtime.Gosched).
func TestFacadeDrainPrompt(t *testing.T) {
	g := incregraph.New(incregraph.Config{Ranks: 2}, incregraph.CC())
	live := incregraph.NewLiveStream()
	if err := g.Start(live); err != nil {
		t.Fatal(err)
	}
	for _, e := range gen.Cycle(400) {
		live.PushEdge(e)
	}
	g.Drain(live)
	if g.Ingested() != 400 || !g.Quiescent() {
		t.Fatalf("Drain returned early: ingested %d quiescent=%v", g.Ingested(), g.Quiescent())
	}
	start := time.Now()
	for i := 0; i < 100; i++ {
		g.Drain(live)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("100 idle Drains took %v", d)
	}
	live.Close()
	g.Wait()
}

// BenchmarkQueryLocal measures the constant-time local-state observation
// the paper guarantees during runs (§VI-A).
func BenchmarkQueryLocal(b *testing.B) {
	g := incregraph.New(incregraph.Config{Ranks: runtime.GOMAXPROCS(0)}, incregraph.BFS())
	g.InitVertex(0, 0)
	live := incregraph.NewLiveStream()
	if err := g.Start(live); err != nil {
		b.Fatal(err)
	}
	edges := rmat.Generate(rmat.Config{Scale: 12, EdgeFactor: 8, Seed: 3})
	for _, e := range edges {
		live.PushEdge(e)
	}
	for g.Ingested() != uint64(len(edges)) || !g.Quiescent() {
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Query(0, graph.VertexID(i)%4096)
	}
	b.StopTimer()
	live.Close()
	g.Wait()
}
