package core_test

import (
	"testing"

	"incregraph/internal/algo"
	"incregraph/internal/core"
	"incregraph/internal/csr"
	"incregraph/internal/gen"
	"incregraph/internal/graph"
	"incregraph/internal/partition"
	"incregraph/internal/static"
	"incregraph/internal/stream"
)

func TestDirectedSSSP(t *testing.T) {
	edges := gen.ErdosRenyi(150, 1200, 30, 51)
	e := core.New(core.Options{Ranks: 3, Undirected: false}, algo.SSSP{Directed: true})
	e.InitVertex(0, 0)
	if _, err := e.Run(stream.Split(gen.Shuffle(edges, 2), 3)); err != nil {
		t.Fatal(err)
	}
	want := static.Dijkstra(csr.Build(dedupMinWeight(edges), false), 0)
	checkAgainst(t, "directed-sssp", e.Collect(0), want, nil)
}

func TestModuloPartitionerEndToEnd(t *testing.T) {
	// The naive partitioner must still be correct — only balance differs.
	edges := gen.ErdosRenyi(200, 1500, 1, 52)
	e := core.New(core.Options{Ranks: 4, Undirected: true,
		Partitioner: partition.NewModulo(4)}, algo.BFS{})
	e.InitVertex(0, 0)
	if _, err := e.Run(stream.Split(edges, 4)); err != nil {
		t.Fatal(err)
	}
	want := static.BFS(csr.Build(edges, true), 0)
	checkAgainst(t, "modulo-bfs", e.Collect(0), want, nil)
}

func TestPartitionerRankMismatchPanics(t *testing.T) {
	mustPanic(t, func() {
		core.New(core.Options{Ranks: 4, Partitioner: partition.NewHashed(2)})
	})
}

func TestStatsPerRankAndSkew(t *testing.T) {
	edges := gen.ErdosRenyi(300, 3000, 1, 53)
	e := runDynamic(t, edges, 4, true, map[int]graph.VertexID{0: 0}, algo.BFS{})
	s := e.Wait()
	if len(s.PerRank) != 4 {
		t.Fatalf("PerRank = %d entries", len(s.PerRank))
	}
	var topo, algoEv uint64
	for _, r := range s.PerRank {
		topo += r.Events.Topo()
		algoEv += r.Events.Algo()
	}
	if topo != s.Events.Topo() || algoEv != s.Events.Algo() {
		t.Fatalf("per-rank totals disagree: %d/%d %d/%d",
			topo, s.Events.Topo(), algoEv, s.Events.Algo())
	}
	if verts, want := e.Topology().NumVertices(), len(presentIDs(edges)); verts != want {
		t.Fatalf("vertices = %d, want %d", verts, want)
	}
	skew := s.EventSkew()
	if skew < 1.0 || skew > 4.0 {
		t.Fatalf("event skew %.2f implausible for hashed partitioning", skew)
	}
	if (core.EngineStats{}).EventSkew() != 0 {
		t.Fatal("empty stats should have zero skew")
	}
	if (core.EngineStats{PerRank: make([]core.RankEngineStats, 3)}).EventSkew() != 0 {
		t.Fatal("ranks that processed nothing should have zero skew")
	}
}

func TestTopologyViewPanicsMidRun(t *testing.T) {
	live := stream.NewChan()
	e := core.New(core.Options{Ranks: 1, Undirected: true}, algo.BFS{})
	if err := e.Start([]stream.Stream{live}); err != nil {
		t.Fatal(err)
	}
	mustPanic(t, func() { e.Topology() })
	live.Close()
	e.Wait()
	e.Topology() // fine after termination
}

func TestTopoViewEarlyStopAndCounts(t *testing.T) {
	e := runDynamic(t, gen.Path(10), 3, true, nil)
	e.Wait()
	v := e.Topology()
	if v.NumVertices() != 10 || v.MaxVertexID() != 9 {
		t.Fatalf("V=%d max=%d", v.NumVertices(), v.MaxVertexID())
	}
	if v.NumEdges() != 18 { // 9 undirected edges, both directions
		t.Fatalf("E=%d", v.NumEdges())
	}
	n := 0
	v.ForEachVertex(func(graph.VertexID) bool { n++; return n < 4 })
	if n != 4 {
		t.Fatalf("early stop visited %d", n)
	}
	// Neighbors of an absent vertex: silently empty.
	v.Neighbors(999, func(graph.VertexID, graph.Weight) bool {
		t.Fatal("absent vertex produced neighbours")
		return false
	})
}

func TestQueryBeforeStart(t *testing.T) {
	e := core.New(core.Options{Ranks: 2, Undirected: true}, algo.BFS{})
	if r := e.QueryLocal(0, 1); r.Exists {
		t.Fatalf("pre-start query = %+v", r)
	}
}

func TestManyRanksFewVertices(t *testing.T) {
	// More ranks than vertices: most ranks idle; correctness unaffected.
	e := runDynamic(t, gen.Path(4), 16, true, map[int]graph.VertexID{0: 0}, algo.BFS{})
	want := static.BFS(csr.Build(gen.Path(4), true), 0)
	checkAgainst(t, "many-ranks", e.Collect(0), want, nil)
}

func TestInitIsIdempotentUnderRepeats(t *testing.T) {
	e := core.New(core.Options{Ranks: 2, Undirected: true}, algo.BFS{})
	for i := 0; i < 5; i++ {
		e.InitVertex(0, 0) // re-initiating the same source is harmless
	}
	if _, err := e.Run(stream.Split(gen.Path(6), 2)); err != nil {
		t.Fatal(err)
	}
	want := static.BFS(csr.Build(gen.Path(6), true), 0)
	checkAgainst(t, "repeat-init", e.Collect(0), want, nil)
}
