package core_test

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"incregraph/internal/algo"
	"incregraph/internal/core"
	"incregraph/internal/csr"
	"incregraph/internal/gen"
	"incregraph/internal/graph"
	"incregraph/internal/rmat"
	"incregraph/internal/static"
	"incregraph/internal/stream"
)

// runDynamic ingests edges (shuffled, split round-robin across ranks) into
// a fresh engine hosting programs, and returns the engine after
// termination.
func runDynamic(t *testing.T, edges []graph.Edge, ranks int, undirected bool, inits map[int]graph.VertexID, programs ...core.Program) *core.Engine {
	t.Helper()
	e := core.New(core.Options{Ranks: ranks, Undirected: undirected}, programs...)
	for a, v := range inits {
		e.InitVertex(a, v)
	}
	if _, err := e.Run(stream.Split(edges, ranks)); err != nil {
		t.Fatal(err)
	}
	return e
}

// checkAgainst compares a dynamic result (by vertex ID) with a static
// ID-indexed baseline over the set of vertices that exist dynamically.
func checkAgainst(t *testing.T, name string, dyn []core.VertexValue, want []uint64, translate func(uint64) uint64) {
	t.Helper()
	if translate == nil {
		translate = func(v uint64) uint64 { return v }
	}
	for _, p := range dyn {
		if int(p.ID) >= len(want) {
			t.Fatalf("%s: dynamic vertex %d outside static ID space", name, p.ID)
		}
		got := translate(p.Val)
		if got != want[p.ID] {
			t.Fatalf("%s: vertex %d = %d, want %d", name, p.ID, got, want[p.ID])
		}
	}
}

// presentIDs returns the set of endpoint IDs in an edge list.
func presentIDs(edges []graph.Edge) map[graph.VertexID]bool {
	m := map[graph.VertexID]bool{}
	for _, e := range edges {
		m[e.Src] = true
		m[e.Dst] = true
	}
	return m
}

func TestConstructionOnlyCounts(t *testing.T) {
	edges := gen.ErdosRenyi(200, 2000, 1, 1)
	for _, ranks := range []int{1, 2, 3, 8} {
		e := runDynamic(t, edges, ranks, true, nil)
		stats := e.Wait()
		if stats.Events.Topo() != uint64(len(edges)) {
			t.Fatalf("ranks=%d: topo events %d, want %d", ranks, stats.Events.Topo(), len(edges))
		}
		topo := e.Topology()
		want := presentIDs(edges)
		if topo.NumVertices() != len(want) {
			t.Fatalf("ranks=%d: vertices %d, want %d", ranks, topo.NumVertices(), len(want))
		}
		// Undirected: each unique directed pair contributes one entry on
		// each side; verify against the CSR count of unique pairs.
		uniq := map[[2]graph.VertexID]bool{}
		for _, ed := range edges {
			uniq[[2]graph.VertexID{ed.Src, ed.Dst}] = true
			uniq[[2]graph.VertexID{ed.Dst, ed.Src}] = true
		}
		if topo.NumEdges() != uint64(len(uniq)) {
			t.Fatalf("ranks=%d: edges %d, want %d", ranks, topo.NumEdges(), len(uniq))
		}
	}
}

func TestTopologyViewMatchesCSR(t *testing.T) {
	edges := gen.ErdosRenyi(100, 600, 9, 2)
	e := runDynamic(t, edges, 4, true, nil)
	e.Wait()
	view := e.Topology()
	g := csr.Build(edges, true)
	// Every CSR adjacency must exist in the view (deduplicated) and vice
	// versa: compare neighbour sets per vertex.
	for id := range presentIDs(edges) {
		wantN := map[graph.VertexID]bool{}
		g.Neighbors(id, func(n graph.VertexID, _ graph.Weight) bool {
			wantN[n] = true
			return true
		})
		gotN := map[graph.VertexID]bool{}
		view.Neighbors(id, func(n graph.VertexID, _ graph.Weight) bool {
			gotN[n] = true
			return true
		})
		if len(gotN) != len(wantN) {
			t.Fatalf("vertex %d: %d nbrs dynamic vs %d static", id, len(gotN), len(wantN))
		}
		for n := range wantN {
			if !gotN[n] {
				t.Fatalf("vertex %d missing neighbour %d", id, n)
			}
		}
	}
}

func TestBFSMatchesStatic(t *testing.T) {
	for _, tc := range []struct {
		name  string
		edges []graph.Edge
	}{
		{"path", gen.Path(50)},
		{"star", gen.Star(50)},
		{"cycle", gen.Cycle(37)},
		{"tree", gen.Tree(100, 3)},
		{"grid", gen.Grid(10, 10)},
		{"random", gen.ErdosRenyi(300, 2000, 1, 3)},
		{"disconnected", append(gen.Path(10), gen.ErdosRenyi(50, 100, 1, 4)...)},
	} {
		for _, ranks := range []int{1, 3, 7} {
			shuffled := gen.Shuffle(tc.edges, int64(ranks))
			e := runDynamic(t, shuffled, ranks, true, map[int]graph.VertexID{0: 0}, algo.BFS{})
			want := static.BFS(csr.Build(tc.edges, true), 0)
			checkAgainst(t, tc.name, e.Collect(0), want, nil)
		}
	}
}

func TestBFSInitAfterConstruction(t *testing.T) {
	// Init issued only after every edge is ingested, on a live engine.
	edges := gen.ErdosRenyi(200, 1200, 1, 5)
	e := core.New(core.Options{Ranks: 4, Undirected: true}, algo.BFS{})
	live := stream.NewChan()
	if err := e.Start([]stream.Stream{live}); err != nil {
		t.Fatal(err)
	}
	for _, ed := range edges {
		live.PushEdge(ed)
	}
	// Wait for construction to settle, then initiate the traversal "at any
	// time" (§VI-A).
	waitDrained(t, e, uint64(len(edges)))
	e.InitVertex(0, 0)
	live.Close()
	e.Wait()
	want := static.BFS(csr.Build(edges, true), 0)
	checkAgainst(t, "late-init", e.Collect(0), want, nil)
}

// waitDrained blocks until the engine has pulled `pushed` stream events
// and processed every cascade. Quiescent alone is not enough with live
// streams: events still buffered inside the stream are invisible to the
// in-flight counters.
func waitDrained(t *testing.T, e *core.Engine, pushed uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for e.Ingested() != pushed || !e.Quiescent() {
		if time.Now().After(deadline) {
			t.Fatalf("engine did not drain: ingested %d/%d quiescent=%v",
				e.Ingested(), pushed, e.Quiescent())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestDirectedBFS(t *testing.T) {
	edges := gen.ErdosRenyi(200, 1500, 1, 6)
	e := core.New(core.Options{Ranks: 3, Undirected: false}, algo.BFS{Directed: true})
	e.InitVertex(0, 0)
	if _, err := e.Run(stream.Split(gen.Shuffle(edges, 1), 3)); err != nil {
		t.Fatal(err)
	}
	want := static.BFS(csr.Build(edges, false), 0)
	checkAgainst(t, "directed-bfs", e.Collect(0), want, nil)
}

func TestSSSPMatchesDijkstra(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		edges := gen.ErdosRenyi(150, 1200, 50, seed)
		for _, ranks := range []int{1, 4} {
			e := runDynamic(t, gen.Shuffle(edges, seed), ranks, true,
				map[int]graph.VertexID{0: 0}, algo.SSSP{})
			// Duplicate (src,dst) pairs keep the minimum weight in the
			// dynamic store; reduce the static input the same way.
			want := static.Dijkstra(csr.Build(dedupMinWeight(edges), true), 0)
			checkAgainst(t, "sssp", e.Collect(0), want, nil)
		}
	}
}

// dedupMinWeight keeps the minimum weight per directed pair, matching the
// dynamic store's re-insertion rule.
func dedupMinWeight(edges []graph.Edge) []graph.Edge {
	min := map[[2]graph.VertexID]graph.Weight{}
	var order [][2]graph.VertexID
	for _, e := range edges {
		k := [2]graph.VertexID{e.Src, e.Dst}
		if w, ok := min[k]; !ok || e.W < w {
			if !ok {
				order = append(order, k)
			}
			min[k] = e.W
		}
	}
	out := make([]graph.Edge, 0, len(order))
	for _, k := range order {
		out = append(out, graph.Edge{Src: k[0], Dst: k[1], W: min[k]})
	}
	return out
}

func TestWidestPathMatchesStatic(t *testing.T) {
	// Widest-path needs the WeightMax duplicate policy: weights may only
	// ever increase for its state to stay monotone (the mirror image of
	// SSSP's reduce-only rule, §II-B).
	for seed := int64(0); seed < 3; seed++ {
		edges := gen.ErdosRenyi(150, 1000, 40, seed+30)
		for _, ranks := range []int{1, 4} {
			e := core.New(core.Options{Ranks: ranks, Undirected: true,
				WeightPolicy: graph.WeightMax}, algo.Widest{})
			e.InitVertex(0, 0)
			if _, err := e.Run(stream.Split(gen.Shuffle(edges, seed), ranks)); err != nil {
				t.Fatal(err)
			}
			want := static.WidestPath(csr.Build(dedupMaxWeight(edges), true), 0)
			checkAgainst(t, "widest", e.Collect(0), want, nil)
		}
	}
}

func TestDirectedWidestPath(t *testing.T) {
	edges := gen.ErdosRenyi(100, 800, 25, 77)
	e := core.New(core.Options{Ranks: 3, Undirected: false,
		WeightPolicy: graph.WeightMax}, algo.Widest{Directed: true})
	e.InitVertex(0, 0)
	if _, err := e.Run(stream.Split(gen.Shuffle(edges, 3), 3)); err != nil {
		t.Fatal(err)
	}
	want := static.WidestPath(csr.Build(dedupMaxWeight(edges), false), 0)
	checkAgainst(t, "directed-widest", e.Collect(0), want, nil)
}

// dedupMaxWeight keeps the maximum weight per directed pair (the
// WeightMax policy's view of a duplicate-bearing stream).
func dedupMaxWeight(edges []graph.Edge) []graph.Edge {
	max := map[[2]graph.VertexID]graph.Weight{}
	var order [][2]graph.VertexID
	for _, e := range edges {
		k := [2]graph.VertexID{e.Src, e.Dst}
		if w, ok := max[k]; !ok || e.W > w {
			if !ok {
				order = append(order, k)
			}
			max[k] = e.W
		}
	}
	out := make([]graph.Edge, 0, len(order))
	for _, k := range order {
		out = append(out, graph.Edge{Src: k[0], Dst: k[1], W: max[k]})
	}
	return out
}

func TestCCMatchesStatic(t *testing.T) {
	base := append(gen.ErdosRenyi(120, 80, 1, 7), gen.Path(20)...)
	for _, ranks := range []int{1, 2, 5} {
		e := runDynamic(t, gen.Shuffle(base, int64(ranks)), ranks, true, nil, algo.CC{})
		want := static.ConnectedComponents(csr.Build(base, true))
		checkAgainst(t, "cc", e.Collect(0), want, nil)
	}
}

func TestMultiSTMatchesStatic(t *testing.T) {
	edges := gen.ErdosRenyi(200, 500, 1, 8)
	sources := []graph.VertexID{0, 5, 17, 99}
	for _, ranks := range []int{1, 4} {
		st := algo.NewMultiST(sources)
		e := core.New(core.Options{Ranks: ranks, Undirected: true}, st)
		for _, s := range sources {
			e.InitVertex(0, s)
		}
		if _, err := e.Run(stream.Split(gen.Shuffle(edges, 2), ranks)); err != nil {
			t.Fatal(err)
		}
		want := static.MultiST(csr.Build(edges, true), sources)
		// Sources may not appear in any edge; the static baseline only
		// marks in-range IDs. Compare over dynamic vertices.
		checkAgainst(t, "multist", e.Collect(0), want, nil)
	}
}

func TestMultipleAlgorithmsConcurrently(t *testing.T) {
	edges := gen.ErdosRenyi(150, 900, 9, 9)
	bfs, cc, deg := algo.BFS{}, algo.CC{}, algo.Degree{}
	e := core.New(core.Options{Ranks: 4, Undirected: true}, bfs, cc, deg)
	e.InitVertex(0, 0)
	if _, err := e.Run(stream.Split(gen.Shuffle(edges, 3), 4)); err != nil {
		t.Fatal(err)
	}
	g := csr.Build(edges, true)
	checkAgainst(t, "multi-bfs", e.Collect(0), static.BFS(g, 0), nil)
	checkAgainst(t, "multi-cc", e.Collect(1), static.ConnectedComponents(g), nil)
	// Degree: compare against the deduplicated undirected degree.
	dd := csr.Build(dedupMinWeight(edges), true)
	wantDeg := static.Degrees(ddDedup(dd, edges))
	checkAgainst(t, "multi-degree", e.Collect(2), wantDeg, nil)
}

// ddDedup builds the fully deduplicated undirected topology (the dynamic
// store never duplicates an adjacency entry).
func ddDedup(_ *csr.Graph, edges []graph.Edge) static.Topology {
	uniq := map[[2]graph.VertexID]bool{}
	var out []graph.Edge
	for _, e := range edges {
		for _, k := range [][2]graph.VertexID{{e.Src, e.Dst}, {e.Dst, e.Src}} {
			if !uniq[k] {
				uniq[k] = true
				out = append(out, graph.Edge{Src: k[0], Dst: k[1], W: e.W})
			}
		}
	}
	return csr.Build(out, false)
}

func TestDegreeTriggers(t *testing.T) {
	// §II-A: fire a callback when a vertex's degree exceeds a threshold.
	edges := gen.Star(64) // center reaches degree 63
	var fired atomic.Int64
	var firedAt atomic.Uint64
	e := core.New(core.Options{Ranks: 2, Undirected: true}, algo.Degree{})
	e.When(0,
		func(_ graph.VertexID, val uint64) bool { return val >= 50 },
		func(v graph.VertexID, val uint64) {
			fired.Add(1)
			firedAt.Store(uint64(v))
		})
	if _, err := e.Run(stream.Split(edges, 2)); err != nil {
		t.Fatal(err)
	}
	if fired.Load() != 1 {
		t.Fatalf("trigger fired %d times, want exactly 1 (monotone once-only)", fired.Load())
	}
	if firedAt.Load() != 0 {
		t.Fatalf("trigger fired at vertex %d, want the star centre 0", firedAt.Load())
	}
}

func TestWhenVertexConnectivity(t *testing.T) {
	// "When is vertex A connected to vertex B?" via S-T connectivity.
	st := algo.NewMultiST([]graph.VertexID{0})
	e := core.New(core.Options{Ranks: 2, Undirected: true}, st)
	var fired atomic.Int64
	e.WhenVertex(0, 49,
		func(val uint64) bool { return val&1 != 0 },
		func(val uint64) { fired.Add(1) })
	e.InitVertex(0, 0)
	if _, err := e.Run(stream.Split(gen.Path(50), 2)); err != nil {
		t.Fatal(err)
	}
	if fired.Load() != 1 {
		t.Fatalf("connectivity trigger fired %d times", fired.Load())
	}
}

func TestTriggerNoFalsePositive(t *testing.T) {
	// Two disjoint paths; a trigger on connectivity to the other component
	// must never fire.
	edges := append(gen.Path(20), offsetEdges(gen.Path(20), 100)...)
	st := algo.NewMultiST([]graph.VertexID{0})
	e := core.New(core.Options{Ranks: 3, Undirected: true}, st)
	var fired atomic.Int64
	e.When(0,
		func(v graph.VertexID, val uint64) bool { return v >= 100 && val != 0 },
		func(graph.VertexID, uint64) { fired.Add(1) })
	e.InitVertex(0, 0)
	if _, err := e.Run(stream.Split(edges, 3)); err != nil {
		t.Fatal(err)
	}
	if fired.Load() != 0 {
		t.Fatalf("trigger fired %d times across disconnected components", fired.Load())
	}
}

func offsetEdges(edges []graph.Edge, off graph.VertexID) []graph.Edge {
	out := make([]graph.Edge, len(edges))
	for i, e := range edges {
		out[i] = graph.Edge{Src: e.Src + off, Dst: e.Dst + off, W: e.W}
	}
	return out
}

func TestQueryLocalDuringRun(t *testing.T) {
	live := stream.NewChan()
	e := core.New(core.Options{Ranks: 2, Undirected: true}, algo.BFS{})
	e.InitVertex(0, 0)
	if err := e.Start([]stream.Stream{live}); err != nil {
		t.Fatal(err)
	}
	for _, ed := range gen.Path(10) {
		live.PushEdge(ed)
	}
	waitDrained(t, e, 9)
	res := e.QueryLocal(0, 9)
	if !res.Exists || res.Value != 10 {
		t.Fatalf("QueryLocal(9) = %+v, want level 10", res)
	}
	if r := e.QueryLocal(0, 555); r.Exists {
		t.Fatalf("QueryLocal(absent) = %+v", r)
	}
	live.Close()
	e.Wait()
	// Post-run queries take the direct path.
	if r := e.QueryLocal(0, 5); !r.Exists || r.Value != 6 {
		t.Fatalf("post-run QueryLocal(5) = %+v", r)
	}
}

func TestSnapshotAfterTermination(t *testing.T) {
	e := runDynamic(t, gen.Path(20), 2, true, map[int]graph.VertexID{0: 0}, algo.BFS{})
	e.Wait()
	snap := e.SnapshotAsync(0)
	got := snap.Wait()
	want := e.Collect(0)
	if len(got) != len(want) {
		t.Fatalf("snapshot %d entries, collect %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("entry %d: %+v vs %+v", i, got[i], want[i])
		}
	}
	if snap.Latency() < 0 {
		t.Fatal("negative latency")
	}
}

func TestSnapshotAtQuiescentCut(t *testing.T) {
	// Ingest a prefix, quiesce, snapshot, then ingest a suffix. The
	// snapshot must equal the static result on the prefix topology even
	// though the engine keeps running while it is collected.
	full := gen.Shuffle(gen.ErdosRenyi(150, 1200, 1, 11), 4)
	prefix, suffix := full[:600], full[600:]
	live := stream.NewChan()
	e := core.New(core.Options{Ranks: 4, Undirected: true}, algo.BFS{})
	e.InitVertex(0, 0)
	if err := e.Start([]stream.Stream{live}); err != nil {
		t.Fatal(err)
	}
	for _, ed := range prefix {
		live.PushEdge(ed)
	}
	waitDrained(t, e, uint64(len(prefix)))
	snap := e.SnapshotAsync(0)
	// Keep ingesting immediately — the snapshot must not need a pause.
	for _, ed := range suffix {
		live.PushEdge(ed)
	}
	got := snap.AsMap()
	live.Close()
	e.Wait()

	want := static.BFS(csr.Build(prefix, true), 0)
	for id, val := range got {
		if int(id) >= len(want) || want[id] != val {
			t.Fatalf("snapshot vertex %d = %d, static prefix BFS = %d", id, val, idxOr(want, id))
		}
	}
	// Every prefix endpoint must be in the snapshot.
	for id := range presentIDs(prefix) {
		if _, ok := got[id]; !ok {
			t.Fatalf("snapshot missing prefix vertex %d", id)
		}
	}
	// And the final state must reflect the whole stream.
	checkAgainst(t, "post-snapshot-final", e.Collect(0), static.BFS(csr.Build(full, true), 0), nil)
}

func idxOr(a []uint64, i graph.VertexID) uint64 {
	if int(i) < len(a) {
		return a[i]
	}
	return 0
}

func TestSnapshotMidFlight(t *testing.T) {
	// Snapshot while events are in full flight: we cannot pin the exact
	// cut, but monotonicity gives checkable properties — every snapshot
	// level is >= the final level, and the snapshot vertex set is a subset
	// of the final one.
	edges := gen.Shuffle(gen.ErdosRenyi(300, 3000, 1, 12), 5)
	e := core.New(core.Options{Ranks: 4, Undirected: true}, algo.BFS{})
	e.InitVertex(0, 0)
	if err := e.Start(stream.Split(edges, 4)); err != nil {
		t.Fatal(err)
	}
	snap := e.SnapshotAsync(0)
	got := snap.AsMap()
	e.Wait()
	final := e.CollectMap(0)
	for id, val := range got {
		fv, ok := final[id]
		if !ok {
			t.Fatalf("snapshot vertex %d missing from final state", id)
		}
		if val < fv {
			t.Fatalf("vertex %d: snapshot level %d < final level %d (monotonicity violated)", id, val, fv)
		}
	}
}

func TestSequentialSnapshots(t *testing.T) {
	edges := gen.Shuffle(gen.ErdosRenyi(200, 2000, 1, 13), 6)
	e := core.New(core.Options{Ranks: 3, Undirected: true}, algo.CC{})
	if err := e.Start(stream.Split(edges, 3)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		snap := e.SnapshotAsync(0)
		snap.Wait()
	}
	e.Wait()
	checkAgainst(t, "cc-after-snapshots", e.Collect(0),
		static.ConnectedComponents(csr.Build(edges, true)), nil)
}

func TestEngineErrors(t *testing.T) {
	e := core.New(core.Options{Ranks: 2, Undirected: true}, algo.BFS{})
	if err := e.Start(make([]stream.Stream, 3)); err == nil {
		t.Fatal("expected error: more streams than ranks")
	}
	if err := e.Start(nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(nil); err == nil {
		t.Fatal("expected error: double start")
	}
	e.Wait()

	mustPanic(t, func() { core.New(core.Options{Ranks: -1}) })
	mustPanic(t, func() {
		e2 := core.New(core.Options{Ranks: 1}, algo.BFS{})
		e2.InitVertex(5, 0)
	})
	mustPanic(t, func() {
		e3 := core.New(core.Options{Ranks: 1}, algo.BFS{})
		if err := e3.Start(nil); err != nil {
			t.Error(err)
		}
		defer e3.Wait()
		e3.When(0, func(graph.VertexID, uint64) bool { return true }, func(graph.VertexID, uint64) {})
	})
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}

func TestEmptyStream(t *testing.T) {
	e := core.New(core.Options{Ranks: 3, Undirected: true}, algo.BFS{})
	stats, err := e.Run(stream.Split(nil, 3))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Events.Topo() != 0 || e.Topology().NumVertices() != 0 {
		t.Fatalf("stats = %+v, %d vertices", stats, e.Topology().NumVertices())
	}
	if got := e.Collect(0); len(got) != 0 {
		t.Fatalf("collect on empty engine = %v", got)
	}
}

func TestInitOnlyNoEdges(t *testing.T) {
	e := core.New(core.Options{Ranks: 2, Undirected: true}, algo.BFS{})
	e.InitVertex(0, 7)
	e.Run(nil)
	got := e.CollectMap(0)
	if len(got) != 1 || got[7] != 1 {
		t.Fatalf("collect = %v", got)
	}
}

func TestSelfLoopsAndDuplicates(t *testing.T) {
	edges := []graph.Edge{
		{Src: 0, Dst: 0, W: 1}, {Src: 0, Dst: 1, W: 1}, {Src: 0, Dst: 1, W: 1},
		{Src: 1, Dst: 0, W: 1}, {Src: 1, Dst: 2, W: 1}, {Src: 2, Dst: 2, W: 1},
	}
	e := runDynamic(t, edges, 2, true, map[int]graph.VertexID{0: 0}, algo.BFS{})
	want := static.BFS(csr.Build(edges, true), 0)
	checkAgainst(t, "selfloop", e.Collect(0), want, nil)
}

func TestIngestFirstOption(t *testing.T) {
	edges := gen.ErdosRenyi(100, 800, 1, 16)
	e := core.New(core.Options{Ranks: 3, Undirected: true, IngestFirst: true}, algo.BFS{})
	e.InitVertex(0, 0)
	if _, err := e.Run(stream.Split(edges, 3)); err != nil {
		t.Fatal(err)
	}
	want := static.BFS(csr.Build(edges, true), 0)
	checkAgainst(t, "ingest-first", e.Collect(0), want, nil)
}

func TestSmallBatchSizes(t *testing.T) {
	edges := gen.ErdosRenyi(80, 500, 1, 17)
	for _, bs := range []int{1, 2, 7} {
		e := core.New(core.Options{Ranks: 4, Undirected: true, BatchSize: bs}, algo.CC{})
		if _, err := e.Run(stream.Split(edges, 4)); err != nil {
			t.Fatal(err)
		}
		want := static.ConnectedComponents(csr.Build(edges, true))
		checkAgainst(t, "batch", e.Collect(0), want, nil)
	}
}

// The determinism claim of §II-D: the converged state is identical across
// rank counts, stream orders, and schedules.
func TestConvergenceDeterminism(t *testing.T) {
	edges := gen.ErdosRenyi(120, 900, 30, 18)
	var first []core.VertexValue
	for trial := 0; trial < 6; trial++ {
		ranks := []int{1, 2, 3, 4, 6, 8}[trial]
		e := runDynamic(t, gen.Shuffle(edges, int64(trial)), ranks, true,
			map[int]graph.VertexID{0: 0}, algo.SSSP{})
		got := e.Collect(0)
		if first == nil {
			first = got
			continue
		}
		if len(got) != len(first) {
			t.Fatalf("trial %d: %d vertices vs %d", trial, len(got), len(first))
		}
		for i := range got {
			if got[i] != first[i] {
				t.Fatalf("trial %d: entry %d = %+v vs %+v", trial, i, got[i], first[i])
			}
		}
	}
}

func TestStatsString(t *testing.T) {
	e := runDynamic(t, gen.Path(10), 2, true, nil)
	s := e.Wait()
	if !strings.HasPrefix(s.String(), "state=stopped ") || s.EventRate() <= 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestLoopbackTransportUnderStart: the loopback transport exists for
// StartSim, but it is also legal under a normal Start, where every rank
// calls Send concurrently. Run under -race, this pins the transport's
// shared state as synchronised.
func TestLoopbackTransportUnderStart(t *testing.T) {
	edges := rmat.Generate(rmat.Config{Scale: 10, EdgeFactor: 8, Seed: 5})
	e := core.New(core.Options{Ranks: 2, Undirected: true, Transport: core.NewLoopbackTransport(2)}, algo.BFS{})
	e.InitVertex(0, 0)
	if _, err := e.Run(stream.Split(edges, 2)); err != nil {
		t.Fatal(err)
	}
	if ts := e.EngineStats().Transport; ts.Kind != "loopback" {
		t.Fatalf("transport kind = %q, want loopback", ts.Kind)
	}
	checkAgainst(t, "loopback-bfs", e.Collect(0), static.BFS(csr.Build(edges, true), 0), nil)
}
