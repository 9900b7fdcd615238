package algo_test

import (
	"testing"

	"incregraph/internal/algo"
	"incregraph/internal/core"
	"incregraph/internal/csr"
	"incregraph/internal/gen"
	"incregraph/internal/graph"
	"incregraph/internal/static"
	"incregraph/internal/stream"
)

// These integration tests exercise every callback path of every program
// from within the algo package (the deeper randomized convergence matrix
// lives in internal/core's tests).

func run(t *testing.T, edges []graph.Edge, opts core.Options, inits []graph.VertexID, p core.Program) *core.Engine {
	t.Helper()
	opts.Undirected = true
	if opts.Ranks == 0 {
		opts.Ranks = 3
	}
	e := core.New(opts, p)
	for _, v := range inits {
		e.InitVertex(0, v)
	}
	if _, err := e.Run(stream.Split(gen.Shuffle(edges, 9), opts.Ranks)); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestBFSConverges(t *testing.T) {
	edges := gen.ErdosRenyi(120, 800, 1, 1)
	e := run(t, edges, core.Options{}, []graph.VertexID{0}, algo.BFS{})
	want := static.BFS(csr.Build(edges, true), 0)
	for _, p := range e.Collect(0) {
		if p.Val != want[p.ID] {
			t.Fatalf("vertex %d: %d vs %d", p.ID, p.Val, want[p.ID])
		}
	}
}

func TestSSSPConverges(t *testing.T) {
	edges := gen.ErdosRenyi(120, 800, 30, 2)
	// Unique weights per pair to avoid duplicate-policy bookkeeping here.
	seen := map[[2]graph.VertexID]bool{}
	var uniq []graph.Edge
	for _, e := range edges {
		k := [2]graph.VertexID{e.Src, e.Dst}
		if !seen[k] {
			seen[k] = true
			uniq = append(uniq, e)
		}
	}
	e := run(t, uniq, core.Options{}, []graph.VertexID{0}, algo.SSSP{})
	want := static.Dijkstra(csr.Build(uniq, true), 0)
	for _, p := range e.Collect(0) {
		if p.Val != want[p.ID] {
			t.Fatalf("vertex %d: %d vs %d", p.ID, p.Val, want[p.ID])
		}
	}
}

func TestCCConverges(t *testing.T) {
	edges := append(gen.ErdosRenyi(100, 60, 1, 3), gen.Cycle(12)...)
	e := run(t, edges, core.Options{}, nil, algo.CC{})
	want := static.ConnectedComponents(csr.Build(edges, true))
	for _, p := range e.Collect(0) {
		if p.Val != want[p.ID] {
			t.Fatalf("vertex %d: %d vs %d", p.ID, p.Val, want[p.ID])
		}
	}
}

func TestMultiSTConverges(t *testing.T) {
	edges := gen.ErdosRenyi(150, 400, 1, 4)
	sources := []graph.VertexID{0, 9, 33}
	st := algo.NewMultiST(sources)
	e := core.New(core.Options{Ranks: 3, Undirected: true}, st)
	for _, s := range sources {
		e.InitVertex(0, s)
	}
	if _, err := e.Run(stream.Split(edges, 3)); err != nil {
		t.Fatal(err)
	}
	want := static.MultiST(csr.Build(edges, true), sources)
	for _, p := range e.Collect(0) {
		if p.Val != want[p.ID] {
			t.Fatalf("vertex %d: %b vs %b", p.ID, p.Val, want[p.ID])
		}
	}
}

func TestWidestConverges(t *testing.T) {
	edges := gen.ErdosRenyi(100, 600, 25, 5)
	seen := map[[2]graph.VertexID]bool{}
	var uniq []graph.Edge
	for _, e := range edges {
		k := [2]graph.VertexID{e.Src, e.Dst}
		if !seen[k] {
			seen[k] = true
			uniq = append(uniq, e)
		}
	}
	e := run(t, uniq, core.Options{WeightPolicy: graph.WeightMax}, []graph.VertexID{0}, algo.Widest{})
	want := static.WidestPath(csr.Build(uniq, true), 0)
	for _, p := range e.Collect(0) {
		if p.Val != want[p.ID] {
			t.Fatalf("vertex %d: %d vs %d", p.ID, p.Val, want[p.ID])
		}
	}
}

func TestDegreeConverges(t *testing.T) {
	edges := gen.Star(40)
	e := run(t, edges, core.Options{}, nil, algo.Degree{})
	got := e.CollectMap(0)
	if got[0] != 39 {
		t.Fatalf("hub degree = %d", got[0])
	}
	for v := graph.VertexID(1); v < 40; v++ {
		if got[v] != 1 {
			t.Fatalf("leaf %d degree = %d", v, got[v])
		}
	}
}

func TestDegreeWithDeletes(t *testing.T) {
	events := []graph.EdgeEvent{
		{Edge: graph.Edge{Src: 0, Dst: 1, W: 1}},
		{Edge: graph.Edge{Src: 0, Dst: 2, W: 1}},
		{Edge: graph.Edge{Src: 0, Dst: 3, W: 1}},
		{Edge: graph.Edge{Src: 0, Dst: 2, W: 1}, Delete: true},
	}
	e := core.New(core.Options{Ranks: 2, Undirected: true}, algo.Degree{})
	if _, err := e.Run([]stream.Stream{stream.FromEvents(events)}); err != nil {
		t.Fatal(err)
	}
	got := e.CollectMap(0)
	if got[0] != 2 || got[2] != 0 || got[1] != 1 {
		t.Fatalf("degrees after delete = %v", got)
	}
}

func TestBFSInitAndDeletes(t *testing.T) {
	events := []graph.EdgeEvent{
		{Edge: graph.Edge{Src: 0, Dst: 1, W: 1}},
		{Edge: graph.Edge{Src: 1, Dst: 2, W: 1}},
		{Edge: graph.Edge{Src: 2, Dst: 3, W: 1}},
		{Edge: graph.Edge{Src: 0, Dst: 3, W: 1}},               // shortcut: 3 at level 2
		{Edge: graph.Edge{Src: 0, Dst: 3, W: 1}, Delete: true}, // cut it: 3 back to 4
	}
	e := core.New(core.Options{Ranks: 2, Undirected: true}, algo.BFS{})
	e.InitVertex(0, 0)
	if _, err := e.Run([]stream.Stream{stream.FromEvents(events)}); err != nil {
		t.Fatal(err)
	}
	levels := e.CollectMap(0)
	want := map[graph.VertexID]uint64{0: 1, 1: 2, 2: 3, 3: 4}
	for v, w := range want {
		if levels[v] != w {
			t.Fatalf("vertex %d level %d want %d (all: %v)", v, levels[v], w, levels)
		}
	}
}
