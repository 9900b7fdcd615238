package static

import (
	"math/rand"
	"testing"

	"incregraph/internal/csr"
	"incregraph/internal/gen"
	"incregraph/internal/graph"
)

func TestBFSPath(t *testing.T) {
	g := csr.Build(gen.Path(5), false)
	levels := BFS(g, 0)
	for i := 0; i < 5; i++ {
		if levels[i] != uint64(i)+1 {
			t.Fatalf("level[%d] = %d, want %d", i, levels[i], i+1)
		}
	}
	// From the middle of a directed path, earlier vertices are unreachable.
	levels = BFS(g, 2)
	if levels[0] != Unreached || levels[1] != Unreached {
		t.Fatal("directed path should not reach backwards")
	}
	if levels[2] != 1 || levels[4] != 3 {
		t.Fatalf("levels = %v", levels)
	}
}

func TestBFSStarAndCycle(t *testing.T) {
	star := csr.Build(gen.Star(6), false)
	levels := BFS(star, 0)
	if levels[0] != 1 {
		t.Fatal("source level != 1")
	}
	for i := 1; i < 6; i++ {
		if levels[i] != 2 {
			t.Fatalf("leaf %d level %d", i, levels[i])
		}
	}
	cyc := csr.Build(gen.Cycle(4), false)
	levels = BFS(cyc, 0)
	want := []uint64{1, 2, 3, 4}
	for i, w := range want {
		if levels[i] != w {
			t.Fatalf("cycle levels = %v", levels)
		}
	}
}

func TestBFSUndirected(t *testing.T) {
	g := csr.Build(gen.Path(5), true)
	levels := BFS(g, 2)
	want := []uint64{3, 2, 1, 2, 3}
	for i, w := range want {
		if levels[i] != w {
			t.Fatalf("levels = %v, want %v", levels, want)
		}
	}
}

func TestBFSEmptyAndOutOfRange(t *testing.T) {
	g := csr.Build(nil, false)
	if got := BFS(g, 0); len(got) != 0 {
		t.Fatalf("BFS on empty graph returned %v", got)
	}
	g2 := csr.Build(gen.Path(3), false)
	if got := BFS(g2, 99); got[0] != Unreached {
		t.Fatal("out-of-range source should leave everything unreached")
	}
}

func TestDijkstraKnown(t *testing.T) {
	// 0 ->(1) 1 ->(1) 2, plus a heavy shortcut 0 ->(5) 2.
	edges := []graph.Edge{
		{Src: 0, Dst: 1, W: 1},
		{Src: 1, Dst: 2, W: 1},
		{Src: 0, Dst: 2, W: 5},
	}
	g := csr.Build(edges, false)
	dist := Dijkstra(g, 0)
	if dist[0] != 1 || dist[1] != 2 || dist[2] != 3 {
		t.Fatalf("dist = %v", dist)
	}
}

func TestDijkstraEqualsBellmanFordRandom(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		edges := gen.ErdosRenyi(200, 1500, 20, seed)
		g := csr.Build(edges, false)
		d1 := Dijkstra(g, 0)
		d2 := BellmanFord(g, 0)
		for v := range d1 {
			if d1[v] != d2[v] {
				t.Fatalf("seed %d: dist[%d] dijkstra=%d bellman-ford=%d", seed, v, d1[v], d2[v])
			}
		}
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	// Two disjoint edges.
	edges := []graph.Edge{{Src: 0, Dst: 1, W: 1}, {Src: 2, Dst: 3, W: 1}}
	g := csr.Build(edges, false)
	dist := Dijkstra(g, 0)
	if dist[2] != Unreached || dist[3] != Unreached {
		t.Fatalf("dist = %v", dist)
	}
}

func TestConnectedComponents(t *testing.T) {
	// Components {0,1,2} and {3,4}; vertex 5 isolated... but CSR's dense
	// space only spans touched IDs, so add a self-loop to include 5.
	edges := []graph.Edge{
		{Src: 0, Dst: 1, W: 1},
		{Src: 1, Dst: 2, W: 1},
		{Src: 3, Dst: 4, W: 1},
		{Src: 5, Dst: 5, W: 1},
	}
	g := csr.Build(edges, true)
	labels := ConnectedComponents(g)
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Fatalf("component A split: %v", labels)
	}
	if labels[3] != labels[4] {
		t.Fatalf("component B split: %v", labels)
	}
	if labels[0] == labels[3] || labels[0] == labels[5] || labels[3] == labels[5] {
		t.Fatalf("components merged: %v", labels)
	}
	// Label is the min hash over the component.
	wantA := min3(graph.CCLabel(0), graph.CCLabel(1), graph.CCLabel(2))
	if labels[0] != wantA {
		t.Fatalf("label[0] = %d, want min-hash %d", labels[0], wantA)
	}
}

func min3(a, b, c uint64) uint64 {
	m := a
	if b < m {
		m = b
	}
	if c < m {
		m = c
	}
	return m
}

func TestCCMatchesBFSReachability(t *testing.T) {
	// On an undirected graph, two vertices share a CC label iff BFS from
	// one reaches the other.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 5; trial++ {
		edges := gen.ErdosRenyi(60, 50, 1, rng.Int63())
		g := csr.Build(edges, true)
		labels := ConnectedComponents(g)
		from0 := BFS(g, 0)
		for v := range labels {
			sameComp := labels[v] == labels[0]
			reached := from0[v] != Unreached
			if sameComp != reached {
				t.Fatalf("trial %d vertex %d: sameComp=%v reached=%v", trial, v, sameComp, reached)
			}
		}
	}
}

func TestMultiST(t *testing.T) {
	// 0 -> 1 -> 2   3 -> 2
	edges := []graph.Edge{
		{Src: 0, Dst: 1, W: 1},
		{Src: 1, Dst: 2, W: 1},
		{Src: 3, Dst: 2, W: 1},
	}
	g := csr.Build(edges, false)
	mask := MultiST(g, []graph.VertexID{0, 3})
	if mask[0] != 0b01 || mask[1] != 0b01 || mask[3] != 0b10 {
		t.Fatalf("mask = %b", mask)
	}
	if mask[2] != 0b11 {
		t.Fatalf("vertex 2 should see both sources, mask = %b", mask[2])
	}
}

func TestMultiSTDuplicateSources(t *testing.T) {
	g := csr.Build(gen.Path(3), false)
	mask := MultiST(g, []graph.VertexID{0, 0})
	if mask[2] != 0b11 {
		t.Fatalf("duplicate sources should both label: %b", mask[2])
	}
}

func TestMultiSTTooManySources(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic with >64 sources")
		}
	}()
	MultiST(csr.Build(gen.Path(3), false), make([]graph.VertexID, 65))
}

func TestDegrees(t *testing.T) {
	g := csr.Build(gen.Star(5), false)
	deg := Degrees(g)
	if deg[0] != 4 {
		t.Fatalf("deg[0] = %d", deg[0])
	}
	for i := 1; i < 5; i++ {
		if deg[i] != 0 {
			t.Fatalf("leaf degree %d", deg[i])
		}
	}
}

func BenchmarkStaticBFS(b *testing.B) {
	edges := gen.ErdosRenyi(1<<16, 1<<19, 1, 1)
	g := csr.Build(edges, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BFS(g, 0)
	}
}

func TestLargestComponentVertex(t *testing.T) {
	// Two components: {0..4} (path) and {100..102} (triangle).
	edges := append(gen.Path(5),
		graph.Edge{Src: 100, Dst: 101, W: 1},
		graph.Edge{Src: 101, Dst: 102, W: 1})
	v := LargestComponentVertex(edges)
	if v > 4 {
		t.Fatalf("source %d not in the largest component", v)
	}
}
