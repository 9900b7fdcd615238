package input

import (
	"testing"

	"incregraph"
)

func TestGeneratorDeterminism(t *testing.T) {
	a := FNV64(Adds(RMAT(8, 202)))
	if b := FNV64(Adds(RMAT(8, 202))); a != b {
		t.Errorf("same seed, different streams: %x %x", a, b)
	}
	if b := FNV64(Adds(RMAT(8, 203))); a == b {
		t.Errorf("seeds 202 and 203 gave the same stream %x", a)
	}
	edges := RMAT(8, 202)
	c := FNV64(Churn(edges, 0.05, 202))
	if d := FNV64(Churn(edges, 0.05, 202)); c != d {
		t.Errorf("same seed, different churn: %x %x", c, d)
	}
	if d := FNV64(Churn(edges, 0.05, 203)); c == d {
		t.Errorf("churn seeds 202 and 203 gave the same stream %x", c)
	}
}

func TestRMATShape(t *testing.T) {
	const scale = 10
	edges := RMAT(scale, 7)
	if len(edges) != EdgeFactor<<scale {
		t.Fatalf("%d edges, want %d", len(edges), EdgeFactor<<scale)
	}
	deg := make([]int, 1<<scale)
	for _, e := range edges {
		if e.Src >= 1<<scale || e.Dst >= 1<<scale {
			t.Fatalf("edge %v outside 2^%d vertices", e, scale)
		}
		if e.W < 1 || e.W > MaxWeight {
			t.Fatalf("weight %d outside 1..%d", e.W, MaxWeight)
		}
		deg[e.Src]++
	}
	// R-MAT is skewed: the low quarter of the ID space sources most edges.
	low := 0
	for _, d := range deg[:len(deg)/4] {
		low += d
	}
	if low*2 < len(edges) {
		t.Errorf("low quarter of vertices sources %d of %d edges; R-MAT skew is missing", low, len(edges))
	}
}

// Churn must delete only live pairs, keep a pair's first orientation and
// leave a stream whose survivors Survivors agrees with.
func TestChurnObligationsAndSurvivors(t *testing.T) {
	events := Churn(RMAT(8, 11), 0.2, 11)
	alive := map[pairKey]incregraph.Edge{}
	orient := map[pairKey]incregraph.Edge{}
	deletes := 0
	for i, ev := range events {
		k := keyOf(ev.Src, ev.Dst)
		if first, ok := orient[k]; !ok {
			orient[k] = ev.Edge
		} else if first.Src != ev.Src || first.Dst != ev.Dst {
			t.Fatalf("event %d flips pair %v", i, k)
		}
		if ev.Delete {
			deletes++
			if _, ok := alive[k]; !ok {
				t.Fatalf("event %d deletes dead pair %v", i, k)
			}
			delete(alive, k)
		} else {
			alive[k] = ev.Edge
		}
	}
	if deletes == 0 {
		t.Fatal("no deletes generated")
	}
	want := 0
	for k := range alive {
		want += 2
		if k[0] == k[1] {
			want--
		}
	}
	topo := Survivors(events)
	if topo.HalfEdges() != want {
		t.Errorf("Survivors holds %d half-edges, replay says %d", topo.HalfEdges(), want)
	}
	if topo.NumVertices() == 0 || int(topo.MaxVertexID()) >= 1<<8 {
		t.Errorf("vertices %d, max id %d", topo.NumVertices(), topo.MaxVertexID())
	}
}

func TestSurvivorsKeepsMinimumWeightAndHub(t *testing.T) {
	events := Adds([]incregraph.Edge{
		{Src: 1, Dst: 2, W: 9}, {Src: 2, Dst: 1, W: 4}, {Src: 1, Dst: 2, W: 7},
		{Src: 2, Dst: 3, W: 1}, {Src: 2, Dst: 4, W: 1}, {Src: 6, Dst: 6, W: 2},
		{Src: 8, Dst: 9, W: 5},
	})
	topo := Survivors(events)
	if topo.HalfEdges() != 9 { // 1-2, 2-3, 2-4, 8-9 both ways, 6-6 once
		t.Errorf("%d half-edges, want 9", topo.HalfEdges())
	}
	if topo.NumVertices() != 7 {
		t.Errorf("%d vertices, want 7", topo.NumVertices())
	}
	topo.Neighbors(1, func(n incregraph.VertexID, w incregraph.Weight) bool {
		if n != 2 || w != 4 {
			t.Errorf("1 -> %d weight %d, want 2 weight 4", n, w)
		}
		return true
	})
	if hub := topo.Hub(); hub != 2 {
		t.Errorf("hub %d, want 2", hub)
	}
	if got := incregraph.StaticSSSP(topo, 2)[1]; got != 5 {
		t.Errorf("SSSP 2->1 = %d, want 1+4", got)
	}
}
