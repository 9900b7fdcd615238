// Package static implements the classical, whole-graph algorithms the paper
// uses as baselines (§V-B, §V-C): level-synchronous BFS, Dijkstra and
// Bellman-Ford SSSP, union-find connected components, and multi-source S-T
// connectivity labelling. They run over any Topology — the static CSR graph
// or a paused dynamic graph ("any known static graph algorithm could be
// applied on the dynamic graph whose evolution is paused", §VI-A) — and
// their results are the ground truth every dynamic-algorithm test converges
// against.
//
// Value conventions match the dynamic REMO algorithms exactly so results
// compare bit-for-bit:
//   - BFS: source level 1, level = hops+1, Unreached if no path.
//   - SSSP: source cost 1, cost = 1 + sum of edge weights, Unreached.
//   - CC: label = min over the component of graph.CCLabel(vertexID)
//     (Algorithm 6 labels components by hashed vertex ID).
//   - Multi S-T: bitmask; bit i set iff reachable from sources[i].
package static

import (
	"container/heap"

	"incregraph/internal/csr"
	"incregraph/internal/graph"
)

// Unreached marks a vertex with no path from the source (or, for CC, a
// vertex ID not present in the topology).
const Unreached = ^uint64(0)

// Topology is the read-only adjacency view shared by the static CSR graph
// and the (paused) dynamic store.
type Topology interface {
	// NumVertices returns the number of vertices present.
	NumVertices() int
	// MaxVertexID returns the largest vertex ID; state arrays are indexed
	// by raw ID in [0, MaxVertexID].
	MaxVertexID() graph.VertexID
	// ForEachVertex visits every present vertex; stops early on false.
	ForEachVertex(fn func(v graph.VertexID) bool)
	// Neighbors visits the out-neighbours of v; stops early on false.
	Neighbors(v graph.VertexID, fn func(nbr graph.VertexID, w graph.Weight) bool)
}

// BFS returns the level of every vertex from src: src has level 1,
// neighbours level 2, and so on (the paper's convention, Algorithm 4).
// The result is indexed by raw vertex ID; unreachable or absent IDs hold
// Unreached.
func BFS(t Topology, src graph.VertexID) []uint64 {
	levels := newState(t)
	if int(src) >= len(levels) {
		return levels
	}
	levels[src] = 1
	frontier := []graph.VertexID{src}
	for level := uint64(2); len(frontier) > 0; level++ {
		var next []graph.VertexID
		for _, v := range frontier {
			t.Neighbors(v, func(n graph.VertexID, _ graph.Weight) bool {
				if levels[n] > level {
					levels[n] = level
					next = append(next, n)
				}
				return true
			})
		}
		frontier = next
	}
	return levels
}

// distItem is a priority-queue entry for Dijkstra.
type distItem struct {
	v    graph.VertexID
	dist uint64
}

type distHeap []distItem

func (h distHeap) Len() int            { return len(h) }
func (h distHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h distHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x interface{}) { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Dijkstra returns shortest-path costs from src with the paper's offset
// convention: cost(src) = 1, cost(v) = 1 + sum of edge weights on the
// minimal path. Unreachable IDs hold Unreached.
func Dijkstra(t Topology, src graph.VertexID) []uint64 {
	dist := newState(t)
	if int(src) >= len(dist) {
		return dist
	}
	dist[src] = 1
	h := &distHeap{{v: src, dist: 1}}
	for h.Len() > 0 {
		it := heap.Pop(h).(distItem)
		if it.dist > dist[it.v] {
			continue // stale entry
		}
		t.Neighbors(it.v, func(n graph.VertexID, w graph.Weight) bool {
			nd := it.dist + uint64(w)
			if nd < dist[n] {
				dist[n] = nd
				heap.Push(h, distItem{v: n, dist: nd})
			}
			return true
		})
	}
	return dist
}

// BellmanFord computes the same result as Dijkstra by relaxation to a
// fixpoint. It exists purely as an independent cross-check in tests.
func BellmanFord(t Topology, src graph.VertexID) []uint64 {
	dist := newState(t)
	if int(src) >= len(dist) {
		return dist
	}
	dist[src] = 1
	for changed := true; changed; {
		changed = false
		t.ForEachVertex(func(v graph.VertexID) bool {
			if dist[v] == Unreached {
				return true
			}
			d := dist[v]
			t.Neighbors(v, func(n graph.VertexID, w graph.Weight) bool {
				if nd := d + uint64(w); nd < dist[n] {
					dist[n] = nd
					changed = true
				}
				return true
			})
			return true
		})
	}
	return dist
}

// ConnectedComponents labels every present vertex with the minimum
// graph.CCLabel(id) in its (weakly) connected component. Pass an undirected
// topology (reverse edges materialized) for the weak-connectivity
// interpretation the paper's CC uses. Absent IDs hold Unreached.
func ConnectedComponents(t Topology) []uint64 {
	n := int(t.MaxVertexID()) + 1
	if t.NumVertices() == 0 {
		n = 0
	}
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = -1 // -1: absent
	}
	t.ForEachVertex(func(v graph.VertexID) bool {
		parent[v] = int32(v)
		return true
	})
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	union := func(a, b graph.VertexID) {
		ra, rb := find(int32(a)), find(int32(b))
		if ra != rb {
			parent[ra] = rb
		}
	}
	t.ForEachVertex(func(v graph.VertexID) bool {
		t.Neighbors(v, func(nb graph.VertexID, _ graph.Weight) bool {
			union(v, nb)
			return true
		})
		return true
	})
	// Min-hash per root, then broadcast.
	minHash := make(map[int32]uint64)
	labels := make([]uint64, n)
	for i := range labels {
		labels[i] = Unreached
	}
	t.ForEachVertex(func(v graph.VertexID) bool {
		r := find(int32(v))
		h := graph.CCLabel(v)
		if cur, ok := minHash[r]; !ok || h < cur {
			minHash[r] = h
		}
		return true
	})
	t.ForEachVertex(func(v graph.VertexID) bool {
		labels[v] = minHash[find(int32(v))]
		return true
	})
	return labels
}

// MultiST labels every vertex with a bitmask: bit i is set iff the vertex
// is reachable from sources[i]. At most 64 sources are supported (the
// paper's maximum, Fig. 7). Absent/unreachable IDs hold 0 except that each
// source always carries its own bit.
func MultiST(t Topology, sources []graph.VertexID) []uint64 {
	if len(sources) > 64 {
		panic("static: MultiST supports at most 64 sources")
	}
	n := int(t.MaxVertexID()) + 1
	if t.NumVertices() == 0 {
		n = 0
	}
	mask := make([]uint64, n)
	for i, src := range sources {
		if int(src) >= n {
			continue
		}
		bit := uint64(1) << uint(i)
		if mask[src]&bit != 0 {
			continue
		}
		mask[src] |= bit
		frontier := []graph.VertexID{src}
		for len(frontier) > 0 {
			var next []graph.VertexID
			for _, v := range frontier {
				t.Neighbors(v, func(nb graph.VertexID, _ graph.Weight) bool {
					if mask[nb]&bit == 0 {
						mask[nb] |= bit
						next = append(next, nb)
					}
					return true
				})
			}
			frontier = next
		}
	}
	return mask
}

// widthItem is a priority-queue entry for WidestPath.
type widthItem struct {
	v     graph.VertexID
	width uint64
}

type widthHeap []widthItem

func (h widthHeap) Len() int            { return len(h) }
func (h widthHeap) Less(i, j int) bool  { return h[i].width > h[j].width } // max-heap
func (h widthHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *widthHeap) Push(x interface{}) { *h = append(*h, x.(widthItem)) }
func (h *widthHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// WidestPath returns the maximum-bottleneck width from src to every
// vertex: the maximum over paths of the minimum edge weight on the path.
// The source has width ^uint64(0); unreachable IDs hold 0 — matching the
// dynamic Widest program's conventions so results compare bit-for-bit.
func WidestPath(t Topology, src graph.VertexID) []uint64 {
	n := int(t.MaxVertexID()) + 1
	if t.NumVertices() == 0 {
		n = 0
	}
	width := make([]uint64, n)
	if int(src) >= n {
		return width
	}
	width[src] = ^uint64(0)
	h := &widthHeap{{v: src, width: width[src]}}
	for h.Len() > 0 {
		it := heap.Pop(h).(widthItem)
		if it.width < width[it.v] {
			continue // stale
		}
		t.Neighbors(it.v, func(nb graph.VertexID, w graph.Weight) bool {
			cand := it.width
			if uint64(w) < cand {
				cand = uint64(w)
			}
			if cand > width[nb] {
				width[nb] = cand
				heap.Push(h, widthItem{v: nb, width: cand})
			}
			return true
		})
	}
	return width
}

// Degrees returns the out-degree of every vertex indexed by raw ID.
func Degrees(t Topology) []uint64 {
	n := int(t.MaxVertexID()) + 1
	if t.NumVertices() == 0 {
		n = 0
	}
	deg := make([]uint64, n)
	t.ForEachVertex(func(v graph.VertexID) bool {
		d := 0
		t.Neighbors(v, func(graph.VertexID, graph.Weight) bool { d++; return true })
		deg[v] = uint64(d)
		return true
	})
	return deg
}

func newState(t Topology) []uint64 {
	n := int(t.MaxVertexID()) + 1
	if t.NumVertices() == 0 {
		n = 0
	}
	s := make([]uint64, n)
	for i := range s {
		s[i] = Unreached
	}
	return s
}

// LargestComponentVertex implements the paper's source policy: "a vertex
// is randomly pre-chosen so that it is known to eventually lie within the
// largest connected component" (§V-A). Deterministically, the smallest
// vertex ID in the largest component.
func LargestComponentVertex(edges []graph.Edge) graph.VertexID {
	labels := ConnectedComponents(csr.Build(edges, true))
	counts := map[uint64]int{}
	for _, l := range labels {
		if l != Unreached {
			counts[l]++
		}
	}
	var best uint64
	bestN := -1
	for l, n := range counts {
		if n > bestN || (n == bestN && l < best) {
			best, bestN = l, n
		}
	}
	for v, l := range labels {
		if l == best {
			return graph.VertexID(v)
		}
	}
	return 0
}
