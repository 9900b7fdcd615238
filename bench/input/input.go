// Package input makes every byte the benchmark feeds the program: the R-MAT
// edge stream, its shuffle, the churn interleaving, and the static topology
// the oracles run over. It imports none of the repo's generators, so a
// change to internal/rmat or internal/gen cannot change what a parent and a
// change commit are fed; FNV64 of the event stream is recorded with every
// run to prove it.
package input

import (
	"sort"

	"incregraph"
)

// Graph500 R-MAT quadrant probabilities, per-level noise, edge factor and
// weight range. They are constants: the workloads are defined by them.
const (
	probA      = 0.57
	probB      = 0.19
	probC      = 0.19
	noise      = 0.1
	EdgeFactor = 16
	MaxWeight  = 64
)

// splitmix64 advances state and returns the next value of the sequence.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unit maps the top 53 bits of x to [0,1).
func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// RMAT returns the EdgeFactor<<scale edges of a seeded R-MAT graph over
// 2^scale vertices, in shuffled order (the paper pre-randomises edge order
// before ingestion, §V-A).
func RMAT(scale int, seed uint64) []incregraph.Edge {
	edges := make([]incregraph.Edge, EdgeFactor<<uint(scale))
	for i := range edges {
		edges[i] = rmatEdge(scale, seed, uint64(i))
	}
	st := seed ^ 0x5851f42d4c957f2d
	for i := len(edges) - 1; i > 0; i-- {
		j := int(splitmix64(&st) % uint64(i+1))
		edges[i], edges[j] = edges[j], edges[i]
	}
	return edges
}

// Communities returns n disjoint R-MAT graphs of 2^scale vertices each,
// community c on vertex IDs [c<<scale, (c+1)<<scale), their shuffled edge
// lists interleaved round-robin. A cascade started in one community cannot
// leave it, which bounds the cost of one delete and lets a run hold many of
// them.
func Communities(n, scale int, seed uint64) []incregraph.Edge {
	if n == 1 {
		return RMAT(scale, seed) // the same edges without a 50 MB copy
	}
	per := EdgeFactor << uint(scale)
	out := make([]incregraph.Edge, n*per)
	for c := 0; c < n; c++ {
		base := incregraph.VertexID(c << uint(scale))
		for i, e := range RMAT(scale, seed+uint64(c)*0x9e3779b97f4a7c15) {
			out[i*n+c] = incregraph.Edge{Src: base + e.Src, Dst: base + e.Dst, W: e.W}
		}
	}
	return out
}

// rmatEdge generates edge i from its own PRNG stream, so the edge list does
// not depend on generation order.
func rmatEdge(scale int, seed, i uint64) incregraph.Edge {
	st := seed ^ (i+1)*0x9e3779b97f4a7c15
	splitmix64(&st)
	a, b, c, d := probA, probB, probC, 1-probA-probB-probC
	var src, dst uint64
	for bit := 0; bit < scale; bit++ {
		// a..d are kept unnormalised; the draw is scaled instead.
		u := unit(splitmix64(&st)) * (a + b + c + d)
		src <<= 1
		dst <<= 1
		switch {
		case u < a:
		case u < a+b:
			dst |= 1
		case u < a+b+c:
			src |= 1
		default:
			src |= 1
			dst |= 1
		}
		// One draw perturbs all four probabilities by up to ±noise, 16
		// bits each.
		x := splitmix64(&st)
		a *= 1 - noise + 2*noise/65536*float64(x&0xffff)
		b *= 1 - noise + 2*noise/65536*float64(x>>16&0xffff)
		c *= 1 - noise + 2*noise/65536*float64(x>>32&0xffff)
		d *= 1 - noise + 2*noise/65536*float64(x>>48)
	}
	w := incregraph.Weight(splitmix64(&st)%MaxWeight) + 1
	return incregraph.Edge{Src: incregraph.VertexID(src), Dst: incregraph.VertexID(dst), W: w}
}

// Adds turns an edge list into add events.
func Adds(edges []incregraph.Edge) []incregraph.EdgeEvent {
	out := make([]incregraph.EdgeEvent, len(edges))
	for i, e := range edges {
		out[i].Edge = e
	}
	return out
}

type pairKey [2]incregraph.VertexID

func keyOf(a, b incregraph.VertexID) pairKey {
	if a > b {
		a, b = b, a
	}
	return pairKey{a, b}
}

// Churn interleaves deletes, and re-adds of deleted pairs, into an add-only
// edge sequence: after each base add, with probability frac/4 one dead pair
// is re-added and with probability frac one live pair is deleted. Only live
// pairs are deleted, and every event of a pair keeps the orientation and
// weight of the pair's first appearance, which is what the engine's delete
// protocol requires of its input.
func Churn(edges []incregraph.Edge, frac float64, seed uint64) []incregraph.EdgeEvent {
	type pair struct {
		e     incregraph.Edge
		alive bool
	}
	st := seed ^ 0xda942042e4dd58b5
	index := make(map[pairKey]*pair, len(edges))
	var alive, dead []*pair
	take := func(from *[]*pair) *pair {
		s := *from
		i := int(splitmix64(&st) % uint64(len(s)))
		p := s[i]
		s[i] = s[len(s)-1]
		*from = s[:len(s)-1]
		return p
	}
	out := make([]incregraph.EdgeEvent, 0, len(edges)+int(float64(len(edges))*frac*1.3)+1)
	for _, e := range edges {
		k := keyOf(e.Src, e.Dst)
		p := index[k]
		if p == nil {
			p = &pair{e: e}
			index[k] = p
		}
		if !p.alive {
			p.alive = true
			alive = append(alive, p)
		}
		out = append(out, incregraph.EdgeEvent{Edge: incregraph.Edge{Src: p.e.Src, Dst: p.e.Dst, W: e.W}})
		if len(dead) > 0 && unit(splitmix64(&st)) < frac/4 {
			// A base add may have revived the pair since it died; its stale
			// entry is dropped here rather than re-added.
			if p := take(&dead); !p.alive {
				p.alive = true
				alive = append(alive, p)
				out = append(out, incregraph.EdgeEvent{Edge: p.e})
			}
		}
		if len(alive) > 0 && unit(splitmix64(&st)) < frac {
			p := take(&alive)
			p.alive = false
			dead = append(dead, p)
			out = append(out, incregraph.EdgeEvent{Edge: p.e, Delete: true})
		}
	}
	return out
}

// FNV64 is the FNV-1a hash of the event stream's bytes (src, dst, weight,
// delete flag, little-endian), the fingerprint recorded as input_fnv64.
func FNV64(events []incregraph.EdgeEvent) uint64 {
	h := uint64(14695981039346656037)
	mix := func(x uint64, n int) {
		for i := 0; i < n; i++ {
			h = (h ^ (x & 0xff)) * 1099511628211
			x >>= 8
		}
	}
	for _, ev := range events {
		mix(uint64(ev.Src), 8)
		mix(uint64(ev.Dst), 8)
		mix(uint64(ev.W), 4)
		if ev.Delete {
			mix(1, 1)
		} else {
			mix(0, 1)
		}
	}
	return h
}

// Topo is the benchmark's own view of the graph an event stream leaves
// behind: every vertex an event named, and the distinct surviving
// undirected edges as sorted half-edges with the minimum weight seen. It
// implements incregraph.Topology, so the static oracles run over it
// independently of the program's store.
type Topo struct {
	present []bool
	off     []int
	nbr     []incregraph.VertexID
	w       []incregraph.Weight
	verts   int
}

type half struct {
	src, dst incregraph.VertexID
	w        incregraph.Weight
}

// Survivors builds the Topo of events applied in order.
func Survivors(events []incregraph.EdgeEvent) *Topo {
	var maxID incregraph.VertexID
	deletes := false
	for _, ev := range events {
		if ev.Src > maxID {
			maxID = ev.Src
		}
		if ev.Dst > maxID {
			maxID = ev.Dst
		}
		deletes = deletes || ev.Delete
	}
	t := &Topo{present: make([]bool, maxID+1), off: make([]int, maxID+2)}
	for _, ev := range events {
		t.present[ev.Src] = true
		t.present[ev.Dst] = true
	}
	for _, p := range t.present {
		if p {
			t.verts++
		}
	}

	var halves []half
	if deletes {
		// Only pairs alive at the end survive; weight is irrelevant to the
		// one delete workload (CC), so the first weight is kept.
		alive := make(map[pairKey]incregraph.Weight)
		for _, ev := range events {
			k := keyOf(ev.Src, ev.Dst)
			if ev.Delete {
				delete(alive, k)
			} else if _, ok := alive[k]; !ok {
				alive[k] = ev.W
			}
		}
		halves = make([]half, 0, 2*len(alive))
		for k, w := range alive {
			halves = append(halves, half{k[0], k[1], w}, half{k[1], k[0], w})
		}
	} else {
		halves = make([]half, 0, 2*len(events))
		for _, ev := range events {
			halves = append(halves, half{ev.Src, ev.Dst, ev.W}, half{ev.Dst, ev.Src, ev.W})
		}
	}

	// Counting sort by source, then sort and deduplicate each adjacency.
	for _, h := range halves {
		t.off[h.src+1]++
	}
	for i := 1; i < len(t.off); i++ {
		t.off[i] += t.off[i-1]
	}
	type nw struct {
		n incregraph.VertexID
		w incregraph.Weight
	}
	bucket := make([]nw, len(halves))
	fill := append([]int(nil), t.off[:len(t.off)-1]...)
	for _, h := range halves {
		bucket[fill[h.src]] = nw{h.dst, h.w}
		fill[h.src]++
	}
	t.nbr = make([]incregraph.VertexID, 0, len(halves))
	t.w = make([]incregraph.Weight, 0, len(halves))
	start := 0
	for v := 0; v+1 < len(t.off); v++ {
		end := t.off[v+1]
		adj := bucket[start:end]
		sort.Slice(adj, func(i, j int) bool {
			if adj[i].n != adj[j].n {
				return adj[i].n < adj[j].n
			}
			return adj[i].w < adj[j].w
		})
		t.off[v] = len(t.nbr)
		for i, e := range adj {
			if i == 0 || e.n != adj[i-1].n {
				t.nbr = append(t.nbr, e.n)
				t.w = append(t.w, e.w)
			}
		}
		start = end
	}
	t.off[len(t.off)-1] = len(t.nbr)
	return t
}

// NumVertices implements incregraph.Topology.
func (t *Topo) NumVertices() int { return t.verts }

// MaxVertexID implements incregraph.Topology.
func (t *Topo) MaxVertexID() incregraph.VertexID { return incregraph.VertexID(len(t.present) - 1) }

// ForEachVertex implements incregraph.Topology.
func (t *Topo) ForEachVertex(fn func(v incregraph.VertexID) bool) {
	for v, p := range t.present {
		if p && !fn(incregraph.VertexID(v)) {
			return
		}
	}
}

// Neighbors implements incregraph.Topology.
func (t *Topo) Neighbors(v incregraph.VertexID, fn func(nbr incregraph.VertexID, w incregraph.Weight) bool) {
	if int(v)+1 >= len(t.off) {
		return
	}
	for i := t.off[v]; i < t.off[v+1]; i++ {
		if !fn(t.nbr[i], t.w[i]) {
			return
		}
	}
}

// HalfEdges is the number of distinct surviving directed adjacency entries,
// the count the program's own topology must match.
func (t *Topo) HalfEdges() int { return len(t.nbr) }

// Degree returns v's number of distinct neighbours (0 for an ID the stream
// never named).
func (t *Topo) Degree(v incregraph.VertexID) int {
	if int(v)+1 >= len(t.off) {
		return 0
	}
	return t.off[v+1] - t.off[v]
}

// Hub returns the highest-degree vertex of the largest connected component
// (lowest ID on a tie): the source the traversal workloads start from, so
// that the cascade reaches most of the graph whatever the seed.
func (t *Topo) Hub() incregraph.VertexID {
	parent := make([]int32, len(t.present))
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for v := range t.present {
		for i := t.off[v]; i < t.off[v+1]; i++ {
			a, b := find(int32(v)), find(int32(t.nbr[i]))
			if a != b {
				parent[a] = b
			}
		}
	}
	size := make([]int, len(parent))
	for v, p := range t.present {
		if p {
			size[find(int32(v))]++
		}
	}
	var bestRoot int32
	for r, s := range size {
		if s > size[bestRoot] {
			bestRoot = int32(r)
		}
	}
	hub, hubDeg := incregraph.VertexID(0), -1
	for v, p := range t.present {
		if p && find(int32(v)) == bestRoot && t.Degree(incregraph.VertexID(v)) > hubDeg {
			hub, hubDeg = incregraph.VertexID(v), t.Degree(incregraph.VertexID(v))
		}
	}
	return hub
}
