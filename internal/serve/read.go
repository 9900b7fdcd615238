package serve

import (
	"sort"
	"sync/atomic"

	"incregraph/internal/graph"
)

// Value is one served vertex value. Found is false when the vertex is not
// present in the owning rank's published segment — either it doesn't
// exist (yet, at the served epoch) or its owner is a remote process.
type Value struct {
	Vertex graph.VertexID
	Val    uint64
	Found  bool
}

// Entry is one top-K result.
type Entry struct {
	Vertex graph.VertexID
	Val    uint64
}

// NbhdNode is one vertex of a k-hop neighborhood read. Depth is its BFS
// distance from the root over the published adjacency. Found mirrors
// Value.Found; a not-found node's neighbors are unknown and not expanded.
type NbhdNode struct {
	Vertex graph.VertexID
	Val    uint64
	Depth  int
	Found  bool
}

// Dir orders a top-K read.
type Dir uint8

const (
	// DirMin returns the K smallest values (e.g. shortest distances).
	DirMin Dir = iota
	// DirMax returns the K largest values (e.g. widest capacities).
	DirMax
)

// Get serves a point lookup: v's value for algo at the owner rank's
// published epoch. A zero epoch means the owner has never published (or
// is remote); Found is false then and when v simply doesn't exist.
func (p *Plane) Get(algo int, v graph.VertexID) (Value, uint64) {
	owner := p.part.Owner(v)
	if !p.local(owner) {
		return Value{Vertex: v}, 0
	}
	for {
		seg, gen := p.load(owner)
		if p.readHook != nil {
			p.readHook()
		}
		val, epoch := segGet(seg, algo, v)
		if seg.same(gen) {
			return val, epoch
		}
	}
}

// segGet reads v from a segment obtained with Plane.load; the caller
// discards the result unless the segment's generation held.
func segGet(seg *Segment, algo int, v graph.VertexID) (Value, uint64) {
	if seg == nil {
		return Value{Vertex: v}, 0
	}
	epoch := seg.epoch.Load()
	slot, ok := seg.idx.Load().lookup(uint64(v))
	if !ok || slot >= uint64(seg.n.Load()) {
		return Value{Vertex: v}, epoch
	}
	var val uint64
	if algo < len(seg.vals) {
		val = atomic.LoadUint64(&seg.vals[algo][slot])
	}
	return Value{Vertex: v, Val: val, Found: true}, epoch
}

// GetBatch serves many point lookups against a consistent set of segment
// views: each touched rank's segment is loaded once for the whole batch,
// and a batch that overlapped a rewrite of one of them is read again.
// Results are appended to out (pass a reused buffer to avoid allocation)
// and the returned epoch is the minimum over the touched local owners —
// every answer is at least that fresh. Zero when any touched owner has
// never published or no touched owner is local.
func (p *Plane) GetBatch(algo int, ids []graph.VertexID, out []Value) ([]Value, uint64) {
	type view struct {
		seg    *Segment
		gen    uint64
		loaded bool
	}
	views := make([]view, 0, 8) // lazily loaded per-rank views
	base := len(out)
	for {
		out, views = out[:base], views[:0]
		var (
			epoch   uint64
			touched bool
		)
		for _, v := range ids {
			owner := p.part.Owner(v)
			if !p.local(owner) {
				out = append(out, Value{Vertex: v})
				continue
			}
			for len(views) <= owner {
				views = append(views, view{})
			}
			vw := &views[owner]
			if !vw.loaded {
				vw.seg, vw.gen = p.load(owner)
				vw.loaded = true
				var e uint64
				if vw.seg != nil {
					e = vw.seg.epoch.Load()
				}
				if !touched || e < epoch {
					epoch = e
				}
				touched = true
			}
			val, _ := segGet(vw.seg, algo, v)
			out = append(out, val)
		}
		same := true
		for _, vw := range views {
			same = same && vw.seg.same(vw.gen)
		}
		if same {
			return out, epoch
		}
	}
}

// localSegs pins every local rank's segment and returns them with the
// minimum epoch (zero if any local rank has never published). The caller
// releases them with releaseAll.
func (p *Plane) localSegs() ([]*Segment, uint64) {
	segs := make([]*Segment, len(p.segs))
	var (
		epoch uint64
		any   bool
	)
	for i := range p.segs {
		if !p.local(i) {
			continue
		}
		segs[i] = p.acquire(i)
		var e uint64
		if segs[i] != nil {
			e = segs[i].epoch.Load()
		}
		if !any || e < epoch {
			epoch = e
		}
		any = true
	}
	return segs, epoch
}

func releaseAll(segs []*Segment) {
	for _, seg := range segs {
		seg.release()
	}
}

// TopK serves the K best values for algo across all local ranks'
// published segments, best-first. Vertices whose value is still the zero
// value (unset / unreached) are excluded — they carry no converged result
// to rank. Ties break toward the smaller vertex id, so the result is
// deterministic for a fixed set of segments.
func (p *Plane) TopK(algo, k int, dir Dir) ([]Entry, uint64) {
	segs, epoch := p.localSegs()
	defer releaseAll(segs)
	if k <= 0 {
		return nil, epoch
	}
	// better reports a should rank strictly ahead of b.
	better := func(a, b Entry) bool {
		if a.Val != b.Val {
			if dir == DirMin {
				return a.Val < b.Val
			}
			return a.Val > b.Val
		}
		return a.Vertex < b.Vertex
	}
	// h is a binary heap whose root is the *worst* kept entry, so a
	// full heap admits a candidate iff the candidate beats the root.
	h := make([]Entry, 0, k)
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			worst := i
			if l < len(h) && better(h[worst], h[l]) {
				worst = l
			}
			if r < len(h) && better(h[worst], h[r]) {
				worst = r
			}
			if worst == i {
				return
			}
			h[i], h[worst] = h[worst], h[i]
			i = worst
		}
	}
	for _, seg := range segs {
		if seg == nil {
			continue
		}
		if algo >= len(seg.vals) {
			continue
		}
		col := seg.vals[algo]
		for slot := range int(seg.n.Load()) {
			val := col[slot]
			if val == 0 {
				continue
			}
			e := Entry{Vertex: seg.ids[slot], Val: val}
			if len(h) < k {
				h = append(h, e)
				// Sift up: a parent that ranks ahead of its child
				// violates worst-at-root.
				for i := len(h) - 1; i > 0; {
					parent := (i - 1) / 2
					if !better(h[parent], h[i]) {
						break
					}
					h[i], h[parent] = h[parent], h[i]
					i = parent
				}
				continue
			}
			if better(e, h[0]) {
				h[0] = e
				siftDown(0)
			}
		}
	}
	sort.Slice(h, func(i, j int) bool { return better(h[i], h[j]) })
	return h, epoch
}

// Neighbors returns v's published out-neighbours in served order, or nil
// when v is not served. The sim driver checks them against the store.
func (p *Plane) Neighbors(v graph.VertexID) []graph.VertexID {
	owner := p.part.Owner(v)
	if !p.local(owner) {
		return nil
	}
	seg := p.acquire(owner)
	defer seg.release()
	if seg == nil {
		return nil
	}
	slot, ok := seg.idx.Load().lookup(uint64(v))
	if !ok || slot >= uint64(seg.n.Load()) {
		return nil
	}
	out := make([]graph.VertexID, len(seg.adj[slot]))
	for i, he := range seg.adj[slot] {
		out[i] = he.Nbr()
	}
	return out
}

// Neighborhood serves a breadth-first k-hop read rooted at root over the
// published adjacency, up to depth hops and at most limit nodes
// (breadth-first order, root first). Nodes owned by remote processes or
// unpublished ranks appear with Found=false and are not expanded. The
// epoch is the minimum over all local ranks (the traversal may consult
// any of them).
func (p *Plane) Neighborhood(algo int, root graph.VertexID, depth, limit int) ([]NbhdNode, uint64) {
	segs, epoch := p.localSegs()
	defer releaseAll(segs)
	if limit <= 0 {
		return nil, epoch
	}
	type qent struct {
		v graph.VertexID
		d int
	}
	visited := map[graph.VertexID]bool{root: true}
	queue := []qent{{root, 0}}
	out := make([]NbhdNode, 0, 16)
	for len(queue) > 0 && len(out) < limit {
		cur := queue[0]
		queue = queue[1:]
		node := NbhdNode{Vertex: cur.v, Depth: cur.d}
		owner := p.part.Owner(cur.v)
		var seg *Segment
		if p.local(owner) {
			seg = segs[owner]
		}
		var slot uint64
		ok := false
		if seg != nil {
			slot, ok = seg.idx.Load().lookup(uint64(cur.v))
			ok = ok && slot < uint64(seg.n.Load())
		}
		if ok {
			node.Found = true
			if algo < len(seg.vals) {
				node.Val = seg.vals[algo][slot]
			}
		}
		out = append(out, node)
		if !ok || cur.d >= depth {
			continue
		}
		for _, he := range seg.adj[slot] {
			nbr := he.Nbr()
			if visited[nbr] {
				continue
			}
			visited[nbr] = true
			queue = append(queue, qent{nbr, cur.d + 1})
		}
	}
	return out, epoch
}
