package graph

import (
	"sync/atomic"

	"incregraph/internal/rhh"
)

// DefaultSmallCap is the tail length past which a vertex's adjacency gets
// a Robin Hood hash index. Low-degree vertices (the vast majority under
// power-law distributions) find a neighbour by scanning their short tail;
// high-degree vertices get O(1) duplicate checks and weight lookups from
// the index.
const DefaultSmallCap = 16

// adjacency is one vertex's out-edge set, held in a single array.
// edges[:seg] is the Nbr-sorted prefix the last compaction wrote (see
// hybrid.go; empty unless the store is hybrid), and edges[seg:] is the
// tail in arrival order, except where a delete moved an entry. Once the
// tail outgrows the store's smallCap, index maps each tail neighbour to
// its position in edges.
//
// shared reports that Share handed the array out by reference. An append
// writes at an index >= len, which no shared header can see, so it never
// copies. Any other write below len — a weight or seq merge, a delete, a
// compaction — first replaces a shared array with a private clone (own).
// A fresh array (a clone or a growth reallocation) is private.
type adjacency struct {
	edges  []HalfEdge
	index  *rhh.Map[uint32] // tail nbr -> position in edges; nil until the tail outgrows smallCap
	seg    uint32
	shared bool
}

// find returns the position of nbr in edges, or -1.
func (a *adjacency) find(nbr VertexID) int {
	if i := segFind(a.edges[:a.seg], nbr); i >= 0 {
		return i
	}
	if a.index != nil {
		if p, ok := a.index.Get(uint64(nbr)); ok {
			return int(p)
		}
		return -1
	}
	for i := int(a.seg); i < len(a.edges); i++ {
		if a.edges[i].Nbr == nbr {
			return i
		}
	}
	return -1
}

// tailLen is the number of edges that arrived since the last compaction
// (the whole adjacency when the store is not hybrid).
func (a *adjacency) tailLen() int { return len(a.edges) - int(a.seg) }

// segFind returns the index of nbr in the Nbr-sorted seg, or -1.
func segFind(seg []HalfEdge, nbr VertexID) int {
	lo, hi := 0, len(seg)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if seg[mid].Nbr < nbr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(seg) && seg[lo].Nbr == nbr {
		return lo
	}
	return -1
}

// WeightPolicy decides how a re-inserted edge's weight merges with the
// stored one. REMO monotonicity constrains which attribute updates an
// algorithm can absorb (§II-B): SSSP tolerates only weight *decreases*
// (paths only get cheaper), widest-path only weight *increases* (paths
// only get wider). The policy is a property of the store because all
// programs hooked on one engine share one topology.
type WeightPolicy uint8

const (
	// WeightMin keeps the minimum weight seen (default; matches the
	// paper's SSSP "edge updates limited only to reducing edge weight").
	WeightMin WeightPolicy = iota
	// WeightMax keeps the maximum weight seen (monotone for widest-path).
	WeightMax
	// WeightFirst ignores re-inserted weights entirely.
	WeightFirst
)

// Store is one rank's shard of the dynamic graph: a vertex table mapping
// sparse VertexIDs to dense slots, plus per-slot degree-aware adjacency.
// It is not safe for concurrent use; each engine rank owns its Store
// exclusively (shared-nothing).
type Store struct {
	index    rhh.Map[Slot] // VertexID -> slot
	ids      []VertexID    // slot -> VertexID
	adj      []adjacency   // slot -> adjacency
	edges    uint64        // directed half-edge count stored in this shard
	smallCap int
	policy   WeightPolicy

	promotions uint64 // number of tail hash indexes built (instrumentation)

	// Hybrid CSR-delta tier state (hybrid.go). pending/pendingBit form the
	// compaction queue: slots whose tail crossed the threshold, FIFO with a
	// bitmap de-duplicating entries; pendHead is the next queue index.
	// scratch is CompactSlot's reusable buffer for the sorted tail.
	hybrid     bool
	compactCap int
	pending    []Slot
	pendHead   int
	pendingBit []uint64
	scratch    []HalfEdge

	// Hybrid instrumentation. The store is single-writer (rank-owned), but
	// stats aggregation reads from arbitrary goroutines, so these are
	// atomics — each costs one uncontended add, and the scan tallies are
	// accumulated locally and added once per Neighbors call.
	compactions atomic.Uint64 // completed tail->prefix merges
	segEdges    atomic.Uint64 // edges currently in sorted prefixes (gauge)
	segClones   atomic.Uint64 // clones of shared arrays (own)
	segScans    atomic.Uint64 // adjacency entries iterated from sorted prefixes
	deltaScans  atomic.Uint64 // adjacency entries iterated from tails
}

// NewStore returns an empty shard with the WeightMin policy.
// smallCap <= 0 selects DefaultSmallCap.
func NewStore(smallCap int) *Store {
	if smallCap <= 0 {
		smallCap = DefaultSmallCap
	}
	return &Store{smallCap: smallCap}
}

// SetWeightPolicy selects the duplicate-weight merge rule. Call before any
// edges are inserted.
func (s *Store) SetWeightPolicy(p WeightPolicy) { s.policy = p }

// mergeWeight applies the policy to an existing weight given a re-inserted
// one, returning the weight to keep.
func (s *Store) mergeWeight(old, new Weight) Weight {
	switch s.policy {
	case WeightMax:
		if new > old {
			return new
		}
	case WeightFirst:
	default: // WeightMin
		if new < old {
			return new
		}
	}
	return old
}

// NumVertices returns the number of vertices present in this shard.
func (s *Store) NumVertices() int { return len(s.ids) }

// NumEdges returns the number of directed adjacency entries in this shard.
func (s *Store) NumEdges() uint64 { return s.edges }

// Promotions returns how many times a vertex's tail outgrew smallCap and
// got a hash index.
func (s *Store) Promotions() uint64 { return s.promotions }

// SlotOf returns the dense slot for v, or (NoSlot, false) if absent.
func (s *Store) SlotOf(v VertexID) (Slot, bool) {
	slot, ok := s.index.Get(uint64(v))
	if !ok {
		return NoSlot, false
	}
	return slot, true
}

// IDOf returns the VertexID stored at slot.
func (s *Store) IDOf(slot Slot) VertexID { return s.ids[slot] }

// IDs exposes the slot -> VertexID slice itself. The slice is append-only
// — slot i's id is written once and never reassigned — which is exactly
// the contract the MVCC read plane (internal/serve) relies on to share it
// across published segments without copying: a reader bounded by an older
// length never observes an index being written, and a growth reallocation
// leaves the old array intact. Callers must not mutate it.
func (s *Store) IDs() []VertexID { return s.ids }

// EnsureVertex returns the slot for v, creating the vertex if needed.
// The second result reports whether the vertex was newly created.
func (s *Store) EnsureVertex(v VertexID) (Slot, bool) {
	slot := Slot(len(s.ids))
	p, existed := s.index.GetOrPut(uint64(v), slot)
	if existed {
		return *p, false
	}
	s.ids = append(s.ids, v)
	s.adj = append(s.adj, adjacency{})
	return slot, true
}

// AddEdge inserts the directed edge src->dst with weight w, tagging it with
// the snapshot sequence seq. The source vertex is created if absent; the
// destination is NOT — in the distributed model the destination vertex
// lives in its owner's shard, and appears here only as a neighbour ID
// inside src's adjacency. If the edge already exists its weight merges per
// the store's WeightPolicy (default: keep the minimum — the paper's SSSP
// "edge updates limited only to reducing edge weight", §II-B) and the
// stored Seq is lowered to the smaller of the two: a parallel edge ingested
// before a snapshot marker belongs to the previous version even when a
// post-marker duplicate raced ahead of it, and previous-version propagation
// (NeighborsBefore) must be able to traverse it. A merge that changes the
// entry clones a shared array first; a new edge is appended in place.
// Returns the source slot, whether the source vertex was created, and
// whether the adjacency entry is new.
func (s *Store) AddEdge(src, dst VertexID, w Weight, seq uint32) (srcSlot Slot, srcCreated, isNew bool) {
	srcSlot, srcCreated = s.EnsureVertex(src)
	a := &s.adj[srcSlot]
	var i int
	if a.index == nil {
		i = a.find(dst)
	} else if i = segFind(a.edges[:a.seg], dst); i < 0 {
		// One probe both finds a duplicate and records a new edge's
		// position, which the append below fills.
		if p, existed := a.index.GetOrPut(uint64(dst), uint32(len(a.edges))); existed {
			i = int(*p)
		}
	}
	if i >= 0 {
		e := &a.edges[i]
		merged := s.mergeWeight(e.W, w)
		mseq := min(seq, e.Seq)
		if merged != e.W || mseq != e.Seq {
			s.own(a)
			a.edges[i].W, a.edges[i].Seq = merged, mseq
		}
		return srcSlot, srcCreated, false
	}
	if len(a.edges) == cap(a.edges) {
		// Growth rule: an eighth of the length, at least 4 entries, but
		// no more than the length while it is below 4, so capacities run
		// 1, 2, 4, 8, 12, ... 32, 36, 40, 45, ... Doubling would leave up
		// to half of every array idle; most vertices have a handful of
		// edges, and the edge mass sits in hubs that the eighth keeps
		// within about 6% of their length (EXPERIMENTS.md, "One adjacency").
		n := len(a.edges)
		grown := make([]HalfEdge, n, n+max(1, min(n, 4), n/8))
		copy(grown, a.edges)
		a.edges, a.shared = grown, false
	}
	a.edges = append(a.edges, HalfEdge{Nbr: dst, W: w, Seq: seq})
	if a.index == nil && a.tailLen() > s.smallCap {
		m := &rhh.Map[uint32]{}
		m.Reserve(2 * a.tailLen())
		for p := int(a.seg); p < len(a.edges); p++ {
			m.Put(uint64(a.edges[p].Nbr), uint32(p))
		}
		a.index = m
		s.promotions++
	}
	s.edges++
	s.maybeQueueCompact(srcSlot, a)
	return srcSlot, srcCreated, true
}

// own makes a's array private before a write below its length: a shared
// array is replaced by a clone, which published headers never see.
func (s *Store) own(a *adjacency) {
	if a.shared {
		a.edges = append(make([]HalfEdge, 0, cap(a.edges)), a.edges...)
		a.shared = false
		s.segClones.Add(1)
	}
}

// DeleteEdge removes the directed edge src->dst, reporting whether it was
// present. Vertices are never removed (vertex deletion is a set of edge
// deletions in the paper's model). A tail delete moves the last entry into
// the hole; a prefix delete closes the gap, which keeps the prefix sorted,
// and moves the last entry into the freed first tail position.
func (s *Store) DeleteEdge(src, dst VertexID) bool {
	srcSlot, ok := s.SlotOf(src)
	if !ok {
		return false
	}
	a := &s.adj[srcSlot]
	i := a.find(dst)
	if i < 0 {
		return false
	}
	s.own(a)
	if seg := int(a.seg); i < seg {
		copy(a.edges[i:], a.edges[i+1:seg])
		a.seg--
		i = seg - 1
		s.segEdges.Add(^uint64(0))
	} else if a.index != nil {
		a.index.Delete(uint64(dst))
	}
	last := len(a.edges) - 1
	if i != last {
		a.edges[i] = a.edges[last]
		if a.index != nil {
			a.index.Put(uint64(a.edges[i].Nbr), uint32(i))
		}
	}
	a.edges = a.edges[:last]
	s.edges--
	return true
}

// Degree returns the out-degree of the vertex at slot.
func (s *Store) Degree(slot Slot) int { return len(s.adj[slot].edges) }

// HasEdge reports whether the directed edge src->dst exists.
func (s *Store) HasEdge(src, dst VertexID) bool {
	slot, ok := s.SlotOf(src)
	return ok && s.adj[slot].find(dst) >= 0
}

// EdgeWeight returns the weight of the edge from the vertex at slot to nbr.
func (s *Store) EdgeWeight(slot Slot, nbr VertexID) (Weight, bool) {
	a := &s.adj[slot]
	if i := a.find(nbr); i >= 0 {
		return a.edges[i].W, true
	}
	return 0, false
}

// Neighbors calls fn for every out-neighbour of the vertex at slot, in
// array order: the sorted prefix, then the tail. Iteration stops early if
// fn returns false. fn must not mutate the store.
func (s *Store) Neighbors(slot Slot, fn func(nbr VertexID, w Weight) bool) {
	a := &s.adj[slot]
	for i := range a.edges {
		if !fn(a.edges[i].Nbr, a.edges[i].W) {
			s.countScan(a, i+1)
			return
		}
	}
	s.countScan(a, len(a.edges))
}

// NeighborsBefore is Neighbors restricted to edges inserted before snapshot
// sequence seq. Previous-version snapshot propagation uses it so that state
// belonging to a snapshot never traverses edges added after the marker.
// Compaction and deletes move entries with their Seq intact, so the filter
// is layout-independent.
func (s *Store) NeighborsBefore(slot Slot, seq uint32, fn func(nbr VertexID, w Weight) bool) {
	a := &s.adj[slot]
	for i := range a.edges {
		if a.edges[i].Seq >= seq {
			continue
		}
		if !fn(a.edges[i].Nbr, a.edges[i].W) {
			s.countScan(a, i+1)
			return
		}
	}
	s.countScan(a, len(a.edges))
}

// countScan adds a walk over a's first n entries to the per-part scan
// tallies behind the delta-hit-rate gauge, once per call.
func (s *Store) countScan(a *adjacency, n int) {
	seg := min(n, int(a.seg))
	if seg > 0 {
		s.segScans.Add(uint64(seg))
	}
	if n > seg {
		s.deltaScans.Add(uint64(n - seg))
	}
}

// Share returns the vertex's edges as a header onto the store's own array,
// for the serve plane to publish without copying. From then on the store
// never writes below the header's length: a merge, delete or compaction
// clones the array first. Readers must treat the result as read-only and
// use only Nbr — a weight merged later is not reflected.
func (s *Store) Share(slot Slot) []HalfEdge {
	a := &s.adj[slot]
	n := len(a.edges)
	if n == 0 {
		return nil
	}
	a.shared = true
	return a.edges[:n:n]
}

// AdjEntries returns a copy of every half-edge of the vertex at slot as
// full (Nbr, W, Seq) triples. Diagnostic accessor for tests and the sim
// driver's checks; allocates per call.
func (s *Store) AdjEntries(slot Slot) []HalfEdge {
	return append([]HalfEdge(nil), s.adj[slot].edges...)
}

// ForEachVertex calls fn for every vertex in the shard in slot order.
// Iteration stops early if fn returns false.
func (s *Store) ForEachVertex(fn func(slot Slot, id VertexID) bool) {
	for i, id := range s.ids {
		if !fn(Slot(i), id) {
			return
		}
	}
}

// Stats summarizes the degree-aware layout of a shard.
type Stats struct {
	Vertices   int
	Edges      uint64
	Promoted   uint64 // tail hash indexes built (Promotions)
	MaxDegree  int
	Singletons int // vertices with degree 0
}

// ComputeStats scans the shard and returns layout statistics.
func (s *Store) ComputeStats() Stats {
	st := Stats{Vertices: len(s.ids), Edges: s.edges, Promoted: s.promotions}
	for i := range s.adj {
		d := len(s.adj[i].edges)
		if d > st.MaxDegree {
			st.MaxDegree = d
		}
		if d == 0 {
			st.Singletons++
		}
	}
	return st
}
