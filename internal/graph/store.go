package graph

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"incregraph/internal/rhh"
)

// DefaultSmallCap is the degree past which a vertex's adjacency gets a
// position index (posIndex). Up to it a lookup scans the edge array, at
// most 32 cache lines read in order; past it, a lookup reads one index
// group and one array entry. Most vertices of a power-law graph stay below
// it, so the index costs memory only where the edge mass sits. On a
// bare-store replay of con-r1's input, 128 inserted as fast as 64 with
// 3.5% less heap, and 256 was slower (EXPERIMENTS.md, "One adjacency
// layout").
const DefaultSmallCap = 128

// adjacency is one vertex's out-edge set: a single array in arrival order,
// except that a delete moves the last entry into the hole. Once the array
// outgrows the store's smallCap, index maps each neighbour to its position
// in edges; it is dropped again when deletes take the array to half of
// smallCap.
//
// shared reports that Share handed the array out by reference. An append
// writes at an index >= len, which no shared header can see, so it never
// copies. Any other write below len — a weight merge, a delete —
// first replaces a shared array with a private clone (own). A fresh array
// (a clone or a growth reallocation) is private. The index is the store's
// own and never shared.
//
// hidden counts the positions the store's hidden bitmap for this vertex
// marks (Store.hidden); it sits in what would otherwise be the header's
// padding.
type adjacency struct {
	edges  []HalfEdge
	index  *posIndex // nil until the array outgrows smallCap
	shared bool
	hidden uint32
}

// find returns the position of nbr in edges, or -1.
func (a *adjacency) find(nbr VertexID) int {
	if a.index != nil {
		if slot, _ := a.index.lookup(a.edges, nbr, rhh.Hash64(uint64(nbr))); slot >= 0 {
			return a.index.pos(slot)
		}
		return -1
	}
	for i := range a.edges {
		if a.edges[i].Nbr() == nbr {
			return i
		}
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
// exclusively (shared-nothing). The one exception is the vertex table,
// which serve segments probe while the rank inserts (Table).
type Store struct {
	table    *VertexTable // VertexID -> slot
	ids      []VertexID   // slot -> VertexID
	adj      []adjacency  // slot -> adjacency
	edges    uint64       // directed half-edge count stored in this shard
	smallCap int
	policy   WeightPolicy

	// marker is the active snapshot's marker (BeginSnapshot), 0 when none;
	// hidden marks the edges added at or past it, which the previous
	// version must not see (NeighborsBefore): for each vertex that has
	// had one, a bitmap over positions in its edge array. Each header
	// counts its vertex's marks, so a vertex with none pays no lookup.
	marker uint32
	hidden map[Slot][]uint64

	promotions uint64 // position indexes built (instrumentation)
	// clones counts clones of shared arrays (own). The store is
	// single-writer, but stats aggregation reads it from any goroutine.
	clones atomic.Uint64
}

// NewStore returns an empty shard with the WeightMin policy.
// smallCap <= 0 selects DefaultSmallCap.
func NewStore(smallCap int) *Store {
	if smallCap <= 0 {
		smallCap = DefaultSmallCap
	}
	return &Store{table: newVertexTable(minVertexCells), smallCap: smallCap}
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

// Promotions returns how many times a vertex's array outgrew smallCap and
// got a position index.
func (s *Store) Promotions() uint64 { return s.promotions }

// SlotOf returns the dense slot for v, or (NoSlot, false) if absent.
func (s *Store) SlotOf(v VertexID) (Slot, bool) { return s.table.Lookup(v) }

// IDOf returns the VertexID stored at slot.
func (s *Store) IDOf(slot Slot) VertexID { return s.ids[slot] }

// IDs exposes the slot -> VertexID slice itself, and Table the id -> slot
// index; the MVCC read plane (internal/serve) shares both across
// published segments without copying. The slice is append-only — slot
// i's id is written once and never reassigned — so a reader bounded by an
// older length never observes an index being written, and a growth
// reallocation leaves the old array intact. Callers must not mutate it.
func (s *Store) IDs() []VertexID { return s.ids }

// Table returns the current vertex table. It holds an entry for every
// vertex of the store; a reader bounds the slots it accepts by the length
// of IDs taken at the same time, since the table gains entries as the
// store grows and a growth replaces it with a fresh one (VertexTable).
func (s *Store) Table() *VertexTable { return s.table }

// EnsureVertex returns the slot for v, creating the vertex if needed.
// The second result reports whether the vertex was newly created. One
// probe serves both the lookup and the insert.
func (s *Store) EnsureVertex(v VertexID) (Slot, bool) {
	i, slot1 := s.table.probe(v)
	if slot1 != 0 {
		return Slot(slot1 - 1), false
	}
	slot := Slot(len(s.ids))
	s.table = s.table.insert(i, v, slot)
	s.ids = append(s.ids, v)
	s.adj = append(s.adj, adjacency{})
	return slot, true
}

// AddEdge inserts the directed edge src->dst with weight w, carried by an
// event of snapshot sequence seq. The source vertex is created if absent;
// the destination is NOT — in the distributed model the destination vertex
// lives in its owner's shard, and appears here only as a neighbour ID
// inside src's adjacency. If the edge already exists its weight merges per
// the store's WeightPolicy (default: keep the minimum — the paper's SSSP
// "edge updates limited only to reducing edge weight", §II-B). A merge
// that changes the entry clones a shared array first; a new edge is
// appended in place.
//
// While a snapshot is active (BeginSnapshot), a new edge with seq at or
// past its marker is hidden from NeighborsBefore, and a duplicate with seq
// below it reveals the edge again: a parallel edge ingested before the
// marker belongs to the previous version even when a post-marker
// duplicate raced ahead of it. Outside a snapshot seq is not read.
// Returns the source slot, whether the source vertex was created, and
// whether the adjacency entry is new.
func (s *Store) AddEdge(src, dst VertexID, w Weight, seq uint32) (srcSlot Slot, srcCreated, isNew bool) {
	srcSlot, srcCreated = s.EnsureVertex(src)
	a := &s.adj[srcSlot]
	var i, free int
	var h uint64
	if a.index == nil {
		i = a.find(dst)
	} else {
		// One probe both finds a duplicate and picks the slot a new
		// edge's position goes in.
		h = rhh.Hash64(uint64(dst))
		if i, free = a.index.lookup(a.edges, dst, h); i >= 0 {
			i = a.index.pos(i)
		}
	}
	if i >= 0 {
		if merged := s.mergeWeight(a.edges[i].W, w); merged != a.edges[i].W {
			s.own(a)
			a.edges[i].W = merged
		}
		if seq < s.marker {
			s.reveal(srcSlot, i)
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
	a.edges = append(a.edges, MakeHalfEdge(dst, w))
	switch {
	case a.index != nil:
		a.index.insert(a.edges, free, h, len(a.edges)-1)
	case len(a.edges) > s.smallCap:
		a.index = newPosIndex(a.edges)
		s.promotions++
	}
	s.edges++
	if s.marker != 0 && seq >= s.marker {
		s.hide(srcSlot, len(a.edges)-1)
	}
	return srcSlot, srcCreated, true
}

// BeginSnapshot starts a snapshot with the given marker (> 0): from now
// until EndSnapshot, AddEdge hides from NeighborsBefore every new edge
// whose seq is at or past marker. The engine calls it when the rank takes
// its previous-version copy; an edge stored before that belongs to the
// previous version. A second Begin drops the first's set.
func (s *Store) BeginSnapshot(marker uint32) {
	s.forgetHidden()
	s.marker = marker
}

// EndSnapshot ends the active snapshot and frees its set. The engine calls
// it once the rank has contributed, when no previous-version event is left.
func (s *Store) EndSnapshot() {
	s.forgetHidden()
	s.marker = 0
}

// hide marks the unmarked entry at position pos of the vertex at slot as
// added after the marker.
func (s *Store) hide(slot Slot, pos int) {
	if s.hidden == nil {
		s.hidden = map[Slot][]uint64{}
	}
	set := s.hidden[slot]
	if w := pos / 64; w >= len(set) {
		set = append(set, make([]uint64, w+1-len(set))...)
		s.hidden[slot] = set
	}
	set[pos/64] |= 1 << (pos % 64)
	s.adj[slot].hidden++
}

// reveal unmarks the entry at position pos of the vertex at slot,
// reporting whether it was marked.
func (s *Store) reveal(slot Slot, pos int) bool {
	a := &s.adj[slot]
	if a.hidden == 0 {
		return false
	}
	set := s.hidden[slot]
	if !isHidden(set, pos) {
		return false
	}
	set[pos/64] &^= 1 << (pos % 64)
	a.hidden--
	return true
}

// isHidden reports whether the bitmap set marks position pos.
func isHidden(set []uint64, pos int) bool {
	return pos/64 < len(set) && set[pos/64]&(1<<(pos%64)) != 0
}

// forgetHidden unmarks every entry and frees the bitmaps.
func (s *Store) forgetHidden() {
	for slot := range s.hidden {
		s.adj[slot].hidden = 0
	}
	s.hidden = nil
}

// own makes a's array private before a write below its length: a shared
// array is replaced by a clone, which published headers never see.
func (s *Store) own(a *adjacency) {
	if a.shared {
		a.edges = append(make([]HalfEdge, 0, cap(a.edges)), a.edges...)
		a.shared = false
		s.clones.Add(1)
	}
}

// DeleteEdge removes the directed edge src->dst, reporting whether it was
// present. Vertices are never removed (vertex deletion is a set of edge
// deletions in the paper's model). The last entry moves into the hole,
// and the index, if any, learns its new position.
func (s *Store) DeleteEdge(src, dst VertexID) bool {
	srcSlot, ok := s.SlotOf(src)
	if !ok {
		return false
	}
	a := &s.adj[srcSlot]
	last := len(a.edges) - 1
	var i int
	if x := a.index; x != nil {
		slot, _ := x.lookup(a.edges, dst, rhh.Hash64(uint64(dst)))
		if slot < 0 {
			return false
		}
		i = x.pos(slot)
		x.remove(slot)
		if i != last {
			moved := a.edges[last].Nbr()
			ms, _ := x.lookup(a.edges, moved, rhh.Hash64(uint64(moved)))
			x.setPos(ms, i)
		}
		if last <= s.smallCap/2 {
			a.index = nil
		}
	} else if i = a.find(dst); i < 0 {
		return false
	}
	s.own(a)
	a.edges[i] = a.edges[last]
	a.edges = a.edges[:last]
	s.edges--
	// The mark goes with the entry: the deleted one's is dropped, the
	// moved one's follows it to i.
	if a.hidden != 0 {
		s.reveal(srcSlot, i)
		if i != last && s.reveal(srcSlot, last) {
			s.hide(srcSlot, i)
		}
	}
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
// array order. Iteration stops early if fn returns false. fn must not
// mutate the store.
func (s *Store) Neighbors(slot Slot, fn func(nbr VertexID, w Weight) bool) {
	a := &s.adj[slot]
	for i := range a.edges {
		if !fn(a.edges[i].Nbr(), a.edges[i].W) {
			return
		}
	}
}

// NeighborsBefore is Neighbors without the edges the active snapshot hides
// (BeginSnapshot): those added after its marker. Previous-version snapshot
// propagation uses it so that state belonging to a snapshot never
// traverses such an edge. With nothing hidden at the vertex it is
// Neighbors.
func (s *Store) NeighborsBefore(slot Slot, fn func(nbr VertexID, w Weight) bool) {
	a := &s.adj[slot]
	if a.hidden == 0 {
		s.Neighbors(slot, fn)
		return
	}
	set := s.hidden[slot]
	for i := range a.edges {
		if isHidden(set, i) {
			continue
		}
		if !fn(a.edges[i].Nbr(), a.edges[i].W) {
			return
		}
	}
}

// Peek reads, and changes nothing, the memory a later AddEdge, DeleteEdge
// or EdgeWeight of the edge from the vertex at slot to nbr touches first:
// the slot's header, the index's home group for nbr, and the array's last
// entry, where an append lands. The rank calls it for the next few events
// of a drain before processing them, so their cache misses overlap instead
// of following one another. The result is a mix of the words read and
// means nothing; the caller keeps it only so the loads are not dropped.
func (s *Store) Peek(slot Slot, nbr VertexID) uint64 {
	a := &s.adj[slot]
	n := len(a.edges)
	if n == 0 {
		return 0
	}
	x := uint64(a.edges[n-1].Nbr())
	if a.index != nil {
		x ^= a.index.peek(nbr)
	}
	return x
}

// Share returns the vertex's edges as a header onto the store's own array,
// for the serve plane to publish without copying. From then on the store
// never writes below the header's length: a merge or delete clones the
// array first. Readers must treat the result as read-only and
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

// AdjEntries returns a copy of every half-edge of the vertex at slot.
// Diagnostic accessor for tests and the sim driver's checks; allocates per
// call.
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

// StorageStats is the store's counter view, the storage block of the
// engine's stats.
type StorageStats struct {
	// SegClones counts clones of shared arrays: the copies a merge or
	// delete makes of an array the serve plane holds.
	SegClones uint64 `json:"seg_clones"`
}

// Storage reads the store's counters; safe from any goroutine.
func (s *Store) Storage() StorageStats { return StorageStats{SegClones: s.clones.Load()} }

// Add sums o into st, totalling stores.
func (st *StorageStats) Add(o StorageStats) { st.SegClones += o.SegClones }

// CheckIndex reports a vertex table that does not hold exactly the
// store's vertices at their slots, or the first vertex whose position
// index disagrees with its edge array (see posIndex.check), whose array
// outgrew smallCap without one, or whose hidden count disagrees with its
// bitmap or whose bitmap marks a position past its array. Diagnostic: it
// walks the vertex table and every index and bitmap.
func (s *Store) CheckIndex() error {
	if err := s.table.check(s.ids); err != nil {
		return err
	}
	for slot := range s.adj {
		a := &s.adj[slot]
		n, last := 0, -1
		for w, x := range s.hidden[Slot(slot)] {
			if x != 0 {
				last = w*64 + 63 - bits.LeadingZeros64(x)
			}
			n += bits.OnesCount64(x)
		}
		if n != int(a.hidden) || last >= len(a.edges) {
			return fmt.Errorf("vertex %d: counts %d hidden of %d edges, its bitmap marks %d up to position %d",
				s.ids[slot], a.hidden, len(a.edges), n, last)
		}
		if a.index == nil {
			if len(a.edges) > s.smallCap {
				return fmt.Errorf("vertex %d: %d edges and no index", s.ids[slot], len(a.edges))
			}
			continue
		}
		if err := a.index.check(a.edges); err != nil {
			return fmt.Errorf("vertex %d: %w", s.ids[slot], err)
		}
	}
	return nil
}
