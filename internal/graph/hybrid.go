package graph

import (
	"cmp"
	"slices"
)

// Hybrid CSR-delta storage tier (the RisGraph/DegAwareRHH idea): each
// vertex's edge array keeps its cold bulk as a sorted prefix — a
// per-vertex CSR row — while recent arrivals accumulate in the tail behind
// it, found by a scan or, past smallCap, by the tail hash index.
// Compaction sorts the tail into the prefix; it never pauses ingestion
// because the owning rank runs it as a chore between events, on its own
// shard only (shared-nothing, zero locking).
//
// The prefix is sorted by nbrKey, the rhh mix of the neighbour ID, not by
// the ID: mixed keys are spread evenly, so a lookup in a long prefix
// starts with an interpolation probe whose position is known before the
// lookup runs (segFind). That lets the rank touch it ahead of time
// (Store.Peek). Prefixes of at most linearCut entries are scanned on Nbr.
//
// Compaction is a write below the array's length, so it follows the one
// sharing rule (see adjacency): a shared array is cloned first, and
// headers the serve plane published keep the old array, which holds the
// same edge set in its old order. A private array is merged in place.

// DefaultCompactCap is the default tail length that queues a vertex for
// compaction. It matches DefaultSmallCap so that, in steady state, a
// vertex's tail is compacted around the point it would otherwise get a
// hash index — most lookups stay in flat arrays: a short scan or a few
// interpolation probes into the prefix.
const DefaultCompactCap = 16

// EnableHybrid switches the store into hybrid CSR-delta mode. Call before
// any edges are inserted. compactCap <= 0 selects DefaultCompactCap.
func (s *Store) EnableHybrid(compactCap int) {
	s.hybrid = true
	s.SetCompactCap(compactCap)
}

// HybridEnabled reports whether the store runs the hybrid tier.
func (s *Store) HybridEnabled() bool { return s.hybrid }

// SetCompactCap adjusts the compaction threshold (n <= 0 selects the
// default). Owner-goroutine only, like every store mutation; the auto-tune
// controller uses it to trade compaction churn against scan locality.
func (s *Store) SetCompactCap(n int) {
	if n <= 0 {
		n = DefaultCompactCap
	}
	s.compactCap = n
}

// CompactCap returns the current compaction threshold.
func (s *Store) CompactCap() int { return s.compactCap }

// maybeQueueCompact enqueues slot for compaction when its tail is both
// over the absolute threshold and at least a quarter of the prefix —
// the geometric condition bounds total compaction copy work at O(degree)
// amortized constant per edge, like vector doubling.
func (s *Store) maybeQueueCompact(slot Slot, a *adjacency) {
	if !s.hybrid {
		return
	}
	if dn := a.tailLen(); dn >= s.compactCap && dn*4 >= int(a.seg) {
		s.queueCompact(slot)
	}
}

// queueCompact appends slot to the FIFO compaction queue unless it is
// already pending (bitmap-deduplicated).
func (s *Store) queueCompact(slot Slot) {
	w := int(slot) >> 6
	bit := uint64(1) << (uint(slot) & 63)
	for len(s.pendingBit) <= w {
		s.pendingBit = append(s.pendingBit, 0)
	}
	if s.pendingBit[w]&bit != 0 {
		return
	}
	s.pendingBit[w] |= bit
	s.pending = append(s.pending, slot)
}

// PendingCompactions counts slots queued for compaction.
func (s *Store) PendingCompactions() int { return len(s.pending) - s.pendHead }

// PeekCompact returns the slot CompactNext would pop, without popping.
func (s *Store) PeekCompact() (Slot, bool) {
	if s.pendHead >= len(s.pending) {
		return NoSlot, false
	}
	return s.pending[s.pendHead], true
}

// CompactNext pops the oldest queued slot and compacts it. compacted is
// false when the slot's tail emptied between queueing and now (deletes
// can do that); ok is false when the queue is empty.
func (s *Store) CompactNext() (slot Slot, compacted, ok bool) {
	if s.pendHead >= len(s.pending) {
		return NoSlot, false, false
	}
	slot = s.pending[s.pendHead]
	s.pendHead++
	if s.pendHead == len(s.pending) {
		s.pending = s.pending[:0]
		s.pendHead = 0
	}
	s.pendingBit[int(slot)>>6] &^= uint64(1) << (uint(slot) & 63)
	return slot, s.CompactSlot(slot), true
}

// keyedEdge is a tail entry with its nbrKey, as CompactSlot sorts it, so
// that the sort hashes each entry once rather than in every comparison.
type keyedEdge struct {
	key uint64
	e   HalfEdge
}

// CompactSlot sorts the vertex's tail into its prefix by nbrKey,
// reporting whether any entries moved. Weights and Seq tags carry over
// bit-exact, so NeighborsBefore and the weight-policy invariants are
// layout-independent — only iteration order changes, which REMO
// commutativity makes irrelevant (DESIGN.md "Hybrid storage tier").
func (s *Store) CompactSlot(slot Slot) bool {
	a := &s.adj[slot]
	seg, n := int(a.seg), len(a.edges)
	if n == seg {
		return false
	}
	tail := s.scratch[:0]
	for _, e := range a.edges[seg:] {
		tail = append(tail, keyedEdge{nbrKey(e.Nbr), e})
	}
	slices.SortFunc(tail, func(x, y keyedEdge) int { return cmp.Compare(x.key, y.key) })
	s.scratch = tail
	s.own(a)
	// Merge from the back, so every prefix entry is read before its
	// position is overwritten. Prefix and tail are disjoint by
	// construction (AddEdge checks the prefix first), so keys never tie.
	e := a.edges
	i, j := seg-1, len(tail)-1
	var ki uint64
	if i >= 0 {
		ki = nbrKey(e[i].Nbr)
	}
	for k := n - 1; j >= 0; k-- {
		if i >= 0 && ki > tail[j].key {
			e[k] = e[i]
			if i--; i >= 0 {
				ki = nbrKey(e[i].Nbr)
			}
		} else {
			e[k] = tail[j].e
			j--
		}
	}
	a.seg = uint32(n)
	a.index = nil
	s.compactions.Add(1)
	s.segEdges.Add(uint64(n - seg))
	return true
}

// CompactAll compacts every vertex's tail and clears the queue (tests and
// offline consolidation; the engine compacts incrementally via
// CompactNext).
func (s *Store) CompactAll() {
	for slot := range s.adj {
		s.CompactSlot(Slot(slot))
	}
	s.pending = s.pending[:0]
	s.pendHead = 0
	for i := range s.pendingBit {
		s.pendingBit[i] = 0
	}
}

// HybridStats is a point-in-time snapshot of the hybrid tier's counters
// (all zero when the store is not hybrid, except DeltaScanned which still
// tallies pure-dynamic scan traffic).
type HybridStats struct {
	// Compactions counts completed tail->prefix merges.
	Compactions uint64
	// SegmentEdges is the number of edges currently in sorted prefixes (a
	// gauge: compactions add, prefix deletes subtract).
	SegmentEdges uint64
	// SegClones counts clones of shared arrays: the copies a merge,
	// delete or compaction makes of an array the serve plane holds.
	SegClones uint64
	// SegScanned / DeltaScanned count adjacency entries iterated from
	// prefixes and tails during Neighbors/NeighborsBefore walks.
	// DeltaScanned/(Seg+Delta) is the delta hit rate: the fraction of scan
	// traffic still served by unsorted tails (lower = better locality).
	SegScanned   uint64
	DeltaScanned uint64
}

// Hybrid reads the hybrid tier's counters; safe from any goroutine.
func (s *Store) Hybrid() HybridStats {
	return HybridStats{
		Compactions:  s.compactions.Load(),
		SegmentEdges: s.segEdges.Load(),
		SegClones:    s.segClones.Load(),
		SegScanned:   s.segScans.Load(),
		DeltaScanned: s.deltaScans.Load(),
	}
}

// DeltaHitRate is DeltaScanned over total scanned entries (0 when nothing
// was scanned).
func (h HybridStats) DeltaHitRate() float64 {
	total := h.SegScanned + h.DeltaScanned
	if total == 0 {
		return 0
	}
	return float64(h.DeltaScanned) / float64(total)
}
