package serve

import (
	"math"
	"sync/atomic"

	"incregraph/internal/graph"
	"incregraph/internal/rhh"
)

// Segment is one rank's published view: the first n vertices of the
// rank's slot space, their per-algorithm values at publish time, and their
// out-adjacency.
//
// Each Publisher owns two segments and alternates between them: the
// current one, and the spare, which holds the state of the publish before
// it. A publish rewrites the spare in place rather than allocating (see
// Publisher.Publish). Readers take one of two ways to a consistent view:
//
//   - Point and batch reads (Get, GetBatch, StatsSnapshot) write nothing
//     shared. Plane.load returns the served segment and its generation,
//     gen, which is odd while the writer rewrites the segment and moves on
//     every rewrite; the read is kept only if gen is unchanged after it
//     (Segment.same), and is otherwise retried on a fresh load. Everything
//     such a read touches that a rewrite writes — epoch, n, idx and the
//     value cells below the old n — is accessed atomically; the rewrite
//     writes the cells from the old n up only before it stores the new n.
//   - Scans (TopK, Neighborhood) pin the segment with Plane.acquire and
//     may then index it freely until they release it. pins counts them.
//     The writer rewrites only the spare — never the served segment — and
//     only after CompareAndSwap(0, retired) succeeds, so no pinned reader
//     exists while it writes. A reader whose Add(1) lands on a retired
//     segment sees a negative count and retries on a fresh pointer load;
//     the writer's Store(0) before republishing discards the increment.
//
// Both ways re-check after loading the segment that it is still the served
// one, so neither reads a rewrite the plane has not published yet. The
// rest of the sharing contract:
//
//   - vals and adj are the segment's own arrays. A rewrite replays only
//     the slots changed since the spare's content was built (the dirty
//     bitmaps, see Publisher) plus the new tail, so after it every slot
//     < n equals the live state at publish time. The vals columns are
//     allocated at full capacity and never resliced.
//   - ids aliases the store's append-only id slice. Slot i's id is
//     written once, before any segment with n > i is published, and never
//     reassigned; readers only index < n. In-place appends by the owner
//     touch indexes >= n (disjoint), and a growth reallocation leaves the
//     old array — which published headers still point at — intact.
//   - adj holds headers onto the rank store's own edge arrays
//     (graph.Store.Share). The store appends past a shared length in
//     place and clones the array before any other write, so every index
//     < len of a published header stays frozen. Readers use only Nbr: a
//     later weight merge goes to a clone the header does not see.
//   - idx is insert-only and shared across a publisher's segments; it may
//     gain entries for slots >= n after publication, which the n bounds
//     check in lookups rejects. A growth rebuild allocates a fresh table,
//     so older segments keep their exact old index.
//
// A restamp (see Publisher.Publish) bumps epoch in place on the served
// segment without a new generation: the content it stamps is unchanged.
type Segment struct {
	// pins has a cache line to itself: a scan's pin and release would
	// otherwise evict the fields below from every point reader's cache.
	// The 56 bytes after it keep the line it starts on clear of gen
	// wherever the segment is allocated.
	pins  atomic.Int64
	_     [56]byte
	gen   atomic.Uint64
	epoch atomic.Uint64
	n     atomic.Int64
	idx   atomic.Pointer[table]
	ids   []graph.VertexID
	// vals cells that a point read may load during a rewrite go through
	// atomic.LoadUint64/StoreUint64. The columns stay []uint64 so that a
	// publish can bulk-copy the cells no reader can reach yet.
	vals [][]uint64
	adj  [][]graph.HalfEdge
}

// same reports whether s still holds the content of generation gen, the
// one a read that began with Plane.load saw.
func (s *Segment) same(gen uint64) bool {
	return s == nil || s.gen.Load() == gen
}

// retired is the pin count of a segment the writer is rewriting: low
// enough that no number of concurrent reader increments brings it back to
// zero or above.
const retired = math.MinInt64 / 2

// release unpins a segment obtained from Plane.acquire. Nil-safe.
func (s *Segment) release() {
	if s != nil {
		s.pins.Add(-1)
	}
}

// table is a single-writer, many-reader open-addressing hash index from
// vertex id to slot. Insert-only: entries are never deleted or moved, so
// a reader's linear probe terminates at the first never-written position.
//
// Publication order makes lookups race-free: the writer stores the key,
// then the slot marker (both seq-cst atomics); segment publication
// (atomic pointer store) happens after every insert the segment depends
// on, so a reader that loaded the segment observes complete entries for
// every slot < n. Entries mid-insert can only belong to slots >= n,
// which the caller's bounds check rejects anyway.
type table struct {
	mask  uint64
	used  int
	keys  []atomic.Uint64 // vertex id (raw; validity gated by marks)
	marks []atomic.Uint64 // slot+1; 0 = empty
}

// newTable returns a table with the given power-of-two capacity.
func newTable(capacity int) *table {
	return &table{
		mask:  uint64(capacity - 1),
		keys:  make([]atomic.Uint64, capacity),
		marks: make([]atomic.Uint64, capacity),
	}
}

// insert adds id -> slot and returns the table to use for subsequent
// inserts (a freshly rebuilt, doubled table when load passes 3/4 —
// rebuilding rather than growing in place is what lets old segments keep
// their old index). Writer-only; ids are unique by construction (each
// vertex is inserted exactly once, when its slot first appears).
func (t *table) insert(id, slot uint64) *table {
	if t.used >= len(t.keys)-len(t.keys)/4 {
		bigger := newTable(len(t.keys) * 2)
		for i := range t.marks {
			if m := t.marks[i].Load(); m != 0 {
				bigger.place(t.keys[i].Load(), m-1)
			}
		}
		bigger.used = t.used
		t = bigger
	}
	t.place(id, slot)
	t.used++
	return t
}

func (t *table) place(id, slot uint64) {
	i := rhh.Hash64(id) & t.mask
	for t.marks[i].Load() != 0 {
		i = (i + 1) & t.mask
	}
	t.keys[i].Store(id)
	t.marks[i].Store(slot + 1)
}

// lookup probes for id. Safe to call concurrently with the writer.
func (t *table) lookup(id uint64) (uint64, bool) {
	i := rhh.Hash64(id) & t.mask
	for {
		m := t.marks[i].Load()
		if m == 0 {
			return 0, false
		}
		if t.keys[i].Load() == id {
			return m - 1, true
		}
		i = (i + 1) & t.mask
	}
}
