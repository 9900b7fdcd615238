// Package serve is the MVCC read plane: epoch-stamped, read-mostly
// replicas of per-rank vertex state, published by the owning rank at epoch
// boundaries and read lock-free by any number of concurrent query
// goroutines while ingestion keeps running.
//
// The design is RCU-style single-writer/many-reader per rank:
//
//   - Each local rank owns a Publisher. At every epoch boundary the rank
//     (from its own goroutine, at an event boundary — never mid-event)
//     brings a Segment up to date — vertex values copied, the headers of
//     the store's own edge arrays copied — and swaps it in with one atomic
//     pointer store.
//   - The publisher keeps two segments per rank and rewrites the spare
//     one, replaying only the slots marked dirty since the spare's content
//     was built (RisGraph-style modified-vertex-only history), so a
//     publish costs O(changed slots) plus a bitmap sweep, not O(V).
//   - Readers see an internally consistent view of the segment they
//     load (see Segment). Point and batch reads write nothing shared:
//     they check the segment's generation after reading and retry if the
//     writer rewrote it meanwhile. Scans pin the segment, and the writer
//     never rewrites a pinned one. The adjacency headers point at the
//     rank store's edge arrays, which the store only appends to past a
//     shared length and otherwise clones (graph.Store.Share), and the
//     index only ever *gains* entries past the segment's bound (which
//     the bounds check rejects).
//   - No locks anywhere on the read path, no barrier, no rank parking: a
//     point read costs a few atomic loads, a hash probe and array
//     indexing; a pinned spare costs the writer one fresh allocation
//     instead of a wait.
//
// Epochs are a global counter advanced by a ticker (or a sim driver); a
// publish stamps the current epoch onto the new segment. If a rank
// processed no events since its last publish, it merely re-stamps the
// existing segment with the new epoch ("restamp") — sound because the
// content provably didn't change, so it is current *at* the newer epoch.
// Every read echoes the epoch of the segment(s) it touched, giving
// clients read-your-epoch consistency: values may be stale (up to one
// epoch interval) but are always a consistent committed prefix, never a
// torn mid-event view.
//
// The package is deliberately engine-free: it imports only graph and
// partition, and the core engine layers lifecycle, scheduling, and
// latency accounting on top.
package serve

import (
	mbits "math/bits"
	"sync/atomic"

	"incregraph/internal/graph"
	"incregraph/internal/partition"
)

// Plane is the per-engine read plane: one published segment slot per
// rank plus the global epoch counter.
type Plane struct {
	part  partition.Partitioner
	algos int
	local func(int) bool // is this rank hosted in-process?

	epoch     atomic.Uint64
	publishes atomic.Uint64
	restamps  atomic.Uint64
	copied    atomic.Uint64

	segs []rankSlot

	// readHook (tests only) runs inside a point read between its loads:
	// in load between the segment pointer and its generation, and in Get
	// between load and the value reads. Nil in production, it costs one
	// predictable branch at each place.
	readHook func()
}

// rankSlot is one rank's publication slot, padded so concurrent readers
// of neighbouring ranks don't false-share cache lines.
type rankSlot struct {
	_   [64]byte
	seg atomic.Pointer[Segment]
	due atomic.Bool
	_   [64]byte
}

// NewPlane builds a read plane over ranks() partitions serving algos
// algorithm value columns. local reports whether a rank is hosted in this
// process (remote ranks never publish here and their vertices read as
// not-found — the plane serves the local shard, like Collect in cluster
// mode). The epoch counter starts at 1 so that epoch 0 unambiguously
// means "never published".
func NewPlane(part partition.Partitioner, algos int, local func(int) bool) *Plane {
	p := &Plane{
		part:  part,
		algos: algos,
		local: local,
		segs:  make([]rankSlot, part.Ranks()),
	}
	p.epoch.Store(1)
	return p
}

// Advance bumps the global epoch and marks every local rank due for
// publication. The caller is responsible for waking parked ranks so the
// publish actually happens promptly.
func (p *Plane) Advance() uint64 {
	e := p.epoch.Add(1)
	for i := range p.segs {
		if p.local(i) {
			p.segs[i].due.Store(true)
		}
	}
	return e
}

// load returns rank's served segment and its generation for a read that
// writes nothing shared, or nil if the rank never published. The read
// stands only if seg.same(gen) holds after it.
func (p *Plane) load(rank int) (seg *Segment, gen uint64) {
	slot := &p.segs[rank]
	for {
		seg = slot.seg.Load()
		if seg == nil {
			return nil, 0
		}
		if p.readHook != nil {
			p.readHook()
		}
		gen = seg.gen.Load()
		if gen&1 == 0 && slot.seg.Load() == seg {
			return seg, gen
		}
		// Rewritten since the load: no longer the served segment.
	}
}

// acquire pins rank's served segment and returns it, or nil if the rank
// never published. The caller must release a non-nil result.
func (p *Plane) acquire(rank int) *Segment {
	slot := &p.segs[rank]
	for {
		seg := slot.seg.Load()
		if seg == nil {
			return nil
		}
		if seg.pins.Add(1) < 0 {
			continue // retired: the writer's reset discards the increment
		}
		if slot.seg.Load() == seg {
			return seg
		}
		seg.pins.Add(-1) // rewritten since the load and not yet served
	}
}

// Epoch returns the current global epoch.
func (p *Plane) Epoch() uint64 { return p.epoch.Load() }

// Stats is a point-in-time snapshot of plane-level counters.
type Stats struct {
	// Epoch is the current global epoch counter.
	Epoch uint64
	// PublishedEpoch is the minimum epoch across local ranks' published
	// segments — the staleness floor every read is guaranteed to meet.
	// Zero until every local rank has published at least once.
	PublishedEpoch uint64
	// Publishes counts segment publications with new content.
	Publishes uint64
	// Restamps counts publications elided because the rank processed no
	// events since its previous segment — the old segment was re-stamped
	// with the new epoch in place.
	Restamps uint64
	// CopiedSlots counts the vertex slots publishes copied into segments:
	// the dirty and new slots of a rewrite, all n of a fresh build.
	CopiedSlots uint64
}

// StatsSnapshot reads the plane counters.
func (p *Plane) StatsSnapshot() Stats {
	s := Stats{
		Epoch:       p.epoch.Load(),
		Publishes:   p.publishes.Load(),
		Restamps:    p.restamps.Load(),
		CopiedSlots: p.copied.Load(),
	}
	for i := range p.segs {
		if !p.local(i) {
			continue
		}
		var e uint64
		for {
			seg, gen := p.load(i)
			if seg != nil {
				e = seg.epoch.Load()
			}
			if seg.same(gen) {
				break
			}
		}
		if s.PublishedEpoch == 0 || e < s.PublishedEpoch {
			s.PublishedEpoch = e
		}
	}
	return s
}

// Publisher is a rank's single-writer handle onto the plane. All methods
// must be called from the owning rank's goroutine only; readers never
// touch a Publisher.
//
// Served adjacency is the rank store's own edge arrays: a publish takes
// each copied slot's header with graph.Store.Share, after which the store
// never writes below that header's length. The rank marks
// a slot in dirty (Touch) on every value write and every change to the
// slot's edge set. stale holds the slots in which the spare segment
// differs from the current one. Together they are the slots below the
// spare's n that a rewrite of the spare must copy.
type Publisher struct {
	p    *Plane
	rank int

	idx  *table // insert-only vertex-id -> slot index
	idxN int    // ids[0:idxN] already inserted into idx

	spare        *Segment // the segment served before the current one
	dirty, stale []uint64 // slot bitmaps: changed since the current segment; spare vs current

	lastEvents uint64 // rank event-counter value at the last publish that was not a restamp
}

// Publisher returns the single-writer handle for rank. Call once per
// local rank.
func (p *Plane) Publisher(rank int) *Publisher {
	return &Publisher{p: p, rank: rank, idx: newTable(1024)}
}

// Due reports whether an epoch boundary passed since this rank last
// published.
func (pub *Publisher) Due() bool {
	return pub.p.segs[pub.rank].due.Load()
}

// Touch marks slot as changed since the last publish. The rank calls it
// on every live value write and whenever the slot gains or loses a
// half-edge. A weight merge needs none: the served header keeps the old
// array, which holds the same neighbours. Changes made
// before the first publish need no Touch either: the first two publishes
// build fresh segments with a full copy.
func (pub *Publisher) Touch(slot graph.Slot) {
	w := int(slot >> 6)
	if w >= len(pub.dirty) {
		pub.growDirty(w)
	}
	pub.dirty[w] |= 1 << (slot & 63)
}

func (pub *Publisher) growDirty(w int) {
	pub.dirty = append(pub.dirty, make([]uint64, w+1-len(pub.dirty))...)
}

// Publish brings a segment up to date and swaps it in for this rank. From
// store it shares the append-only vertex-id slice (slot i is ids[i]
// forever) and each copied slot's edge array (Store.Share), copying
// neither; vals are the rank's live per-algorithm value columns (copied),
// and events the rank's total processed-event count, used as a mutation
// clock: if it hasn't moved since the last publish, the served segment is
// re-stamped with the current epoch instead.
//
// Otherwise the spare is rewritten when no scan pins it and its arrays
// fit n slots: inside an odd generation, it receives the stale and dirty
// slots below its old n and every slot from there to n. A pinned or
// outgrown spare, and the first two publishes, which have none, get a
// fresh segment with a full copy and 1.5x slack instead.
func (pub *Publisher) Publish(store *graph.Store, vals [][]uint64, events uint64) {
	slot := &pub.p.segs[pub.rank]
	// Clear due before loading the epoch: if Advance lands in between,
	// due goes true again and the next publishChores pass re-stamps at
	// the newer epoch — an epoch bump is never silently lost.
	slot.due.Store(false)
	epoch := pub.p.epoch.Load()

	cur := slot.seg.Load()
	if cur != nil && events == pub.lastEvents {
		if cur.epoch.Load() != epoch {
			cur.epoch.Store(epoch)
			pub.p.restamps.Add(1)
		}
		return
	}

	ids := store.IDs()
	n := len(ids)
	for i := pub.idxN; i < n; i++ {
		pub.idx = pub.idx.insert(uint64(ids[i]), uint64(i))
	}
	pub.idxN = n

	var copied int
	seg := pub.spare
	fits := seg != nil && cap(seg.adj) >= n
	pinned := fits && !seg.pins.CompareAndSwap(0, retired)
	rewrite := fits && !pinned
	if rewrite {
		seg.gen.Add(1) // odd: point reads of the old content retry
		copied = pub.replay(seg, n, store, vals)
	} else {
		seg = &Segment{vals: make([][]uint64, len(vals))}
		c := n + n/2
		seg.adj = make([][]graph.HalfEdge, 0, c)
		for a := range seg.vals {
			seg.vals[a] = make([]uint64, c)
		}
		pub.fill(seg, 0, n, store, vals)
		copied = n
	}
	if pinned {
		// Keep the pinned spare for reuse once its readers leave; it now
		// lacks this interval's changes as well.
		for len(pub.stale) < len(pub.dirty) {
			pub.stale = append(pub.stale, 0)
		}
		for w, bits := range pub.dirty {
			pub.stale[w] |= bits
		}
	} else {
		// The old current segment becomes the spare; it lacks exactly
		// this interval's changes.
		pub.spare = cur
		pub.stale, pub.dirty = pub.dirty, pub.stale
	}
	clear(pub.dirty)
	seg.ids = ids
	seg.n.Store(int64(n))
	seg.idx.Store(pub.idx)
	seg.epoch.Store(epoch)
	if rewrite {
		seg.gen.Add(1) // even again: the new content is complete
	}
	seg.pins.Store(0)
	slot.seg.Store(seg)
	pub.lastEvents = events
	pub.p.publishes.Add(1)
	pub.p.copied.Add(uint64(copied))
}

// replay brings the retired spare seg from its content to the live state
// over n slots and returns how many slots it copied.
func (pub *Publisher) replay(seg *Segment, n int, store *graph.Store, vals [][]uint64) int {
	old := int(seg.n.Load())
	copied := 0
	for w := 0; w*64 < old && (w < len(pub.dirty) || w < len(pub.stale)); w++ {
		var bits uint64
		if w < len(pub.dirty) {
			bits = pub.dirty[w]
		}
		if w < len(pub.stale) {
			bits |= pub.stale[w]
		}
		for ; bits != 0; bits &= bits - 1 {
			s := w*64 + mbits.TrailingZeros64(bits)
			if s >= old {
				break // from here on the tail copy below covers it
			}
			for a, col := range vals {
				var v uint64
				if s < len(col) {
					v = col[s]
				}
				atomic.StoreUint64(&seg.vals[a][s], v)
			}
			seg.adj[s] = store.Share(graph.Slot(s))
			copied++
		}
	}
	pub.fill(seg, old, n, store, vals)
	return copied + n - old
}

// fill copies slots [lo, n) from the live state and extends seg's
// adjacency to n slots; values a column does not reach yet read as zero.
// Point readers may be reading seg below lo, never from lo up: fill runs
// before the store of the new n.
func (pub *Publisher) fill(seg *Segment, lo, n int, store *graph.Store, vals [][]uint64) {
	for a, col := range vals {
		dst := seg.vals[a][:n]
		k := copy(dst[lo:], col[min(lo, len(col)):])
		clear(dst[lo+k:])
	}
	seg.adj = seg.adj[:n]
	for s := lo; s < n; s++ {
		seg.adj[s] = store.Share(graph.Slot(s))
	}
}

// DropSpare releases the spare segment's arrays to the collector. The
// rank calls it after its final publish, when no further rewrite will
// reuse them; a later publish falls back to a fresh build.
func (pub *Publisher) DropSpare() {
	pub.spare = nil
}
