package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// sortedEntries returns the vertex's full (Nbr, W, Seq) set sorted by Nbr,
// for order-insensitive comparison across storage layouts.
func sortedEntries(s *Store, slot Slot) []HalfEdge {
	out := s.AdjEntries(slot)
	sort.Slice(out, func(i, j int) bool { return out[i].Nbr < out[j].Nbr })
	return out
}

// hybridOps is a randomized op sequence: adds, deletes, and compaction
// points, interleaved. Generated by testing/quick via its Generate-free
// default (slices of struct fields drawn from the rng).
type hybridOp struct {
	Src, Dst uint8
	W        uint16
	Seq      uint8
	Kind     uint8 // %8: 0-5 add, 6 delete, 7 compact-next
}

// TestHybridEquivalenceQuick drives a hybrid store and a pure-dynamic
// store through identical randomized insert/delete sequences, with
// compaction interleaved at random points on the hybrid side only, and
// requires every observable — edge sets with weights and seq tags, degree,
// edge count, point lookups, seq-filtered iteration — to be identical.
// This is the storage half of the satellite property: the hybrid tier is a
// pure representation change. After every compaction the compacted
// prefix must be strictly key-sorted with every entry found by segFind.
// The second pass draws long op sequences over a wider neighbour space,
// which grows prefixes past linearCut, so segFind's interpolation runs.
func TestHybridEquivalenceQuick(t *testing.T) {
	for _, policy := range []WeightPolicy{WeightMin, WeightMax, WeightFirst} {
		dense := func(ops []hybridOp, compactCap uint8) bool {
			return hybridMatchesPure(t, ops, compactCap, policy, 16)
		}
		if err := quick.Check(dense, &quick.Config{
			MaxCount: 60,
			Rand:     rand.New(rand.NewSource(int64(policy) + 7)),
		}); err != nil {
			t.Errorf("policy %d: %v", policy, err)
		}
		wide := func(ops []hybridOp, compactCap uint8) bool {
			return hybridMatchesPure(t, ops, compactCap, policy, 64)
		}
		if err := quick.Check(wide, &quick.Config{
			MaxCount: 30,
			Rand:     rand.New(rand.NewSource(int64(policy) + 71)),
			Values:   longOps(1200),
		}); err != nil {
			t.Errorf("policy %d, long sequences: %v", policy, err)
		}
	}
}

// longOps is a quick.Config.Values generator for (ops, compactCap)
// arguments with up to max ops, far past testing/quick's default slice
// length.
func longOps(max int) func([]reflect.Value, *rand.Rand) {
	return func(args []reflect.Value, r *rand.Rand) {
		ops := make([]hybridOp, r.Intn(max+1))
		for i := range ops {
			v, _ := quick.Value(reflect.TypeOf(hybridOp{}), r)
			ops[i] = v.Interface().(hybridOp)
		}
		args[0] = reflect.ValueOf(ops)
		args[1] = reflect.ValueOf(uint8(r.Intn(256)))
	}
}

// hybridMatchesPure runs one TestHybridEquivalenceQuick case: ops on 16
// source ids (dense: a high duplicate rate) and nbrs neighbour ids.
func hybridMatchesPure(t *testing.T, ops []hybridOp, compactCap uint8, policy WeightPolicy, nbrs uint8) bool {
	hyb := NewStore(4) // tiny smallCap: exercise promotions too
	hyb.SetWeightPolicy(policy)
	hyb.EnableHybrid(int(compactCap%8) + 1)
	pure := NewStore(4)
	pure.SetWeightPolicy(policy)
	for _, op := range ops {
		src := VertexID(op.Src % 16)
		dst := VertexID(op.Dst % nbrs)
		switch op.Kind % 8 {
		case 6:
			hr := hyb.DeleteEdge(src, dst)
			pr := pure.DeleteEdge(src, dst)
			if hr != pr {
				t.Logf("DeleteEdge(%d,%d): hybrid=%v pure=%v", src, dst, hr, pr)
				return false
			}
		case 7:
			if slot, compacted, _ := hyb.CompactNext(); compacted && !prefixFindable(t, hyb, slot) {
				return false
			}
		default:
			hs, hc, hn := hyb.AddEdge(src, dst, Weight(op.W), uint32(op.Seq))
			ps, pc, pn := pure.AddEdge(src, dst, Weight(op.W), uint32(op.Seq))
			if hs != ps || hc != pc || hn != pn {
				t.Logf("AddEdge(%d,%d): hybrid=(%v,%v,%v) pure=(%v,%v,%v)",
					src, dst, hs, hc, hn, ps, pc, pn)
				return false
			}
		}
	}
	return storesEqual(t, hyb, pure)
}

// prefixFindable reports whether the slot's prefix is strictly sorted by
// nbrKey and segFind finds each of its entries where it is, logging the
// first failure.
func prefixFindable(t *testing.T, s *Store, slot Slot) bool {
	t.Helper()
	a := &s.adj[slot]
	seg := a.edges[:a.seg]
	for i := range seg {
		if i > 0 && nbrKey(seg[i-1].Nbr) >= nbrKey(seg[i].Nbr) {
			t.Logf("slot %d: prefix not strictly key-sorted at %d of %d", slot, i, len(seg))
			return false
		}
		if got := segFind(seg, seg[i].Nbr); got != i {
			t.Logf("slot %d: segFind(%d) = %d, want %d (prefix of %d)", slot, seg[i].Nbr, got, i, len(seg))
			return false
		}
	}
	return true
}

// storesEqual compares every observable of two stores, logging the first
// divergence.
func storesEqual(t *testing.T, hyb, pure *Store) bool {
	t.Helper()
	if hyb.NumVertices() != pure.NumVertices() {
		t.Logf("vertices: hybrid=%d pure=%d", hyb.NumVertices(), pure.NumVertices())
		return false
	}
	if hyb.NumEdges() != pure.NumEdges() {
		t.Logf("edges: hybrid=%d pure=%d", hyb.NumEdges(), pure.NumEdges())
		return false
	}
	for slot := 0; slot < hyb.NumVertices(); slot++ {
		hs, ps := Slot(slot), Slot(slot)
		if hyb.IDOf(hs) != pure.IDOf(ps) {
			t.Logf("slot %d: id hybrid=%d pure=%d", slot, hyb.IDOf(hs), pure.IDOf(ps))
			return false
		}
		if hyb.Degree(hs) != pure.Degree(ps) {
			t.Logf("slot %d: degree hybrid=%d pure=%d", slot, hyb.Degree(hs), pure.Degree(ps))
			return false
		}
		he, pe := sortedEntries(hyb, hs), sortedEntries(pure, ps)
		for i := range he {
			if he[i] != pe[i] {
				t.Logf("slot %d entry %d: hybrid=%+v pure=%+v", slot, i, he[i], pe[i])
				return false
			}
		}
		// Point lookups and seq-filtered iteration through the public API.
		for _, e := range he {
			hw, hok := hyb.EdgeWeight(hs, e.Nbr)
			pw, pok := pure.EdgeWeight(ps, e.Nbr)
			if hw != pw || hok != pok {
				t.Logf("slot %d EdgeWeight(%d): hybrid=(%v,%v) pure=(%v,%v)", slot, e.Nbr, hw, hok, pw, pok)
				return false
			}
		}
		for _, seq := range []uint32{0, 1, 3, 1 << 30} {
			hm := collectBefore(hyb, hs, seq)
			pm := collectBefore(pure, ps, seq)
			if len(hm) != len(pm) {
				t.Logf("slot %d NeighborsBefore(%d): hybrid=%d pure=%d entries", slot, seq, len(hm), len(pm))
				return false
			}
			for k, v := range pm {
				if hm[k] != v {
					t.Logf("slot %d NeighborsBefore(%d) nbr %d: hybrid=%d pure=%d", slot, seq, k, hm[k], v)
					return false
				}
			}
		}
	}
	return true
}

func collectBefore(s *Store, slot Slot, seq uint32) map[VertexID]Weight {
	m := map[VertexID]Weight{}
	s.NeighborsBefore(slot, seq, func(nbr VertexID, w Weight) bool {
		m[nbr] = w
		return true
	})
	return m
}

// TestCompactSlotBasics pins the compaction mechanics: the prefix comes
// out strictly sorted by nbrKey, the tail empties, counters move, and
// re-compaction with an empty tail is a no-op.
func TestCompactSlotBasics(t *testing.T) {
	s := NewStore(4)
	s.EnableHybrid(64) // high threshold: compaction only when forced
	for i := 0; i < 10; i++ {
		s.AddEdge(1, VertexID(100-i), Weight(i), uint32(i))
	}
	slot, _ := s.SlotOf(1)
	if !s.CompactSlot(slot) {
		t.Fatal("CompactSlot reported no work with a 10-entry tail")
	}
	seg := s.Share(slot)
	if len(seg) != 10 {
		t.Fatalf("prefix len=%d, want 10", len(seg))
	}
	for i := 1; i < len(seg); i++ {
		if nbrKey(seg[i-1].Nbr) >= nbrKey(seg[i].Nbr) {
			t.Fatalf("prefix not strictly key-sorted at %d: %v", i, seg)
		}
	}
	hs := s.Hybrid()
	if hs.Compactions != 1 || hs.SegmentEdges != 10 {
		t.Fatalf("counters: %+v, want 1 compaction / 10 segment edges", hs)
	}
	if s.CompactSlot(slot) {
		t.Fatal("CompactSlot reported work with an empty tail")
	}
	if s.Degree(slot) != 10 || s.NumEdges() != 10 {
		t.Fatalf("degree=%d edges=%d after compaction, want 10/10", s.Degree(slot), s.NumEdges())
	}
}

// TestSegmentCopyOnWrite pins the aliasing contract the serve plane relies
// on: a header taken with Share before a weight merge, a seq merge, a
// delete or a compaction keeps observing the old content, while the store
// reflects the new.
func TestSegmentCopyOnWrite(t *testing.T) {
	s := NewStore(4)
	s.EnableHybrid(64)
	s.AddEdge(1, 2, 9, 5)
	s.AddEdge(1, 3, 7, 5)
	slot, _ := s.SlotOf(1)
	s.CompactSlot(slot)
	before := s.Share(slot)

	// Weight merge (WeightMin lowers 9 -> 4) must clone.
	s.AddEdge(1, 2, 4, 6)
	if w, _ := s.EdgeWeight(slot, 2); w != 4 {
		t.Fatalf("merged weight = %d, want 4", w)
	}
	if before[segFind(before, 2)].W != 9 {
		t.Fatalf("shared array mutated in place: %+v", before)
	}
	// Seq lowering alone must also clone.
	snap := s.Share(slot)
	s.AddEdge(1, 3, 7, 2)
	if snap[segFind(snap, 3)].Seq != 5 {
		t.Fatalf("shared array seq mutated in place: %+v", snap)
	}
	// A delete must clone too.
	snap = s.Share(slot)
	if !s.DeleteEdge(1, 3) {
		t.Fatal("DeleteEdge(1,3) reported absent")
	}
	if len(snap) != 2 || segFind(snap, 3) < 0 {
		t.Fatalf("shared array shrunk in place: %+v", snap)
	}
	if s.Degree(slot) != 1 {
		t.Fatalf("degree after delete = %d, want 1", s.Degree(slot))
	}
	// An append writes past the shared length, in place; the compaction
	// that sorts it into the prefix must clone.
	snap = s.Share(slot)
	s.AddEdge(1, 1, 3, 7)
	s.CompactSlot(slot)
	if len(snap) != 1 || snap[0].Nbr != 2 {
		t.Fatalf("shared array rewritten by compaction: %+v", snap)
	}
	if got := s.Hybrid().SegClones; got != 4 {
		t.Fatalf("SegClones = %d, want 4", got)
	}
}

// TestSegmentPrivateMergesInPlace pins the flip side of the aliasing
// contract: an array that never escaped via Share is private, so a weight
// merge mutates it in place — no clone, no allocation.
func TestSegmentPrivateMergesInPlace(t *testing.T) {
	s := NewStore(4)
	s.EnableHybrid(64)
	s.AddEdge(1, 2, 9, 5)
	s.AddEdge(1, 3, 7, 5)
	slot, _ := s.SlotOf(1)
	s.CompactSlot(slot)

	clones := s.Hybrid().SegClones
	s.AddEdge(1, 2, 4, 6) // WeightMin lowers 9 -> 4 on a private array
	if w, _ := s.EdgeWeight(slot, 2); w != 4 {
		t.Fatalf("merged weight = %d, want 4", w)
	}
	if got := s.Hybrid().SegClones; got != clones {
		t.Fatalf("private merge cloned (SegClones %d -> %d), want in-place", clones, got)
	}
	// Sharing the array flips the slot to copy-on-write...
	ref := s.Share(slot)
	s.AddEdge(1, 3, 1, 6)
	if got := s.Hybrid().SegClones; got != clones+1 {
		t.Fatalf("shared merge did not clone (SegClones %d -> %d)", clones, got)
	}
	if ref[segFind(ref, 3)].W != 7 {
		t.Fatalf("shared array mutated in place: %+v", ref)
	}
	// ...and the clone is private again: the next merge is in-place.
	s.AddEdge(1, 2, 2, 6)
	if got := s.Hybrid().SegClones; got != clones+1 {
		t.Fatalf("post-clone merge cloned again (SegClones = %d), want in-place", got)
	}
}

// TestSharedHeadersFrozenQuick is the property behind serving the store's
// own arrays: whatever adds, duplicate merges, deletes and compactions
// follow, every header Share returned keeps its content below its length.
// Share runs on random slots at random points; each result is compared
// against a deep copy taken at the time.
func TestSharedHeadersFrozenQuick(t *testing.T) {
	type held struct {
		hdr, copy []HalfEdge
	}
	check := func(ops []hybridOp, compactCap uint8) bool {
		s := NewStore(4) // tiny smallCap: tail indexes come and go
		s.EnableHybrid(int(compactCap%8) + 1)
		var shared []held
		for _, op := range ops {
			src := VertexID(op.Src % 8)
			dst := VertexID(op.Dst % 16)
			switch op.Kind % 8 {
			case 5:
				if slot, ok := s.SlotOf(src); ok {
					h := s.Share(slot)
					shared = append(shared, held{h, append([]HalfEdge(nil), h...)})
				}
			case 6:
				s.DeleteEdge(src, dst)
			case 7:
				s.CompactNext()
			default:
				s.AddEdge(src, dst, Weight(op.W%4), uint32(op.Seq%4))
			}
			for _, h := range shared {
				for i := range h.copy {
					if h.hdr[i] != h.copy[i] {
						t.Logf("shared header entry %d: %+v, want %+v", i, h.hdr[i], h.copy[i])
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(29))}); err != nil {
		t.Error(err)
	}
}

// TestCompactQueueDedup pins the pending-queue discipline: a slot crossing
// the threshold repeatedly is queued once, and the queue drains FIFO.
func TestCompactQueueDedup(t *testing.T) {
	s := NewStore(4)
	s.EnableHybrid(2)
	for i := 0; i < 6; i++ {
		s.AddEdge(1, VertexID(10+i), 1, 0) // crosses threshold 2 repeatedly
	}
	s.AddEdge(2, 20, 1, 0)
	s.AddEdge(2, 21, 1, 0)
	if got := s.PendingCompactions(); got != 2 {
		t.Fatalf("pending = %d, want 2 (slot dedup)", got)
	}
	first, _ := s.PeekCompact()
	slot, compacted, ok := s.CompactNext()
	if !ok || !compacted || slot != first {
		t.Fatalf("CompactNext = (%d,%v,%v), want (%d,true,true)", slot, compacted, ok, first)
	}
	if _, _, ok := s.CompactNext(); !ok {
		t.Fatal("second queued slot missing")
	}
	if _, _, ok := s.CompactNext(); ok {
		t.Fatal("queue should be empty")
	}
	// Re-crossing after a drain re-queues.
	for i := 0; i < 4; i++ {
		s.AddEdge(1, VertexID(30+i), 1, 0)
	}
	if got := s.PendingCompactions(); got != 1 {
		t.Fatalf("pending after re-cross = %d, want 1", got)
	}
}
