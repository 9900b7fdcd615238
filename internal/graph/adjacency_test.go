package graph

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// sortedEntries returns the vertex's full (Nbr, W, Seq) set sorted by Nbr,
// for comparisons that do not depend on array order.
func sortedEntries(s *Store, slot Slot) []HalfEdge {
	out := s.AdjEntries(slot)
	sort.Slice(out, func(i, j int) bool { return out[i].Nbr < out[j].Nbr })
	return out
}

// heldHeader is a header Share returned and a deep copy taken with it.
type heldHeader struct {
	hdr, copy []HalfEdge
}

// adjOracle drives a store and a map model of it through the same
// operations and compares them: every vertex's edge set with weights and
// seq tags, point lookups, seq-filtered walks, the edge count, the index
// against its array (CheckIndex), and every header Share returned against
// the copy taken when it was handed out.
type adjOracle struct {
	t      testing.TB
	s      *Store
	model  map[VertexID]map[VertexID]HalfEdge
	shared []heldHeader
}

func newAdjOracle(t testing.TB, smallCap int) *adjOracle {
	return &adjOracle{t: t, s: NewStore(smallCap), model: map[VertexID]map[VertexID]HalfEdge{}}
}

func (o *adjOracle) add(src, dst VertexID, w Weight, seq uint32) {
	o.t.Helper()
	_, _, isNew := o.s.AddEdge(src, dst, w, seq)
	if o.model[src] == nil {
		o.model[src] = map[VertexID]HalfEdge{}
	}
	old, existed := o.model[src][dst]
	if isNew == existed {
		o.t.Fatalf("AddEdge(%d,%d): isNew=%v, model has it: %v", src, dst, isNew, existed)
	}
	if existed {
		old.W, old.Seq = min(old.W, w), min(old.Seq, seq) // WeightMin
		o.model[src][dst] = old
	} else {
		o.model[src][dst] = HalfEdge{Nbr: dst, W: w, Seq: seq}
	}
}

func (o *adjOracle) del(src, dst VertexID) {
	o.t.Helper()
	_, want := o.model[src][dst]
	if got := o.s.DeleteEdge(src, dst); got != want {
		o.t.Fatalf("DeleteEdge(%d,%d) = %v, model has it: %v", src, dst, got, want)
	}
	delete(o.model[src], dst)
}

// nbrAt returns the k-th entry (mod degree) of src's array, or false.
func (o *adjOracle) nbrAt(src VertexID, k int) (VertexID, bool) {
	slot, ok := o.s.SlotOf(src)
	if !ok || o.s.Degree(slot) == 0 {
		return 0, false
	}
	return o.s.adj[slot].edges[k%o.s.Degree(slot)].Nbr, true
}

func (o *adjOracle) share(src VertexID) {
	if slot, ok := o.s.SlotOf(src); ok {
		h := o.s.Share(slot)
		o.shared = append(o.shared, heldHeader{h, slices.Clone(h)})
	}
}

// verify compares the whole store with the model.
func (o *adjOracle) verify() {
	o.t.Helper()
	total := 0
	for src, nbrs := range o.model {
		total += len(nbrs)
		o.verifyVertex(src)
	}
	if o.s.NumEdges() != uint64(total) {
		o.t.Fatalf("NumEdges = %d, model %d", o.s.NumEdges(), total)
	}
	for _, h := range o.shared {
		if !slices.Equal(h.hdr, h.copy) {
			o.t.Fatalf("shared header changed: %v, want %v", h.hdr, h.copy)
		}
	}
}

// verifyVertex compares one vertex with the model.
func (o *adjOracle) verifyVertex(src VertexID) {
	o.t.Helper()
	slot, ok := o.s.SlotOf(src)
	if !ok {
		if len(o.model[src]) != 0 {
			o.t.Fatalf("vertex %d missing", src)
		}
		return
	}
	a := &o.s.adj[slot]
	if a.index != nil {
		if err := a.index.check(a.edges); err != nil {
			o.t.Fatalf("vertex %d: %v", src, err)
		}
	} else if len(a.edges) > o.s.smallCap {
		o.t.Fatalf("vertex %d: %d edges and no index", src, len(a.edges))
	}
	want := make([]HalfEdge, 0, len(o.model[src]))
	for _, e := range o.model[src] {
		want = append(want, e)
	}
	sort.Slice(want, func(i, j int) bool { return want[i].Nbr < want[j].Nbr })
	if got := sortedEntries(o.s, slot); !slices.Equal(got, want) {
		o.t.Fatalf("vertex %d: store %v, model %v", src, got, want)
	}
	for _, e := range want {
		if w, ok := o.s.EdgeWeight(slot, e.Nbr); !ok || w != e.W {
			o.t.Fatalf("EdgeWeight(%d,%d) = %d,%v, want %d", src, e.Nbr, w, ok, e.W)
		}
	}
	if o.s.HasEdge(src, 1<<40) {
		o.t.Fatalf("vertex %d: absent neighbour found", src)
	}
	before, n := 0, 0
	o.s.NeighborsBefore(slot, 2, func(VertexID, Weight) bool { before++; return true })
	for _, e := range want {
		if e.Seq < 2 {
			n++
		}
	}
	if before != n {
		o.t.Fatalf("vertex %d: NeighborsBefore(2) walked %d, want %d", src, before, n)
	}
}

// runAdjacency decodes ops four bytes at a time — kind, source, and two
// argument bytes — and applies up to 512 of them to a store whose
// threshold is smallCap. Sources come from four vertices, so degrees cross
// the threshold; bursts add or delete many edges at once, so degrees also
// shrink back through it. The touched vertex is compared with the model
// after every operation, the whole store every 32 and at the end.
func runAdjacency(t testing.TB, smallCap int, ops []byte) {
	o := newAdjOracle(t, smallCap)
	ops = ops[:min(len(ops), 4*512)]
	for k := 1; len(ops) >= 4; k++ {
		kind, src, a, b := ops[0]%16, VertexID(ops[1]%4), int(ops[2]), int(ops[3])
		ops = ops[4:]
		w, seq := Weight(b%8), uint32(b>>3%4)
		switch kind {
		case 0, 1, 2, 3, 4, 5: // a new neighbour, or a duplicate by chance
			o.add(src, VertexID(a|b<<8&0x300), w, seq)
		case 6, 7: // a re-add of a stored neighbour: a weight/seq merge
			if nbr, ok := o.nbrAt(src, a); ok {
				o.add(src, nbr, w, seq)
			}
		case 8, 9, 10: // a delete of a stored neighbour
			if nbr, ok := o.nbrAt(src, a); ok {
				o.del(src, nbr)
			}
		case 11: // a delete of an absent one
			o.del(src, VertexID(1<<20+a))
		case 12, 13:
			o.share(src)
		case 14: // a burst of distinct new neighbours
			for i := range 8 + a%32 {
				o.add(src, VertexID(1<<12+b<<8+i), w, seq)
			}
		case 15: // delete every other stored neighbour
			slot, ok := o.s.SlotOf(src)
			if !ok {
				break
			}
			for _, e := range o.s.AdjEntries(slot) {
				if e.Nbr%2 == VertexID(a%2) {
					o.del(src, e.Nbr)
				}
			}
		}
		o.verifyVertex(src)
		if k%32 == 0 {
			o.verify()
		}
	}
	o.verify()
}

// FuzzAdjacency checks the adjacency layout — arrival-order arrays, the
// position index past smallCap, deletes that move the last entry, and
// Share's copy-on-write — against a map model, over operation sequences
// the fuzzer shapes.
func FuzzAdjacency(f *testing.F) {
	rng := rand.New(rand.NewSource(38))
	for seed := range 17 {
		ops := make([]byte, 4*(16+rng.Intn(200)))
		rng.Read(ops)
		f.Add(uint8(seed), ops)
	}
	f.Fuzz(func(t *testing.T, smallCap uint8, ops []byte) {
		runAdjacency(t, 1+int(smallCap%80), ops)
	})
}

// TestAdjacencyProperty is FuzzAdjacency's seeded sweep: long random
// sequences at thresholds from 1 to above DefaultSmallCap.
func TestAdjacencyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, smallCap := range []int{1, 2, 4, 16, DefaultSmallCap} {
		for range 8 {
			ops := make([]byte, 4*512)
			rng.Read(ops)
			runAdjacency(t, smallCap, ops)
		}
	}
}

// TestAdjacencyWidePositions takes one vertex past 65,536 neighbours, so
// its index moves to uint32 positions, then merges, deletes and re-adds
// around that size: every entry stays indexed at its position.
func TestAdjacencyWidePositions(t *testing.T) {
	o := newAdjOracle(t, 0)
	const n = narrowLimit + 4000
	for i := range VertexID(n) {
		o.add(0, i*3, Weight(i%7+1), 1)
	}
	slot, _ := o.s.SlotOf(0)
	if x := o.s.adj[slot].index; x == nil || x.wide == nil {
		t.Fatalf("a vertex of degree %d has no wide index", n)
	}
	o.share(0)
	rng := rand.New(rand.NewSource(5))
	for range 20000 {
		k := rng.Intn(n)
		nbr, _ := o.nbrAt(0, k)
		switch rng.Intn(3) {
		case 0:
			o.add(0, nbr, Weight(rng.Intn(8)), 0)
		case 1:
			o.del(0, nbr)
		case 2:
			o.add(0, VertexID(3*rng.Intn(n)+1), 1, 1)
		}
	}
	o.verify()
	for o.s.Degree(slot) > narrowLimit-1000 {
		nbr, _ := o.nbrAt(0, rng.Intn(o.s.Degree(slot)))
		o.del(0, nbr)
	}
	o.add(0, 1<<30, 1, 1)
	o.verify()
}

// TestIndexFollowsDegree takes a vertex's degree past smallCap, which
// builds the index, and back down to half of it, which drops it.
func TestIndexFollowsDegree(t *testing.T) {
	o := newAdjOracle(t, 8)
	for i := range VertexID(8) {
		o.add(0, i, 1, 0)
	}
	slot, _ := o.s.SlotOf(0)
	if o.s.adj[slot].index != nil {
		t.Fatal("index built at smallCap")
	}
	o.add(0, 8, 1, 0)
	if o.s.adj[slot].index == nil || o.s.Promotions() != 1 {
		t.Fatalf("no index past smallCap (promotions %d)", o.s.Promotions())
	}
	o.verify()
	for i := range VertexID(5) {
		o.del(0, i)
	}
	if o.s.adj[slot].index != nil {
		t.Fatalf("index kept at degree %d", o.s.Degree(slot))
	}
	o.verify()
}

// TestSegmentCopyOnWrite pins the aliasing contract the serve plane relies
// on: a header taken with Share before a weight merge, a seq merge or a
// delete keeps observing the old content, while the store reflects the
// new; an append writes past the shared length without a clone.
func TestSegmentCopyOnWrite(t *testing.T) {
	s := NewStore(1) // indexed from the second edge
	s.AddEdge(1, 2, 9, 5)
	s.AddEdge(1, 3, 7, 5)
	slot, _ := s.SlotOf(1)
	before := s.Share(slot)

	// Weight merge (WeightMin lowers 9 -> 4) must clone.
	s.AddEdge(1, 2, 4, 6)
	if w, _ := s.EdgeWeight(slot, 2); w != 4 {
		t.Fatalf("merged weight = %d, want 4", w)
	}
	if before[0] != (HalfEdge{2, 9, 5}) {
		t.Fatalf("shared array mutated in place: %+v", before)
	}
	// Seq lowering alone must also clone.
	snap := s.Share(slot)
	s.AddEdge(1, 3, 7, 2)
	if snap[1].Seq != 5 {
		t.Fatalf("shared array seq mutated in place: %+v", snap)
	}
	// A delete must clone too.
	snap = s.Share(slot)
	if !s.DeleteEdge(1, 2) {
		t.Fatal("DeleteEdge(1,2) reported absent")
	}
	if len(snap) != 2 || snap[0].Nbr != 2 || snap[1].Nbr != 3 {
		t.Fatalf("shared array rewritten by a delete: %+v", snap)
	}
	if s.Degree(slot) != 1 {
		t.Fatalf("degree after delete = %d, want 1", s.Degree(slot))
	}
	// An append writes past the shared length, in place.
	snap = s.Share(slot)
	s.AddEdge(1, 1, 3, 7)
	if len(snap) != 1 || snap[0].Nbr != 3 {
		t.Fatalf("shared array rewritten by an append: %+v", snap)
	}
	if got := s.Storage().SegClones; got != 3 {
		t.Fatalf("SegClones = %d, want 3", got)
	}
}

// TestSegmentPrivateMergesInPlace pins the flip side of the aliasing
// contract: an array that never escaped via Share is private, so a weight
// merge mutates it in place — no clone, no allocation.
func TestSegmentPrivateMergesInPlace(t *testing.T) {
	s := NewStore(1)
	s.AddEdge(1, 2, 9, 5)
	s.AddEdge(1, 3, 7, 5)
	slot, _ := s.SlotOf(1)

	s.AddEdge(1, 2, 4, 6) // WeightMin lowers 9 -> 4 on a private array
	if w, _ := s.EdgeWeight(slot, 2); w != 4 {
		t.Fatalf("merged weight = %d, want 4", w)
	}
	if got := s.Storage().SegClones; got != 0 {
		t.Fatalf("private merge cloned (SegClones %d), want in-place", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { s.AddEdge(1, 3, 6, 5) }); allocs != 0 {
		t.Fatalf("private merge allocates %.1f times", allocs)
	}
	// Sharing the array flips the slot to copy-on-write...
	ref := s.Share(slot)
	s.AddEdge(1, 3, 1, 6)
	if got := s.Storage().SegClones; got != 1 {
		t.Fatalf("shared merge did not clone (SegClones %d)", got)
	}
	if ref[1].W != 6 {
		t.Fatalf("shared array mutated in place: %+v", ref)
	}
	// ...and the clone is private again: the next merge is in-place.
	s.AddEdge(1, 2, 2, 6)
	if got := s.Storage().SegClones; got != 1 {
		t.Fatalf("post-clone merge cloned again (SegClones = %d), want in-place", got)
	}
}

// TestSharedHeadersFrozenQuick is the property behind serving the store's
// own arrays: whatever adds, duplicate merges and deletes follow, every
// header Share returned keeps its content below its length. Share runs on
// random slots at random points; each result is compared against a deep
// copy taken at the time.
func TestSharedHeadersFrozenQuick(t *testing.T) {
	type op struct {
		Src, Dst uint8
		W        uint16
		Seq      uint8
		Kind     uint8 // %8: 0-4 add, 5 share, 6-7 delete
	}
	check := func(ops []op) bool {
		s := NewStore(4) // tiny smallCap: indexes come and go
		var shared []heldHeader
		for _, op := range ops {
			src := VertexID(op.Src % 8)
			dst := VertexID(op.Dst % 16)
			switch op.Kind % 8 {
			case 5:
				if slot, ok := s.SlotOf(src); ok {
					h := s.Share(slot)
					shared = append(shared, heldHeader{h, slices.Clone(h)})
				}
			case 6, 7:
				s.DeleteEdge(src, dst)
			default:
				s.AddEdge(src, dst, Weight(op.W%4), uint32(op.Seq%4))
			}
			for _, h := range shared {
				if !slices.Equal(h.hdr, h.copy) {
					t.Logf("shared header %+v, want %+v", h.hdr, h.copy)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(29))}); err != nil {
		t.Error(err)
	}
}
