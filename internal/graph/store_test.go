package graph

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestEnsureVertex(t *testing.T) {
	s := NewStore(0)
	slot, created := s.EnsureVertex(42)
	if !created || slot != 0 {
		t.Fatalf("EnsureVertex(42) = %d,%v want 0,true", slot, created)
	}
	slot2, created2 := s.EnsureVertex(42)
	if created2 || slot2 != slot {
		t.Fatalf("second EnsureVertex(42) = %d,%v", slot2, created2)
	}
	if s.IDOf(slot) != 42 {
		t.Fatalf("IDOf(%d) = %d", slot, s.IDOf(slot))
	}
	if s.NumVertices() != 1 {
		t.Fatalf("NumVertices = %d", s.NumVertices())
	}
	if _, ok := s.SlotOf(7); ok {
		t.Fatal("SlotOf(7) should miss")
	}
}

func TestAddEdgeBasics(t *testing.T) {
	s := NewStore(0)
	srcSlot, srcCreated, isNew := s.AddEdge(1, 2, 5, 0)
	if !isNew || !srcCreated {
		t.Fatalf("first AddEdge: isNew=%v srcCreated=%v", isNew, srcCreated)
	}
	if s.IDOf(srcSlot) != 1 {
		t.Fatal("slot maps to wrong ID")
	}
	// Only the source vertex materializes in this shard; the destination
	// lives in its owner's shard.
	if s.NumEdges() != 1 || s.NumVertices() != 1 {
		t.Fatalf("E=%d V=%d", s.NumEdges(), s.NumVertices())
	}
	if _, ok := s.SlotOf(2); ok {
		t.Fatal("destination vertex should not be created by AddEdge")
	}
	if w, ok := s.EdgeWeight(srcSlot, 2); !ok || w != 5 {
		t.Fatalf("EdgeWeight = %d,%v", w, ok)
	}
	if !s.HasEdge(1, 2) || s.HasEdge(2, 1) {
		t.Fatal("HasEdge wrong: store is directed")
	}
	if s.Degree(srcSlot) != 1 {
		t.Fatal("degree wrong")
	}
	_, srcCreated2, _ := s.AddEdge(1, 3, 1, 0)
	if srcCreated2 {
		t.Fatal("existing source reported as created")
	}
}

func TestAddEdgeDuplicateLowersWeight(t *testing.T) {
	s := NewStore(0)
	s.AddEdge(1, 2, 5, 0)
	_, _, isNew := s.AddEdge(1, 2, 9, 0)
	if isNew {
		t.Fatal("duplicate edge reported as new")
	}
	slot, _ := s.SlotOf(1)
	if w, _ := s.EdgeWeight(slot, 2); w != 5 {
		t.Fatalf("weight raised to %d; duplicates must only lower", w)
	}
	s.AddEdge(1, 2, 3, 0)
	if w, _ := s.EdgeWeight(slot, 2); w != 3 {
		t.Fatalf("weight = %d, want lowered to 3", w)
	}
	if s.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d after duplicates", s.NumEdges())
	}
}

// TestAddEdgeDuplicateLowersSeq: a duplicate insertion with a sequence
// below the active snapshot's marker must reveal an edge a post-marker
// insertion hid — a parallel edge ingested before a marker belongs to the
// previous version even when a post-marker duplicate raced ahead, and
// NeighborsBefore must be able to traverse it.
func TestAddEdgeDuplicateLowersSeq(t *testing.T) {
	for _, promote := range []bool{false, true} {
		s := NewStore(16)
		s.BeginSnapshot(1)
		if promote {
			// Give vertex 1 a position index.
			for n := VertexID(10); n < 30; n++ {
				s.AddEdge(1, n, 1, 2)
			}
		}
		s.AddEdge(1, 2, 5, 1) // post-marker duplicate arrives first
		slot, _ := s.SlotOf(1)
		seen := false
		s.NeighborsBefore(slot, func(nbr VertexID, w Weight) bool {
			if nbr == 2 {
				seen = true
			}
			return true
		})
		if seen {
			t.Fatalf("promote=%v: post-marker edge not hidden", promote)
		}
		s.AddEdge(1, 2, 5, 0) // pre-marker original
		s.NeighborsBefore(slot, func(nbr VertexID, w Weight) bool {
			if nbr == 2 {
				seen = true
			}
			return true
		})
		if !seen {
			t.Fatalf("promote=%v: pre-marker duplicate left edge stamped post-marker", promote)
		}
		// A later duplicate must never hide it again.
		s.AddEdge(1, 2, 5, 3)
		seen = false
		s.NeighborsBefore(slot, func(nbr VertexID, w Weight) bool {
			if nbr == 2 {
				seen = true
			}
			return true
		})
		if !seen {
			t.Fatalf("promote=%v: later duplicate raised the stamp", promote)
		}
	}
}

func TestWeightPolicies(t *testing.T) {
	cases := []struct {
		policy  WeightPolicy
		weights []Weight
		want    Weight
	}{
		{WeightMin, []Weight{5, 9, 3, 7}, 3},
		{WeightMax, []Weight{5, 9, 3, 7}, 9},
		{WeightFirst, []Weight{5, 9, 3, 7}, 5},
	}
	for _, tc := range cases {
		for _, smallCap := range []int{1, 64} { // both representations
			s := NewStore(smallCap)
			s.SetWeightPolicy(tc.policy)
			if smallCap == 1 {
				// Force promotion so the duplicate lands in the RHH path.
				s.AddEdge(1, 99, 1, 0)
			}
			for _, w := range tc.weights {
				s.AddEdge(1, 2, w, 0)
			}
			slot, _ := s.SlotOf(1)
			if got, _ := s.EdgeWeight(slot, 2); got != tc.want {
				t.Fatalf("policy %d smallCap %d: weight %d want %d", tc.policy, smallCap, got, tc.want)
			}
			// Duplicates never change the edge count.
			wantEdges := uint64(1)
			if smallCap == 1 {
				wantEdges = 2 // includes the forced-promotion edge
			}
			if s.NumEdges() != wantEdges {
				t.Fatalf("policy %d smallCap %d: edges %d want %d", tc.policy, smallCap, s.NumEdges(), wantEdges)
			}
		}
	}
}

func TestSelfLoop(t *testing.T) {
	s := NewStore(0)
	_, _, isNew := s.AddEdge(3, 3, 1, 0)
	if !isNew {
		t.Fatal("self loop rejected")
	}
	if s.NumVertices() != 1 || s.NumEdges() != 1 {
		t.Fatalf("V=%d E=%d", s.NumVertices(), s.NumEdges())
	}
}

// TestPeekChangesNothing covers Store.Peek on every layout a slot can
// have — empty, a short scanned array, an indexed one — for present and
// absent neighbours: the store reads the same before and after.
func TestPeekChangesNothing(t *testing.T) {
	s := NewStore(4)
	s.EnsureVertex(0) // no edges
	for i := VertexID(1); i <= 3; i++ {
		s.AddEdge(1, i, Weight(i), 0) // scanned
	}
	for i := VertexID(1); i <= 40; i++ {
		s.AddEdge(2, i*7, Weight(i), 0) // indexed
	}
	before := make([][]HalfEdge, s.NumVertices())
	for slot := range before {
		before[slot] = s.AdjEntries(Slot(slot))
	}
	st, edges := s.Storage(), s.NumEdges()
	for slot := range before {
		for _, nbr := range []VertexID{0, 1, 5, 7, 105, 280, 1 << 40, ^VertexID(0)} {
			s.Peek(Slot(slot), nbr)
		}
	}
	for slot := range before {
		if got := s.AdjEntries(Slot(slot)); !slices.Equal(got, before[slot]) {
			t.Fatalf("slot %d changed under Peek: %v, want %v", slot, got, before[slot])
		}
	}
	if s.Storage() != st || s.NumEdges() != edges || s.CheckIndex() != nil {
		t.Fatalf("store changed under Peek: %+v, %d edges, %v", s.Storage(), s.NumEdges(), s.CheckIndex())
	}
}

func TestPromotion(t *testing.T) {
	s := NewStore(4)
	for i := VertexID(1); i <= 10; i++ {
		s.AddEdge(0, i, Weight(i), 0)
	}
	if s.Promotions() != 1 {
		t.Fatalf("promotions = %d, want 1", s.Promotions())
	}
	slot, _ := s.SlotOf(0)
	if s.Degree(slot) != 10 {
		t.Fatalf("degree = %d", s.Degree(slot))
	}
	// All edges survive promotion, with weights intact.
	for i := VertexID(1); i <= 10; i++ {
		w, ok := s.EdgeWeight(slot, i)
		if !ok || w != Weight(i) {
			t.Fatalf("EdgeWeight(0,%d) = %d,%v after promotion", i, w, ok)
		}
	}
	// Duplicate handling still works post-promotion.
	_, _, isNew := s.AddEdge(0, 5, 100, 0)
	if isNew {
		t.Fatal("duplicate after promotion reported new")
	}
	if w, _ := s.EdgeWeight(slot, 5); w != 5 {
		t.Fatalf("post-promotion duplicate changed weight to %d", w)
	}
}

func TestNeighborsSmallAndLarge(t *testing.T) {
	for _, smallCap := range []int{2, 64} {
		s := NewStore(smallCap)
		want := map[VertexID]Weight{}
		for i := VertexID(1); i <= 20; i++ {
			s.AddEdge(0, i, Weight(i*2), 0)
			want[i] = Weight(i * 2)
		}
		slot, _ := s.SlotOf(0)
		got := map[VertexID]Weight{}
		s.Neighbors(slot, func(nbr VertexID, w Weight) bool {
			got[nbr] = w
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("smallCap=%d: %d neighbours, want %d", smallCap, len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("smallCap=%d: nbr %d weight %d want %d", smallCap, k, got[k], v)
			}
		}
		// Early stop.
		n := 0
		s.Neighbors(slot, func(VertexID, Weight) bool { n++; return false })
		if n != 1 {
			t.Fatalf("early stop visited %d", n)
		}
	}
}

// TestNeighborsBefore: while a snapshot is active, NeighborsBefore skips
// the edges added at or past its marker and only those; a delete forgets
// a hidden edge, so a pre-marker re-add is visible; ending the snapshot
// frees the set, and a snapshot begun later hides nothing stored before.
func TestNeighborsBefore(t *testing.T) {
	for _, smallCap := range []int{2, 64} {
		s := NewStore(smallCap)
		s.AddEdge(0, 1, 1, 0) // stored before the snapshot begins
		s.BeginSnapshot(1)
		for i := VertexID(2); i <= 5; i++ {
			s.AddEdge(0, i, 1, 0) // epoch 0
		}
		for i := VertexID(6); i <= 13; i++ {
			s.AddEdge(0, i, 1, 1) // epoch 1
		}
		s.DeleteEdge(0, 13)
		s.AddEdge(0, 13, 1, 0) // deleted, then re-added before the marker
		s.AddEdge(0, 14, 1, 1)
		s.DeleteEdge(0, 14) // a hidden edge deleted for good
		slot, _ := s.SlotOf(0)
		var old []VertexID
		s.NeighborsBefore(slot, func(nbr VertexID, _ Weight) bool {
			old = append(old, nbr)
			return true
		})
		sort.Slice(old, func(i, j int) bool { return old[i] < old[j] })
		if !slices.Equal(old, []VertexID{1, 2, 3, 4, 5, 13}) {
			t.Fatalf("smallCap=%d: old edge set %v", smallCap, old)
		}
		if err := s.CheckIndex(); err != nil || s.adj[slot].hidden != 7 {
			t.Fatalf("smallCap=%d: %d edges hidden, want 7 (%v)", smallCap, s.adj[slot].hidden, err)
		}
		// Ending the snapshot frees the set; a new one sees everything.
		s.EndSnapshot()
		if s.hidden != nil || s.marker != 0 || s.adj[slot].hidden != 0 {
			t.Fatalf("smallCap=%d: EndSnapshot kept marker %d, %d hidden, vertex counts %d",
				smallCap, s.marker, len(s.hidden), s.adj[slot].hidden)
		}
		s.BeginSnapshot(2)
		count := 0
		s.NeighborsBefore(slot, func(VertexID, Weight) bool { count++; return true })
		if count != 13 {
			t.Fatalf("smallCap=%d: NeighborsBefore under a later snapshot = %d edges, want 13", smallCap, count)
		}
		// A Begin with no End between drops the first snapshot's set too.
		s.AddEdge(0, 20, 1, 2)
		s.BeginSnapshot(3)
		count = 0
		s.NeighborsBefore(slot, func(VertexID, Weight) bool { count++; return true })
		if count != 14 || s.hidden != nil || s.adj[slot].hidden != 0 {
			t.Fatalf("smallCap=%d: after a second Begin %d edges visible, %d hidden, vertex counts %d, want 14, 0, 0",
				smallCap, count, len(s.hidden), s.adj[slot].hidden)
		}
	}
}

// TestHalfEdgeSize pins the adjacency entry at 12 bytes (a 64-bit
// neighbour field would pad it to 16) and the vertex header at 40.
func TestHalfEdgeSize(t *testing.T) {
	if n := unsafe.Sizeof(HalfEdge{}); n != 12 {
		t.Fatalf("HalfEdge is %d bytes, want 12", n)
	}
	if e := MakeHalfEdge(1<<40|7, 3); e.Nbr() != 1<<40|7 || e.W != 3 {
		t.Fatalf("MakeHalfEdge round trip: %+v", e)
	}
	// The vertex header's hidden count fits in what was padding.
	if n := unsafe.Sizeof(adjacency{}); n != 40 {
		t.Fatalf("adjacency header is %d bytes, want 40", n)
	}
}

func TestDeleteEdge(t *testing.T) {
	for _, smallCap := range []int{2, 64} {
		s := NewStore(smallCap)
		for i := VertexID(1); i <= 8; i++ {
			s.AddEdge(0, i, 1, 0)
		}
		if !s.DeleteEdge(0, 4) {
			t.Fatal("DeleteEdge(0,4) failed")
		}
		if s.DeleteEdge(0, 4) {
			t.Fatal("double delete succeeded")
		}
		if s.DeleteEdge(99, 1) {
			t.Fatal("delete from unknown vertex succeeded")
		}
		if s.HasEdge(0, 4) {
			t.Fatal("edge still present")
		}
		if s.NumEdges() != 7 {
			t.Fatalf("NumEdges = %d", s.NumEdges())
		}
		slot, _ := s.SlotOf(0)
		if s.Degree(slot) != 7 {
			t.Fatalf("degree = %d", s.Degree(slot))
		}
	}
}

func TestForEachVertex(t *testing.T) {
	s := NewStore(0)
	for _, v := range []VertexID{10, 20, 30} {
		s.EnsureVertex(v)
	}
	var ids []VertexID
	s.ForEachVertex(func(slot Slot, id VertexID) bool {
		if s.IDOf(slot) != id {
			t.Fatalf("slot %d id mismatch", slot)
		}
		ids = append(ids, id)
		return true
	})
	if len(ids) != 3 || ids[0] != 10 || ids[1] != 20 || ids[2] != 30 {
		t.Fatalf("ForEachVertex order = %v (slot order expected)", ids)
	}
}

func TestComputeStats(t *testing.T) {
	s := NewStore(2)
	s.EnsureVertex(100) // singleton
	for i := VertexID(1); i <= 5; i++ {
		s.AddEdge(0, i, 1, 0)
	}
	st := s.ComputeStats()
	// Only explicitly-ensured vertices and edge sources materialize:
	// vertex 100 (singleton) and vertex 0 (degree 5, promoted past cap 2).
	if st.Vertices != 2 || st.Edges != 5 || st.MaxDegree != 5 || st.Promoted != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Singletons != 1 {
		t.Fatalf("singletons = %d", st.Singletons)
	}
}

// Model check: random add/delete/query sequence against map-of-maps.
func TestStoreModelCheck(t *testing.T) {
	s := NewStore(3) // tiny cap exercises promotions heavily
	model := map[VertexID]map[VertexID]Weight{}
	rng := rand.New(rand.NewSource(11))
	var edgeCount uint64
	for op := 0; op < 100000; op++ {
		src := VertexID(rng.Intn(50))
		dst := VertexID(rng.Intn(50))
		switch rng.Intn(4) {
		case 0, 1: // add
			w := Weight(rng.Intn(100) + 1)
			_, _, isNew := s.AddEdge(src, dst, w, 0)
			if model[src] == nil {
				model[src] = map[VertexID]Weight{}
			}
			old, existed := model[src][dst]
			if isNew == existed {
				t.Fatalf("op %d: isNew=%v existed=%v", op, isNew, existed)
			}
			if !existed {
				model[src][dst] = w
				edgeCount++
			} else if w < old {
				model[src][dst] = w
			}
		case 2: // delete
			got := s.DeleteEdge(src, dst)
			_, want := model[src][dst]
			if got != want {
				t.Fatalf("op %d: DeleteEdge = %v want %v", op, got, want)
			}
			if want {
				delete(model[src], dst)
				edgeCount--
			}
		case 3: // query
			slot, ok := s.SlotOf(src)
			if !ok {
				if len(model[src]) != 0 {
					t.Fatalf("op %d: vertex %d missing", op, src)
				}
				continue
			}
			w, ok := s.EdgeWeight(slot, dst)
			want, wok := model[src][dst]
			if ok != wok || (ok && w != want) {
				t.Fatalf("op %d: weight(%d,%d) = %d,%v want %d,%v", op, src, dst, w, ok, want, wok)
			}
		}
		if s.NumEdges() != edgeCount {
			t.Fatalf("op %d: NumEdges = %d want %d", op, s.NumEdges(), edgeCount)
		}
	}
}

// Property: any batch of edges is fully retrievable via Neighbors.
func TestQuickNeighborsComplete(t *testing.T) {
	f := func(pairs []struct{ S, D uint8 }) bool {
		s := NewStore(4)
		model := map[VertexID]map[VertexID]bool{}
		for _, p := range pairs {
			src, dst := VertexID(p.S), VertexID(p.D)
			s.AddEdge(src, dst, 1, 0)
			if model[src] == nil {
				model[src] = map[VertexID]bool{}
			}
			model[src][dst] = true
		}
		for src, nbrs := range model {
			slot, ok := s.SlotOf(src)
			if !ok {
				return false
			}
			seen := map[VertexID]bool{}
			s.Neighbors(slot, func(n VertexID, _ Weight) bool {
				seen[n] = true
				return true
			})
			if len(seen) != len(nbrs) {
				return false
			}
			for n := range nbrs {
				if !seen[n] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAddEdgeSequential(b *testing.B) {
	s := NewStore(0)
	for i := 0; i < b.N; i++ {
		s.AddEdge(VertexID(i%100000), VertexID((i*7)%100000), 1, 0)
	}
}

func BenchmarkNeighborsHighDegree(b *testing.B) {
	s := NewStore(0)
	for i := VertexID(1); i <= 10000; i++ {
		s.AddEdge(0, i, 1, 0)
	}
	slot, _ := s.SlotOf(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cnt := 0
		s.Neighbors(slot, func(VertexID, Weight) bool { cnt++; return true })
	}
}
