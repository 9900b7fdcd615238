package graph

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestVertexTableModelCheck drives EnsureVertex and SlotOf with ids from a
// small space against a map model: an existing id keeps its slot, a new
// one gets the next slot in arrival order, and the table holds exactly
// the store's vertices after every growth.
func TestVertexTableModelCheck(t *testing.T) {
	s := NewStore(0)
	model := map[VertexID]Slot{}
	rng := rand.New(rand.NewSource(3))
	grown := 0
	for op := 0; op < 200000; op++ {
		v := VertexID(rng.Intn(5000))
		want, known := model[v]
		if rng.Intn(2) == 0 {
			if slot, ok := s.SlotOf(v); ok != known || (ok && slot != want) {
				t.Fatalf("op %d: SlotOf(%d) = %d,%v, model %d,%v", op, v, slot, ok, want, known)
			}
			continue
		}
		before := s.Table()
		slot, created := s.EnsureVertex(v)
		if !known {
			want = Slot(len(model))
			model[v] = want
		}
		if created == known || slot != want {
			t.Fatalf("op %d: EnsureVertex(%d) = %d,%v, model %d,%v", op, v, slot, created, want, !known)
		}
		if s.Table() != before {
			grown++
			if err := s.CheckIndex(); err != nil {
				t.Fatalf("op %d: after growth: %v", op, err)
			}
		}
	}
	if err := s.CheckIndex(); err != nil {
		t.Fatal(err)
	}
	if grown < 5 {
		t.Fatalf("table grew %d times; the check needs several rebuilds", grown)
	}
}

// TestVertexTableCheckCatchesSkippedInsert pins CheckIndex's vertex-table
// check: a vertex whose id was never entered is reported.
func TestVertexTableCheckCatchesSkippedInsert(t *testing.T) {
	s := NewStore(0)
	for v := VertexID(1); v <= 20; v++ {
		s.EnsureVertex(v)
	}
	if err := s.CheckIndex(); err != nil {
		t.Fatal(err)
	}
	s.ids = append(s.ids, 99)
	s.adj = append(s.adj, adjacency{})
	if s.CheckIndex() == nil {
		t.Fatal("CheckIndex accepted a vertex missing from the table")
	}
}

// TestVertexTableGrowthUnderReaders grows a store through several table
// rebuilds while reader goroutines probe tables captured at earlier
// lengths, the way serve segments do. In a table captured at length n,
// every id below n must resolve to its slot, and no id at or past n may
// come back with a slot below n. A rebuild that wrote into a table a
// reader holds would break the first rule.
func TestVertexTableGrowthUnderReaders(t *testing.T) {
	const (
		verts   = 1 << 14
		every   = 64 // inserts between captures
		readers = 2
	)
	id := func(i int) VertexID { return VertexID(uint64(i)*0x9e3779b97f4a7c15 + 1) }
	type capture struct {
		table *VertexTable
		n     int
	}
	var (
		latest atomic.Pointer[capture]
		done   atomic.Bool
		checks atomic.Int64
		wg     sync.WaitGroup
	)
	s := NewStore(0)
	latest.Store(&capture{s.Table(), 0})
	errs := make(chan string, readers)
	for r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			var held []*capture
			for !done.Load() {
				if c := latest.Load(); len(held) == 0 || held[len(held)-1] != c {
					held = append(held, c)
				}
				c := held[rng.Intn(len(held))]
				for range 16 {
					if c.n > 0 {
						i := rng.Intn(c.n)
						if slot, ok := c.table.Lookup(id(i)); !ok || slot != Slot(i) {
							errs <- "id below the captured length not at its slot"
							return
						}
					}
					j := c.n + rng.Intn(every)
					if slot, ok := c.table.Lookup(id(j)); ok && int(slot) < c.n {
						errs <- "id past the captured length resolved below it"
						return
					}
				}
				checks.Add(1)
			}
		}()
	}
	for i := range verts {
		s.EnsureVertex(id(i))
		if (i+1)%every == 0 {
			latest.Store(&capture{s.Table(), s.NumVertices()})
			// Let the readers probe this capture before the next one.
			for c := checks.Load(); checks.Load() == c && len(errs) == 0; {
				runtime.Gosched()
			}
		}
	}
	done.Store(true)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if err := s.CheckIndex(); err != nil {
		t.Fatal(err)
	}
}
