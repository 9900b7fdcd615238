package graph

import (
	"fmt"
	"sync/atomic"

	"incregraph/internal/rhh"
)

// VertexTable is a store's id -> slot index. The store's rank is its only
// writer; the serve plane's published segments probe it from any
// goroutine, without locks, while the rank keeps inserting.
//
// It is an insert-only linear-probing table: an entry is never moved or
// removed, so a probe ends at the first empty cell and never misses an
// entry that was complete when it began. Each cell holds the id and
// slot+1 side by side, so a probe step reads one cache line; slot+1 == 0
// marks an empty cell. The writer stores the id before the slot word and
// a reader loads the slot word first, so a reader that sees a slot also
// sees its id. An insert that would pass 3/4 load rebuilds the entries into
// a fresh table of twice the size, and the store never writes the old
// table again: a segment published with it keeps an exact index of the
// ids it held. Slots are the store's own, assigned in arrival order.
type VertexTable struct {
	mask  uint64
	used  int
	cells []vertexCell
}

type vertexCell struct {
	id   atomic.Uint64 // VertexID; valid once slot is non-zero
	slot atomic.Uint64 // slot+1; 0 = empty
}

// minVertexCells is a new store's table size.
const minVertexCells = 8

func newVertexTable(cells int) *VertexTable {
	return &VertexTable{mask: uint64(cells - 1), cells: make([]vertexCell, cells)}
}

// Lookup returns v's slot, or (NoSlot, false) if the table holds no entry
// for v. Safe concurrently with the store's inserts.
func (t *VertexTable) Lookup(v VertexID) (Slot, bool) {
	if _, s := t.probe(v); s != 0 {
		return Slot(s - 1), true
	}
	return NoSlot, false
}

// probe returns the cell holding v and its slot+1, or the empty cell
// where v belongs and 0.
func (t *VertexTable) probe(v VertexID) (i, slot uint64) {
	for i = rhh.Hash64(uint64(v)) & t.mask; ; i = (i + 1) & t.mask {
		c := &t.cells[i]
		if slot = c.slot.Load(); slot == 0 || c.id.Load() == uint64(v) {
			return i, slot
		}
	}
}

// insert stores v -> slot in the empty cell i (from probe) and returns
// the table to use from now on: t itself, or, when t is full, a fresh
// table of twice the size holding every entry. Store only.
func (t *VertexTable) insert(i uint64, v VertexID, slot Slot) *VertexTable {
	if t.used >= len(t.cells)-len(t.cells)/4 {
		bigger := newVertexTable(2 * len(t.cells))
		for j := range t.cells {
			if s := t.cells[j].slot.Load(); s != 0 {
				id := VertexID(t.cells[j].id.Load())
				k, _ := bigger.probe(id)
				bigger.insert(k, id, Slot(s-1))
			}
		}
		t = bigger
		i, _ = t.probe(v)
	}
	c := &t.cells[i]
	c.id.Store(uint64(v))
	c.slot.Store(uint64(slot) + 1)
	t.used++
	return t
}

// check reports an error unless the table holds exactly ids, with ids[i]
// at slot i.
func (t *VertexTable) check(ids []VertexID) error {
	n := 0
	for i := range t.cells {
		if t.cells[i].slot.Load() != 0 {
			n++
		}
	}
	if n != len(ids) || t.used != len(ids) {
		return fmt.Errorf("vertex table: %d entries (%d counted) for %d vertices", n, t.used, len(ids))
	}
	for i, id := range ids {
		if slot, ok := t.Lookup(id); !ok || slot != Slot(i) {
			return fmt.Errorf("vertex table: vertex %d at slot %d resolves to %d, %v", id, i, slot, ok)
		}
	}
	return nil
}
