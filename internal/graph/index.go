package graph

import (
	"fmt"
	"math/bits"

	"incregraph/internal/rhh"
)

// posIndex maps a high-degree vertex's neighbours to their positions in its
// edge array. It is a Swiss-style table that stores no keys: each slot
// holds a control byte and a position, and a candidate is confirmed by
// comparing the array entry at that position with the neighbour sought. A
// lookup therefore reads one group's control word and positions, then one
// array entry.
//
// Slots come in groups of eight. A group's control word packs one byte
// per slot: ctrlEmpty, ctrlDeleted (a tombstone), or the low 7 bits of the
// neighbour's rhh.Hash64 (its h2). A neighbour's home group is a fastrange
// reduction of the same hash, so the group count need not be a power of
// two; probing walks the groups in order from home until one holds an
// empty slot. Full plus deleted slots stay at or below 7/8 of the table,
// so every probe ends, and the table is rebuilt — from the edge array, the
// single source of truth — when an insert would pass that bound. A rebuild
// sizes the table for about 1.5× the live entries, so it grows ×1.5 on its
// own schedule, independent of the array's growth.
//
// Positions are uint16 (a 24-byte group) until the array passes 1<<16
// entries, then uint32 (40 bytes): the rebuild that crosses the limit
// moves the table from narrow to wide. Exactly one of the two is non-nil.
type posIndex struct {
	narrow []group[uint16]
	wide   []group[uint32]
	live   int // full slots: the vertex's degree
	used   int // full and deleted slots
}

// group is eight slots of a posIndex.
type group[P uint16 | uint32] struct {
	ctrl uint64
	pos  [groupSlots]P
}

const (
	groupSlots  = 8
	ctrlEmpty   = 0x80
	ctrlDeleted = 0xfe
	ctrlLSB     = 0x0101010101010101
	ctrlMSB     = 0x8080808080808080
	allEmpty    = ctrlEmpty * ctrlLSB
	// narrowLimit is the first position a uint16 cannot hold.
	narrowLimit = 1 << 16
)

// matchH2 returns a bit set with the high bit of every byte of ctrl equal
// to h2 (a value below 0x80). It may also flag a full byte just above a
// true match; the caller confirms every candidate against the edge array,
// so a false candidate costs one comparison. Empty and deleted bytes have
// their high bit set and never match.
func matchH2(ctrl, h2 uint64) uint64 {
	v := ctrl ^ (ctrlLSB * h2)
	return (v - ctrlLSB) &^ v & ctrlMSB
}

// matchEmpty flags the empty bytes of ctrl (0x80: high bit set, bit 1
// clear; a tombstone has bit 1 set).
func matchEmpty(ctrl uint64) uint64 { return ctrl &^ (ctrl << 6) & ctrlMSB }

// matchFree flags the empty and deleted bytes of ctrl.
func matchFree(ctrl uint64) uint64 { return ctrl & ctrlMSB }

// slotOf turns a match bit set's lowest flagged byte into a slot index.
func slotOf(m uint64) int { return bits.TrailingZeros64(m) >> 3 }

// home is the fastrange reduction of h onto n groups.
func home(h uint64, n int) int {
	hi, _ := bits.Mul64(h, uint64(n))
	return int(hi)
}

// groupsFor is the group count a rebuild gives n entries: n at a load of
// 7/12, so the table takes 1.5× its entries before the 7/8 bound.
func groupsFor(n int) int { return max(1, (n*12/7+groupSlots-1)/groupSlots) }

// newPosIndex builds the index of edges.
func newPosIndex(edges []HalfEdge) *posIndex {
	x := &posIndex{}
	x.rebuild(edges)
	return x
}

// rebuild refills the table from edges, sized by groupsFor and wide if
// a position reaches narrowLimit. Tombstones vanish.
func (x *posIndex) rebuild(edges []HalfEdge) {
	n, ng := len(edges), groupsFor(len(edges))
	if n > narrowLimit {
		x.narrow, x.wide = nil, make([]group[uint32], ng)
	} else {
		x.narrow, x.wide = make([]group[uint16], ng), nil
	}
	for g := range ng {
		*x.word(g) = allEmpty
	}
	for p := range edges {
		h := rhh.Hash64(uint64(edges[p].Nbr))
		g := home(h, ng)
		for matchEmpty(*x.word(g)) == 0 {
			g = next(g, ng)
		}
		x.set(g*groupSlots+slotOf(matchEmpty(*x.word(g))), h&0x7f, p)
	}
	x.live, x.used = n, n
}

func next(g, n int) int {
	if g++; g == n {
		return 0
	}
	return g
}

// probe looks nbr (hash h) up: slot is its global slot index (group*8 +
// slot in group), or -1 when absent, in which case free is the first
// empty or deleted slot on its probe path, where an insert belongs.
func probe[P uint16 | uint32](gs []group[P], edges []HalfEdge, nbr VertexID, h uint64) (slot, free int) {
	n, h2 := len(gs), h&0x7f
	free = -1
	for g := home(h, n); ; g = next(g, n) {
		gr := &gs[g]
		for m := matchH2(gr.ctrl, h2); m != 0; m &= m - 1 {
			i := slotOf(m)
			if edges[gr.pos[i]].Nbr == nbr {
				return g*groupSlots + i, -1
			}
		}
		if free < 0 {
			if m := matchFree(gr.ctrl); m != 0 {
				free = g*groupSlots + slotOf(m)
			}
		}
		if matchEmpty(gr.ctrl) != 0 {
			return -1, free
		}
	}
}

// lookup returns nbr's slot, or -1 and the slot an insert would fill.
func (x *posIndex) lookup(edges []HalfEdge, nbr VertexID, h uint64) (slot, free int) {
	if x.wide != nil {
		return probe(x.wide, edges, nbr, h)
	}
	return probe(x.narrow, edges, nbr, h)
}

// word returns group g's control word.
func (x *posIndex) word(g int) *uint64 {
	if x.wide != nil {
		return &x.wide[g].ctrl
	}
	return &x.narrow[g].ctrl
}

// ctrl returns slot's control byte.
func (x *posIndex) ctrl(slot int) uint64 {
	return *x.word(slot / groupSlots) >> (uint(slot%groupSlots) * 8) & 0xff
}

// setCtrl writes slot's control byte.
func (x *posIndex) setCtrl(slot int, b uint64) {
	c, sh := x.word(slot/groupSlots), uint(slot%groupSlots)*8
	*c = *c&^(0xff<<sh) | b<<sh
}

// pos returns the position a full slot holds.
func (x *posIndex) pos(slot int) int {
	if x.wide != nil {
		return int(x.wide[slot/groupSlots].pos[slot%groupSlots])
	}
	return int(x.narrow[slot/groupSlots].pos[slot%groupSlots])
}

// setPos rewrites the position a full slot holds (a delete moved its
// entry).
func (x *posIndex) setPos(slot, p int) {
	if x.wide != nil {
		x.wide[slot/groupSlots].pos[slot%groupSlots] = uint32(p)
	} else {
		x.narrow[slot/groupSlots].pos[slot%groupSlots] = uint16(p)
	}
}

// set makes slot full with tag h2 and position p.
func (x *posIndex) set(slot int, h2 uint64, p int) {
	x.setCtrl(slot, h2)
	x.setPos(slot, p)
}

// insert records that nbr (hash h), absent, now sits at position p, the
// array's last, in free, the slot lookup returned. When that would take
// the table past 7/8 full, or p past narrowLimit, it rebuilds from edges
// instead, which already holds the entry.
func (x *posIndex) insert(edges []HalfEdge, free int, h uint64, p int) {
	reuse := x.ctrl(free) == ctrlDeleted
	if !reuse && (x.used+1)*8 > x.slots()*7 || p >= narrowLimit && x.wide == nil {
		x.rebuild(edges)
		return
	}
	x.set(free, h&0x7f, p)
	x.live++
	if !reuse {
		x.used++
	}
}

// remove frees a full slot. A group that still has an empty slot ended
// every probe that reached it, so no entry lies past it on a probe path
// and the slot can go back to empty; otherwise it becomes a tombstone.
func (x *posIndex) remove(slot int) {
	b := uint64(ctrlDeleted)
	if matchEmpty(*x.word(slot / groupSlots)) != 0 {
		b = ctrlEmpty
		x.used--
	}
	x.setCtrl(slot, b)
	x.live--
}

// slots is the table's slot count.
func (x *posIndex) slots() int { return groupSlots * (len(x.narrow) + len(x.wide)) }

// peek reads nbr's home group, where its lookup starts.
func (x *posIndex) peek(nbr VertexID) uint64 {
	return *x.word(home(rhh.Hash64(uint64(nbr)), x.slots()/groupSlots))
}

// check reports the first disagreement between the table and edges: every
// entry must be found at its own position, the live count must equal the
// array's length, and the used count must match the table's full and
// deleted slots.
func (x *posIndex) check(edges []HalfEdge) error {
	if x.live != len(edges) {
		return fmt.Errorf("index holds %d live entries, array %d", x.live, len(edges))
	}
	if (x.wide == nil) == (x.narrow == nil) {
		return fmt.Errorf("index is both or neither narrow and wide")
	}
	if x.wide == nil && len(edges) > narrowLimit {
		return fmt.Errorf("narrow index over %d entries", len(edges))
	}
	full, used := 0, 0
	for s := range x.slots() {
		switch c := x.ctrl(s); {
		case c == ctrlDeleted:
			used++
		case c < ctrlEmpty:
			full++
			used++
		}
	}
	if full != x.live || used != x.used || used*8 > x.slots()*7 {
		return fmt.Errorf("index counts %d live, %d used of %d slots; slots hold %d full, %d used",
			x.live, x.used, x.slots(), full, used)
	}
	for p := range edges {
		slot, _ := x.lookup(edges, edges[p].Nbr, rhh.Hash64(uint64(edges[p].Nbr)))
		if slot < 0 || x.pos(slot) != p {
			return fmt.Errorf("entry %d (nbr %d) indexed at slot %d", p, edges[p].Nbr, slot)
		}
	}
	return nil
}
