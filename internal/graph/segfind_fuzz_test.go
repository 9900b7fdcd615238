package graph

import (
	"encoding/binary"
	"testing"

	"incregraph/internal/rhh"
)

// unmix inverts rhh.Hash64: the ID whose hash is k. Each xorshift step of
// the mix is undone by re-applying the shift until it covers all 64 bits,
// and each odd multiplier by its inverse mod 2^64.
func unmix(k uint64) uint64 {
	k = unshift(k, 31)
	k *= inverseOdd(0x94d049bb133111eb)
	k = unshift(k, 27)
	k *= inverseOdd(0xbf58476d1ce4e5b9)
	return unshift(k, 30)
}

// unshift inverts y = x ^ x>>s.
func unshift(y uint64, s uint) uint64 {
	x := y
	for i := s; i < 64; i += s {
		x = y ^ x>>s
	}
	return x
}

// inverseOdd returns the inverse of an odd c mod 2^64 (Newton's iteration;
// each step doubles the number of correct low bits).
func inverseOdd(c uint64) uint64 {
	inv := c
	for range 5 {
		inv *= 2 - c*inv
	}
	return inv
}

func TestUnmixInvertsKey(t *testing.T) {
	for _, v := range []uint64{0, 1, 2, 1 << 40, ^uint64(0), 0x0123456789abcdef} {
		if got := unmix(rhh.Hash64(v)); got != v {
			t.Fatalf("unmix(Hash64(%#x)) = %#x", v, got)
		}
	}
	if rhh.Hash64(unmix(^uint64(0))) != ^uint64(0) {
		t.Fatal("unmix(2^64-1) does not hash to 2^64-1")
	}
}

// segFindCap is the index threshold FuzzSegFind's store uses: a segment of
// 16 neighbours is scanned, one of 17 is indexed.
const segFindCap = 16

// FuzzSegFind appends arbitrary IDs to one vertex's segment — raw gives
// 8 bytes per ID, and n more follow base, base+stride, ..., either as IDs
// or, with clustered, as hashes inverted to IDs — and checks adjacency.find
// against a linear scan for every present ID and for absent IDs next to
// each one in hash order and in ID order. Consecutive hashes share a home
// group in the position index, so clustered IDs drive long probe chains.
func FuzzSegFind(f *testing.F) {
	id := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
	f.Add(id(0), uint16(0), uint64(0), uint64(0), false)                 // Nbr 0, hash 0
	f.Add(id(unmix(^uint64(0))), uint16(0), uint64(0), uint64(0), false) // hash 2^64-1
	f.Add([]byte{}, uint16(0), uint64(0), uint64(0), false)              // empty segment
	for _, n := range []uint16{1, 16, 17, 4096} {
		f.Add([]byte{}, n, uint64(1), uint64(1), false)
		f.Add(id(0), n, uint64(7), uint64(0x9e3779b97f4a7c15), false)
	}
	// Consecutive hashes: one tight cluster at the bottom, the middle and
	// the top of the hash range.
	for _, base := range []uint64{0, 1 << 63, ^uint64(0) - 4096} {
		f.Add([]byte{}, uint16(4096), base, uint64(1), true)
		f.Add(id(unmix(1<<62)), uint16(17), base, uint64(1), true)
	}
	f.Fuzz(func(t *testing.T, raw []byte, n uint16, base, stride uint64, clustered bool) {
		ids := make([]uint64, 0, len(raw)/8+int(n))
		for ; len(raw) >= 8; raw = raw[8:] {
			ids = append(ids, binary.LittleEndian.Uint64(raw))
		}
		for i := range uint64(n) {
			v := base + i*stride
			if clustered {
				v = unmix(v)
			}
			ids = append(ids, v)
		}
		s := NewStore(segFindCap)
		s.EnsureVertex(0)
		for _, v := range ids {
			s.AddEdge(0, VertexID(v), 1, 0)
		}
		slot, _ := s.SlotOf(0)
		a := &s.adj[slot]
		// A segment keeps each distinct ID once, at its first arrival.
		arrival := make(map[VertexID]int, len(ids))
		for _, v := range ids {
			if _, ok := arrival[VertexID(v)]; !ok {
				arrival[VertexID(v)] = len(arrival)
			}
		}
		if len(a.edges) != len(arrival) || (a.index != nil) != (len(a.edges) > segFindCap) {
			t.Fatalf("segment holds %d entries (indexed %v), want %d distinct IDs",
				len(a.edges), a.index != nil, len(arrival))
		}
		// A linear scan's answer for every present ID, taken once.
		scan := make(map[VertexID]int, len(a.edges))
		for i := range a.edges {
			if want := arrival[a.edges[i].Nbr]; want != i {
				t.Fatalf("ID %#x at position %d, arrived %d", a.edges[i].Nbr, i, want)
			}
			scan[a.edges[i].Nbr] = i
		}
		if err := s.CheckIndex(); err != nil {
			t.Fatal(err)
		}
		check := func(q uint64) {
			want, ok := scan[VertexID(q)]
			if !ok {
				want = -1
			}
			if got := a.find(VertexID(q)); got != want {
				t.Fatalf("find(%#x) in a segment of %d = %d, want %d", q, len(a.edges), got, want)
			}
		}
		check(0)
		check(unmix(^uint64(0)))
		for _, v := range ids {
			k := rhh.Hash64(v)
			check(v)
			check(unmix(k - 1))
			check(unmix(k + 1))
			check(v + 1)
		}
	})
}
