package graph

import (
	"cmp"
	"encoding/binary"
	"slices"
	"testing"
)

// unmix inverts nbrKey: the ID whose key is k. Each xorshift step of the
// mix is undone by re-applying the shift until it covers all 64 bits, and
// each odd multiplier by its inverse mod 2^64.
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
		if got := unmix(nbrKey(VertexID(v))); got != v {
			t.Fatalf("unmix(nbrKey(%#x)) = %#x", v, got)
		}
	}
	if nbrKey(VertexID(unmix(^uint64(0)))) != ^uint64(0) {
		t.Fatal("unmix(2^64-1) does not key to 2^64-1")
	}
}

// FuzzSegFind builds a key-sorted prefix from arbitrary IDs — raw gives
// 8 bytes per ID, and n more follow base, base+stride, ..., either as IDs
// or, with clustered, as keys inverted to IDs — and checks segFind against
// a linear scan for every present ID and for absent IDs next to each one
// in key order and in ID order. Clustered keys defeat interpolation, so
// they drive the binary-search fallback.
func FuzzSegFind(f *testing.F) {
	id := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
	f.Add(id(0), uint16(0), uint64(0), uint64(0), false)                 // Nbr 0, key 0
	f.Add(id(unmix(^uint64(0))), uint16(0), uint64(0), uint64(0), false) // key 2^64-1
	f.Add([]byte{}, uint16(0), uint64(0), uint64(0), false)              // empty prefix
	for _, n := range []uint16{1, 16, 17, 4096} {
		f.Add([]byte{}, n, uint64(1), uint64(1), false)
		f.Add(id(0), n, uint64(7), uint64(0x9e3779b97f4a7c15), false)
	}
	// Consecutive keys: one tight cluster at the bottom, the middle and
	// the top of the key range.
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
		slices.SortFunc(ids, func(x, y uint64) int { return cmp.Compare(nbrKey(VertexID(x)), nbrKey(VertexID(y))) })
		ids = slices.Compact(ids)
		seg := make([]HalfEdge, len(ids))
		for i, v := range ids {
			seg[i].Nbr = VertexID(v)
		}
		// A linear scan's answer for every present ID, taken once.
		scan := make(map[VertexID]int, len(seg))
		for i := range seg {
			scan[seg[i].Nbr] = i
		}
		check := func(q uint64) {
			want, ok := scan[VertexID(q)]
			if !ok {
				want = -1
			}
			if got := segFind(seg, VertexID(q)); got != want {
				t.Fatalf("segFind(%#x) in a prefix of %d = %d, want %d", q, len(seg), got, want)
			}
		}
		check(0)
		check(unmix(^uint64(0)))
		for _, v := range ids {
			k := nbrKey(VertexID(v))
			check(v)
			check(unmix(k - 1))
			check(unmix(k + 1))
			check(v + 1)
		}
	})
}
