package rhh

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEmptyMap(t *testing.T) {
	var m Map[int]
	if m.Len() != 0 {
		t.Fatalf("Len = %d, want 0", m.Len())
	}
	if _, ok := m.Get(42); ok {
		t.Fatal("Get on empty map returned ok")
	}
	if m.Delete(42) {
		t.Fatal("Delete on empty map returned true")
	}
	if _, ok := m.Get(0); ok {
		t.Fatal("Get(0) on empty map returned ok")
	}
	if meanProbeDistance(&m) != 0 {
		t.Fatal("mean probe distance of an empty map should be 0")
	}
}

func TestPutGet(t *testing.T) {
	var m Map[string]
	m.Put(1, "one")
	m.Put(2, "two")
	m.Put(3, "three")
	for k, want := range map[uint64]string{1: "one", 2: "two", 3: "three"} {
		got, ok := m.Get(k)
		if !ok || got != want {
			t.Fatalf("Get(%d) = %q,%v want %q,true", k, got, ok, want)
		}
	}
	if _, ok := m.Get(4); ok {
		t.Fatal("Get(4) should miss")
	}
}

func TestPutReplace(t *testing.T) {
	var m Map[int]
	m.Put(7, 1)
	m.Put(7, 2)
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
	if v, _ := m.Get(7); v != 2 {
		t.Fatalf("Get(7) = %d, want 2", v)
	}
}

func TestZeroKey(t *testing.T) {
	var m Map[int]
	m.Put(0, 99)
	if v, ok := m.Get(0); !ok || v != 99 {
		t.Fatalf("Get(0) = %d,%v", v, ok)
	}
	if !m.Delete(0) {
		t.Fatal("Delete(0) failed")
	}
	if _, ok := m.Get(0); ok {
		t.Fatal("key 0 still present after delete")
	}
}

func TestDeleteBackwardShift(t *testing.T) {
	var m Map[int]
	const n = 1000
	for i := uint64(0); i < n; i++ {
		m.Put(i, int(i))
	}
	// Delete every third key, then verify the rest are intact.
	for i := uint64(0); i < n; i += 3 {
		if !m.Delete(i) {
			t.Fatalf("Delete(%d) failed", i)
		}
	}
	for i := uint64(0); i < n; i++ {
		v, ok := m.Get(i)
		if i%3 == 0 {
			if ok {
				t.Fatalf("key %d should be deleted", i)
			}
		} else if !ok || v != int(i) {
			t.Fatalf("Get(%d) = %d,%v after deletes", i, v, ok)
		}
	}
	if want := n - (n+2)/3; m.Len() != want {
		t.Fatalf("Len = %d, want %d", m.Len(), want)
	}
}

func TestPtr(t *testing.T) {
	var m Map[int]
	m.Put(5, 10)
	p := m.Ptr(5)
	if p == nil {
		t.Fatal("Ptr(5) = nil")
	}
	*p = 20
	if v, _ := m.Get(5); v != 20 {
		t.Fatalf("Get(5) = %d after Ptr write, want 20", v)
	}
	if m.Ptr(6) != nil {
		t.Fatal("Ptr(6) should be nil")
	}
}

// TestPeek pins the read-ahead hint: it reads the key's home bucket and
// changes nothing, on an empty map too.
func TestPeek(t *testing.T) {
	var m Map[int]
	if got := m.Peek(7); got != 0 {
		t.Fatalf("Peek on empty map = %d, want 0", got)
	}
	m.Put(7, 70)
	if got := m.Peek(7); got != 7 {
		t.Fatalf("Peek(7) = %d, want 7 (the only key sits in its home bucket)", got)
	}
	m.Peek(8)
	if v, ok := m.Get(7); m.Len() != 1 || !ok || v != 70 {
		t.Fatalf("after Peek: Len=%d Get(7)=%d,%v", m.Len(), v, ok)
	}
}

func TestRangeAndKeys(t *testing.T) {
	var m Map[int]
	want := map[uint64]int{10: 1, 20: 2, 30: 3}
	for k, v := range want {
		m.Put(k, v)
	}
	got := map[uint64]int{}
	m.Range(func(k uint64, v int) bool {
		got[k] = v
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Range visited %d entries, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("Range got[%d] = %d, want %d", k, got[k], v)
		}
	}
	if len(m.Keys()) != 3 {
		t.Fatalf("Keys len = %d, want 3", len(m.Keys()))
	}
	// Early stop.
	count := 0
	m.Range(func(uint64, int) bool { count++; return false })
	if count != 1 {
		t.Fatalf("Range early-stop visited %d, want 1", count)
	}
}

func TestReserve(t *testing.T) {
	var m Map[int]
	m.Reserve(10000)
	capBefore := m.Cap()
	for i := uint64(0); i < 8000; i++ {
		m.Put(i, int(i))
	}
	if m.Cap() != capBefore {
		t.Fatalf("map grew (%d -> %d) despite Reserve", capBefore, m.Cap())
	}
	for i := uint64(0); i < 8000; i++ {
		if v, ok := m.Get(i); !ok || v != int(i) {
			t.Fatalf("Get(%d) after Reserve = %d,%v", i, v, ok)
		}
	}
	// Reserve on a populated map keeps entries.
	m.Reserve(100000)
	if m.Len() != 8000 {
		t.Fatalf("Len after second Reserve = %d", m.Len())
	}
}

func TestGrowthKeepsEntries(t *testing.T) {
	var m Map[uint64]
	const n = 50000
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64()
		m.Put(keys[i], keys[i]*2)
	}
	for _, k := range keys {
		if v, ok := m.Get(k); !ok || v != k*2 {
			t.Fatalf("Get(%d) = %d,%v", k, v, ok)
		}
	}
}

// meanProbeDistance returns the average probe distance of m's live
// entries — the quantity Robin Hood hashing minimizes the variance of —
// or 0 for an empty map.
func meanProbeDistance[V any](m *Map[V]) float64 {
	if m.n == 0 {
		return 0
	}
	sum := 0
	for i := range m.buckets {
		sum += int(m.buckets[i].dist)
	}
	return float64(sum) / float64(m.n)
}

func TestMeanProbeDistanceBounded(t *testing.T) {
	var m Map[int]
	for i := uint64(0); i < 100000; i++ {
		m.Put(Hash64(i), int(i))
	}
	if d := meanProbeDistance(&m); d > 4 {
		t.Fatalf("mean probe distance %f too large — Robin Hood invariant broken?", d)
	}
}

// TestModelCheck drives the map with a random operation sequence and checks
// it against Go's builtin map as the model.
func TestModelCheck(t *testing.T) {
	var m Map[int]
	model := map[uint64]int{}
	rng := rand.New(rand.NewSource(7))
	const keySpace = 512 // small space forces collisions and re-insertion
	for op := 0; op < 200000; op++ {
		k := uint64(rng.Intn(keySpace))
		switch rng.Intn(3) {
		case 0:
			v := rng.Int()
			m.Put(k, v)
			model[k] = v
		case 1:
			got, ok := m.Get(k)
			want, wok := model[k]
			if ok != wok || (ok && got != want) {
				t.Fatalf("op %d: Get(%d) = %d,%v want %d,%v", op, k, got, ok, want, wok)
			}
		case 2:
			got := m.Delete(k)
			_, want := model[k]
			if got != want {
				t.Fatalf("op %d: Delete(%d) = %v want %v", op, k, got, want)
			}
			delete(model, k)
		}
		if m.Len() != len(model) {
			t.Fatalf("op %d: Len = %d, model %d", op, m.Len(), len(model))
		}
	}
	// Final sweep.
	for k, v := range model {
		if got, ok := m.Get(k); !ok || got != v {
			t.Fatalf("final: Get(%d) = %d,%v want %d,true", k, got, ok, v)
		}
	}
}

// Property: inserting any set of keys makes them all retrievable with the
// last-written value winning.
func TestQuickInsertRetrieve(t *testing.T) {
	f := func(keys []uint64) bool {
		var m Map[uint64]
		model := map[uint64]uint64{}
		for i, k := range keys {
			m.Put(k, uint64(i))
			model[k] = uint64(i)
		}
		if m.Len() != len(model) {
			return false
		}
		for k, v := range model {
			got, ok := m.Get(k)
			if !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: delete is the inverse of put for fresh keys.
func TestQuickPutDelete(t *testing.T) {
	f := func(keys []uint64) bool {
		var m Map[int]
		uniq := map[uint64]bool{}
		for _, k := range keys {
			m.Put(k, 1)
			uniq[k] = true
		}
		for k := range uniq {
			if !m.Delete(k) {
				return false
			}
		}
		return m.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHash64Distinct(t *testing.T) {
	seen := map[uint64]uint64{}
	for i := uint64(0); i < 100000; i++ {
		h := Hash64(i)
		if prev, dup := seen[h]; dup {
			t.Fatalf("Hash64 collision: %d and %d -> %d", prev, i, h)
		}
		seen[h] = i
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1023: 1024, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Fatalf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func BenchmarkPut(b *testing.B) {
	var m Map[uint64]
	for i := 0; i < b.N; i++ {
		m.Put(Hash64(uint64(i)), uint64(i))
	}
}

func BenchmarkGetHit(b *testing.B) {
	var m Map[uint64]
	const n = 1 << 16
	for i := uint64(0); i < n; i++ {
		m.Put(i, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Get(uint64(i) & (n - 1))
	}
}

func BenchmarkGetMiss(b *testing.B) {
	var m Map[uint64]
	const n = 1 << 16
	for i := uint64(0); i < n; i++ {
		m.Put(i, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Get(uint64(i) | (1 << 40))
	}
}
