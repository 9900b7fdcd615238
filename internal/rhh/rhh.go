// Package rhh holds Hash64, the 64-bit mixer every hash in the engine
// uses (the partitioner's owner function, the store's vertex table and
// position indexes, CC labels), and Map, an open-addressing hash map with
// Robin Hood hashing and backward-shift deletion, keyed by uint64.
//
// Map mirrors the role Robin Hood hashing plays in DegAwareRHH (Iwabuchi
// et al., GABB 2016), the data structure the paper builds its prototype
// on: it bounds the variance of probe distances. The engine no longer
// stores anything in it: the store's vertex table (graph.VertexTable) is
// insert-only linear probing, which the serve plane's readers can probe
// while the rank inserts. Only the benchmark's rhh probe still measures
// Map.
//
// The map is NOT safe for concurrent use.
package rhh

import "math/bits"

const (
	// maxLoadNum/maxLoadDen is the load factor at which the table grows.
	// Robin Hood hashing stays efficient at high load; 0.85 trades memory
	// for probe length.
	maxLoadNum = 85
	maxLoadDen = 100

	// minCapacity is the smallest bucket-array size allocated.
	minCapacity = 8
)

// Map is a Robin Hood hash map from uint64 keys to values of type V.
// The zero value is ready to use.
type Map[V any] struct {
	buckets []bucket[V]
	n       int // number of live entries
	mask    uint64
}

type bucket[V any] struct {
	key  uint64
	val  V
	dist int16 // probe distance + 1; 0 means empty
}

// maxDist is the largest representable probe distance. Tables resize long
// before probe chains approach this, but a guard keeps overflow impossible.
const maxDist = 1 << 14

// Hash64 mixes a 64-bit key (SplitMix64 finalizer). Exported so callers
// (e.g. the partitioner) can share the exact hash used by the map.
func Hash64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Len returns the number of entries in the map.
func (m *Map[V]) Len() int { return m.n }

// Cap returns the current bucket-array size (0 for an untouched map).
func (m *Map[V]) Cap() int { return len(m.buckets) }

func (m *Map[V]) grow() {
	newCap := len(m.buckets) * 2
	if newCap < minCapacity {
		newCap = minCapacity
	}
	old := m.buckets
	m.buckets = make([]bucket[V], newCap)
	m.mask = uint64(newCap - 1)
	m.n = 0
	for i := range old {
		if old[i].dist != 0 {
			m.Put(old[i].key, old[i].val)
		}
	}
}

// Put inserts or replaces the value for key.
func (m *Map[V]) Put(key uint64, val V) {
	if len(m.buckets) == 0 || (m.n+1)*maxLoadDen > len(m.buckets)*maxLoadNum {
		m.grow()
	}
	idx := Hash64(key) & m.mask
	cur := bucket[V]{key: key, val: val, dist: 1}
	for {
		b := &m.buckets[idx]
		if b.dist == 0 {
			*b = cur
			m.n++
			return
		}
		if b.key == cur.key && b.dist == cur.dist {
			b.val = cur.val
			return
		}
		// Robin Hood: the richer entry (smaller probe distance) yields
		// its slot to the poorer one.
		if b.dist < cur.dist {
			*b, cur = cur, *b
		}
		cur.dist++
		if cur.dist > maxDist {
			// Pathological clustering; force a grow and restart.
			m.grow()
			m.Put(cur.key, cur.val)
			return
		}
		idx = (idx + 1) & m.mask
	}
}

// Get returns the value for key and whether it was present.
func (m *Map[V]) Get(key uint64) (V, bool) {
	var zero V
	if m.n == 0 {
		return zero, false
	}
	idx := Hash64(key) & m.mask
	dist := int16(1)
	for {
		b := &m.buckets[idx]
		if b.dist == 0 || b.dist < dist {
			// An entry with this key would have displaced b.
			return zero, false
		}
		if b.key == key && b.dist == dist {
			return b.val, true
		}
		idx = (idx + 1) & m.mask
		dist++
		if dist > maxDist {
			return zero, false
		}
	}
}

// Peek loads key's home bucket and returns its stored key, changing
// nothing. It is a read-ahead hint: touching the bucket some time before a
// Get or Put of key lets the miss on it overlap other work. The
// result means nothing; a caller keeps it only so the load is not dropped.
func (m *Map[V]) Peek(key uint64) uint64 {
	if len(m.buckets) == 0 {
		return 0
	}
	return m.buckets[Hash64(key)&m.mask].key
}

// Ptr returns a pointer to the value stored for key, or nil if absent.
// The pointer is invalidated by the next Put or Delete.
func (m *Map[V]) Ptr(key uint64) *V {
	if m.n == 0 {
		return nil
	}
	idx := Hash64(key) & m.mask
	dist := int16(1)
	for {
		b := &m.buckets[idx]
		if b.dist == 0 || b.dist < dist {
			return nil
		}
		if b.key == key && b.dist == dist {
			return &b.val
		}
		idx = (idx + 1) & m.mask
		dist++
		if dist > maxDist {
			return nil
		}
	}
}

// Delete removes key, reporting whether it was present. Removal uses
// backward-shift deletion (no tombstones), preserving Robin Hood invariants.
func (m *Map[V]) Delete(key uint64) bool {
	if m.n == 0 {
		return false
	}
	idx := Hash64(key) & m.mask
	dist := int16(1)
	for {
		b := &m.buckets[idx]
		if b.dist == 0 || b.dist < dist {
			return false
		}
		if b.key == key && b.dist == dist {
			break
		}
		idx = (idx + 1) & m.mask
		dist++
		if dist > maxDist {
			return false
		}
	}
	// Backward shift: pull subsequent entries one slot back until an empty
	// slot or an entry already at its home position.
	for {
		next := (idx + 1) & m.mask
		nb := &m.buckets[next]
		if nb.dist <= 1 {
			m.buckets[idx] = bucket[V]{}
			break
		}
		m.buckets[idx] = *nb
		m.buckets[idx].dist--
		idx = next
	}
	m.n--
	return true
}

// Range calls fn for every entry; iteration stops if fn returns false.
// The iteration order is unspecified. fn must not mutate the map.
func (m *Map[V]) Range(fn func(key uint64, val V) bool) {
	for i := range m.buckets {
		if m.buckets[i].dist != 0 {
			if !fn(m.buckets[i].key, m.buckets[i].val) {
				return
			}
		}
	}
}

// Keys returns all keys in unspecified order.
func (m *Map[V]) Keys() []uint64 {
	out := make([]uint64, 0, m.n)
	m.Range(func(k uint64, _ V) bool { out = append(out, k); return true })
	return out
}

// Reserve grows the table so that at least n entries fit without resizing.
func (m *Map[V]) Reserve(n int) {
	need := n * maxLoadDen / maxLoadNum
	capNeeded := minCapacity
	for capNeeded < need {
		capNeeded *= 2
	}
	if capNeeded <= len(m.buckets) {
		return
	}
	old := m.buckets
	m.buckets = make([]bucket[V], capNeeded)
	m.mask = uint64(capNeeded - 1)
	m.n = 0
	for i := range old {
		if old[i].dist != 0 {
			m.Put(old[i].key, old[i].val)
		}
	}
}

// NextPow2 returns the smallest power of two >= n (and >= 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << (64 - bits.LeadingZeros64(uint64(n-1)))
}
