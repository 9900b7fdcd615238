package graph

// The probes below are what the benchmark harness (bench/cmd/igbench)
// still compiles against from the hybrid sorted-prefix tier this package
// no longer has. Every one is a no-op or reads zero; the layout is the one
// in store.go and index.go. The facade's incregraph.Config.NoHybrid is
// kept for the same reason and ignored. A follow-up [benchmark] change
// deletes the graph.* hybrid probes and the tax.no_hybrid.* rows from the
// harness, and then this file.

// DefaultCompactCap is kept for the benchmark harness; nothing reads it.
const DefaultCompactCap = 16

// EnableHybrid does nothing: there is one layout.
func (s *Store) EnableHybrid(int) {}

// CompactNext reports an empty queue: there is nothing to compact.
func (s *Store) CompactNext() (slot Slot, compacted, ok bool) { return NoSlot, false, false }

// CompactAll does nothing: there is nothing to compact.
func (s *Store) CompactAll() {}

// HybridStats is the counter view of the removed tier; it reads zero.
type HybridStats struct {
	Compactions uint64
}

// Hybrid returns zero counters.
func (s *Store) Hybrid() HybridStats { return HybridStats{} }

// DeltaHitRate returns 0.
func (HybridStats) DeltaHitRate() float64 { return 0 }
