package core

import (
	"testing"
	"time"
)

// tunerHarness builds a 1-rank idle engine with auto-tune on and returns
// its rank, whose tuner the tests step by hand.
func tunerHarness(t *testing.T, batch int) *rank {
	t.Helper()
	e := New(Options{Ranks: 1, BatchSize: batch, AutoTune: true}, nil...)
	r := e.ranks[0]
	if r.tune == nil {
		t.Fatal("AutoTune engine built a rank without a tuner")
	}
	return r
}

// fill records n samples of the given duration into h.
func fill(h *latHist, n int, d time.Duration) {
	for i := 0; i < n; i++ {
		h.record(int64(d))
	}
}

func TestTunerBatchLaws(t *testing.T) {
	r := tunerHarness(t, 256)

	// High mailbox-residency p99 over a full window halves the batch.
	fill(&r.lat.mailbox, tuneMinSamples, 10*time.Millisecond)
	r.tune.step()
	if r.effBatch != 128 {
		t.Fatalf("after high-residency window: effBatch = %d, want 128", r.effBatch)
	}
	if got := r.counters.effBatch.Load(); got != 128 {
		t.Fatalf("atomic mirror = %d, want 128", got)
	}
	if r.counters.tuneAdjusts.Load() != 1 {
		t.Fatalf("tuneAdjusts = %d, want 1", r.counters.tuneAdjusts.Load())
	}

	// The next step sees an EMPTY window (no new samples) and must hold.
	r.tune.step()
	if r.effBatch != 128 {
		t.Fatalf("empty window moved effBatch to %d", r.effBatch)
	}

	// Low residency plus short flush gaps doubles, clamped at 4x.
	for i := 0; i < 8; i++ {
		fill(&r.lat.mailbox, tuneMinSamples, time.Microsecond)
		fill(&r.lat.flushGap, tuneMinSamples, 10*time.Microsecond)
		r.tune.step()
	}
	if r.effBatch != 256*4 {
		t.Fatalf("doubling did not clamp at 4x: effBatch = %d, want %d", r.effBatch, 256*4)
	}

	// Sustained high residency walks down to the floor, not below.
	for i := 0; i < 12; i++ {
		fill(&r.lat.mailbox, tuneMinSamples, 10*time.Millisecond)
		r.tune.step()
	}
	if r.effBatch != tuneBatchFloor {
		t.Fatalf("halving did not clamp at floor: effBatch = %d, want %d", r.effBatch, tuneBatchFloor)
	}
}

func TestHistDiff(t *testing.T) {
	var h latHist
	fill(&h, 5, time.Millisecond)
	prev := h.snapshot()
	fill(&h, 7, time.Microsecond)
	d := histDiff(h.snapshot(), prev)
	if d.Count != 7 {
		t.Fatalf("window count = %d, want 7", d.Count)
	}
	if q := d.Quantile(0.99); q > 2*time.Microsecond {
		t.Fatalf("window p99 = %v includes pre-window samples", q)
	}
}
