package core

import "time"

// Auto-tune: a per-rank feedback controller closing the loop from the
// latency histograms (hist.go) back onto the knobs that shape them. Each
// rank owns its controller and steps it between event batches, so tuning
// follows the same shared-nothing discipline as everything else — no
// locks, no cross-rank coordination, and per-rank workloads can settle on
// different operating points.
//
// Control laws (deliberately coarse — multiplicative steps with wide
// deadbands, so the controller converges instead of oscillating):
//
//   - Mailbox residency p99 high → halve the effective batch size.
//     Outbound events become visible only at flush, so big batches arrive
//     in bursts the receiver drains while more bursts queue; smaller
//     batches smooth the arrival process at the cost of more mailbox
//     synchronization.
//   - Residency p99 low AND flush gaps short → double the batch size:
//     latency headroom is available, spend it on amortization.
//   - Window delta hit rate high → halve the compaction threshold, moving
//     scan traffic into the sequential segment tier sooner; hit rate very
//     low → double it, compaction is running ahead of any scan benefit.
//
// All decisions read windowed histogram deltas (histDiff) rather than
// lifetime totals, so the controller reacts to the current regime, not the
// run's history.

const (
	// tuneStride is how many loop iterations pass between controller
	// steps; histogram windows are accumulated over the stride.
	tuneStride = 256
	// tuneMinSamples is the minimum histogram samples in a window before
	// the controller acts on it.
	tuneMinSamples = 32
	// tuneBatchFloor is the smallest effective batch the controller will
	// select; below this, per-flush overhead dominates any smoothing win.
	tuneBatchFloor = 16
	// tuneResidencyHigh / tuneResidencyLow are the mailbox-residency p99
	// deadband bounds.
	tuneResidencyHigh = time.Millisecond
	tuneResidencyLow  = 50 * time.Microsecond
	// tuneFlushGapShort: flush gaps under this mean the rank flushes
	// frequently enough that growing the batch cannot starve receivers.
	tuneFlushGapShort = 500 * time.Microsecond
	// tuneHitHigh / tuneHitLow are the delta-hit-rate deadband bounds for
	// the compaction threshold.
	tuneHitHigh = 0.5
	tuneHitLow  = 0.1
	// tuneCompactFloor / tuneCompactCeil bound the compaction threshold.
	tuneCompactFloor = 8
	tuneCompactCeil  = 4096
)

// tuner is one rank's controller state: the countdown to the next step and
// the previous histogram/counter snapshots that define the current window.
type tuner struct {
	r        *rank
	left     int
	batchCap int // 4x the configured BatchSize: the doubling ceiling

	prevMailbox HistogramSnapshot
	prevFlush   HistogramSnapshot
	prevSeg     uint64 // lifetime segment-entries-scanned at window start
	prevDelta   uint64 // lifetime delta-entries-scanned at window start
}

func newTuner(r *rank) *tuner {
	return &tuner{r: r, left: tuneStride, batchCap: r.eng.opts.BatchSize * 4}
}

// maybeStep decrements the stride countdown and runs one controller step
// when it expires. Called from the rank loop only.
func (t *tuner) maybeStep() {
	if t.left--; t.left > 0 {
		return
	}
	t.left = tuneStride
	t.step()
}

func (t *tuner) step() {
	r := t.r

	// Batch-size law, on the windowed mailbox-residency and flush-gap
	// histograms.
	curMailbox := r.lat.mailbox.snapshot()
	curFlush := r.lat.flushGap.snapshot()
	winMailbox := histDiff(curMailbox, t.prevMailbox)
	winFlush := histDiff(curFlush, t.prevFlush)
	t.prevMailbox, t.prevFlush = curMailbox, curFlush
	if winMailbox.Count >= tuneMinSamples {
		p99 := winMailbox.Quantile(0.99)
		switch {
		case p99 > tuneResidencyHigh && r.effBatch > tuneBatchFloor:
			t.setBatch(r.effBatch / 2)
		case p99 < tuneResidencyLow && r.effBatch < t.batchCap &&
			winFlush.Count >= tuneMinSamples && winFlush.Quantile(0.5) < tuneFlushGapShort:
			t.setBatch(r.effBatch * 2)
		}
	}

	// Compaction-threshold law, on the windowed tier scan counters.
	h := r.store.Hybrid()
	if !h.Hybrid {
		return
	}
	segW := h.SegScanned - t.prevSeg
	deltaW := h.DeltaScanned - t.prevDelta
	t.prevSeg, t.prevDelta = h.SegScanned, h.DeltaScanned
	if total := segW + deltaW; total >= tuneMinSamples {
		hit := float64(deltaW) / float64(total)
		cap := r.store.CompactCap()
		switch {
		case hit > tuneHitHigh && cap > tuneCompactFloor:
			t.setCompactCap(cap / 2)
		case hit < tuneHitLow && cap < tuneCompactCeil:
			t.setCompactCap(cap * 2)
		}
	}
}

func (t *tuner) setBatch(n int) {
	if n < tuneBatchFloor {
		n = tuneBatchFloor
	}
	if n > t.batchCap {
		n = t.batchCap
	}
	if n == t.r.effBatch {
		return
	}
	t.r.effBatch = n
	t.r.counters.effBatch.Store(uint64(n))
	t.r.counters.tuneAdjusts.Add(1)
}

func (t *tuner) setCompactCap(n int) {
	if n < tuneCompactFloor {
		n = tuneCompactFloor
	}
	if n > tuneCompactCeil {
		n = tuneCompactCeil
	}
	if n == t.r.store.CompactCap() {
		return
	}
	t.r.store.SetCompactCap(n)
	t.r.counters.tuneAdjusts.Add(1)
}

// histDiff returns the window cur minus prev, bucket-wise. Both snapshots
// must come from the same histogram with prev taken earlier; counts are
// monotone, so plain subtraction is exact.
func histDiff(cur, prev HistogramSnapshot) HistogramSnapshot {
	var d HistogramSnapshot
	for i := range cur.Buckets {
		d.Buckets[i] = cur.Buckets[i] - prev.Buckets[i]
	}
	d.Count = cur.Count - prev.Count
	d.SumNanos = cur.SumNanos - prev.SumNanos
	return d
}
