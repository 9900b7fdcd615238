package core

import (
	"math/bits"
	"sync"
	"testing"
	"time"
)

// --- histogram unit tests -------------------------------------------------

func TestHistBucketMapping(t *testing.T) {
	cases := map[int64]int{
		-5:                     0, // negative clamps to zero
		0:                      0,
		1:                      1,
		2:                      2,
		3:                      2,
		4:                      3,
		1023:                   10,
		1024:                   11,
		1 << 62:                HistBuckets - 1, // beyond the top bound clamps in
		int64(^uint64(0) >> 1): HistBuckets - 1,
	}
	for ns, want := range cases {
		if got := histBucket(ns); got != want {
			t.Errorf("histBucket(%d) = %d, want %d", ns, got, want)
		}
	}
}

func TestHistogramZeroSamples(t *testing.T) {
	var h latHist
	s := h.snapshot()
	if s.Count != 0 || s.SumNanos != 0 {
		t.Fatalf("empty snapshot: %+v", s)
	}
	if q := s.Quantile(0.5); q != 0 {
		t.Errorf("Quantile on empty histogram = %v, want 0", q)
	}
	if m := s.Mean(); m != 0 {
		t.Errorf("Mean on empty histogram = %v, want 0", m)
	}
}

func TestHistogramSingleSample(t *testing.T) {
	var h latHist
	h.record(1000)
	s := h.snapshot()
	if s.Count != 1 || s.SumNanos != 1000 {
		t.Fatalf("snapshot after one sample: %+v", s)
	}
	want := HistBucketBound(histBucket(1000))
	for _, p := range []float64{0.001, 0.5, 0.99, 1} {
		if q := s.Quantile(p); q != want {
			t.Errorf("Quantile(%v) = %v, want %v", p, q, want)
		}
	}
	if m := s.Mean(); m != 1000*time.Nanosecond {
		t.Errorf("Mean = %v, want 1µs", m)
	}
}

func TestHistogramOverflowClampsToTopBucket(t *testing.T) {
	var h latHist
	huge := int64(1) << 62 // far beyond the top bucket's nominal bound
	h.record(huge)
	s := h.snapshot()
	if s.Buckets[HistBuckets-1] != 1 {
		t.Fatalf("overflow sample not in top bucket: %+v", s.Buckets)
	}
	if q := s.Quantile(0.99); q != HistBucketBound(HistBuckets-1) {
		t.Errorf("Quantile = %v, want top bucket bound %v", q, HistBucketBound(HistBuckets-1))
	}
	if m := s.Mean(); m != time.Duration(huge) {
		t.Errorf("Mean = %v, want exact %v (sum is not bucketed)", m, time.Duration(huge))
	}
}

// TestHistogramQuantileWithinOneBucket checks the estimation contract: the
// reported quantile is the upper bound of the bucket holding the true order
// statistic, so estimate ∈ [true, 2·true) for any sample > 0.
func TestHistogramQuantileWithinOneBucket(t *testing.T) {
	var h latHist
	const n = 1000
	for i := int64(1); i <= n; i++ {
		h.record(i)
	}
	s := h.snapshot()
	for _, p := range []float64{0.50, 0.90, 0.99, 0.999} {
		trueVal := int64(p * n) // order statistic of the uniform 1..n sample
		if trueVal < 1 {
			trueVal = 1
		}
		got := int64(s.Quantile(p))
		if got < trueVal || got >= 2*trueVal {
			t.Errorf("Quantile(%v) = %d outside [true, 2·true) for true=%d", p, got, trueVal)
		}
		// And it is exactly the bound of the true value's bucket.
		if want := int64(HistBucketBound(bits.Len64(uint64(trueVal)))); got != want {
			t.Errorf("Quantile(%v) = %d, want bucket bound %d", p, got, want)
		}
	}
}

func TestHistogramConcurrentRecord(t *testing.T) {
	var h latHist
	const (
		workers = 8
		per     = 10000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := int64(0); i < per; i++ {
				h.record(seed + i)
			}
		}(int64(w) * 100)
	}
	wg.Wait()
	s := h.snapshot()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
	var inBuckets uint64
	for _, n := range s.Buckets {
		inBuckets += n
	}
	if inBuckets != s.Count {
		t.Fatalf("bucket sum %d != count %d", inBuckets, s.Count)
	}
}

func TestHistogramSnapshotAdd(t *testing.T) {
	var a, b latHist
	a.record(10)
	a.record(1000)
	b.record(10)
	sum := a.snapshot()
	sum.add(b.snapshot())
	if sum.Count != 3 || sum.SumNanos != 1020 {
		t.Fatalf("merged snapshot: count=%d sum=%d", sum.Count, sum.SumNanos)
	}
	if sum.Buckets[histBucket(10)] != 2 {
		t.Fatalf("merged bucket counts: %+v", sum.Buckets)
	}
}

// --- lineage trace-table unit tests ---------------------------------------

func TestTracePackDecode(t *testing.T) {
	if _, _, ok := DecodeTrace(0); ok {
		t.Fatal("zero trace decoded as traced")
	}
	for _, c := range []struct{ id, node uint32 }{
		{1, 0}, {0xFFFFFF01, 42}, {256, 0xFFFFFFFF},
	} {
		id, node, ok := DecodeTrace(packTrace(c.id, c.node))
		if !ok || id != c.id || node != c.node {
			t.Fatalf("roundtrip (%d,%d) -> (%d,%d,%v)", c.id, c.node, id, node, ok)
		}
	}
}

// testRank builds the minimal rank a traceTable retire needs: a histogram
// block to record the lineage latency into.
func testRank() *rank { return &rank{lat: &rankLats{}} }

func TestTraceTableLifecycle(t *testing.T) {
	tt := newTraceTable(4)
	r := testRank()

	root := Event{Kind: KindAdd, To: 1, From: 2, Seq: 7}
	rootTrace := tt.start(&root, 0, 0)
	if rootTrace == 0 {
		t.Fatal("start returned an untraced root")
	}
	if tt.active.Load() != 1 {
		t.Fatalf("active = %d after start", tt.active.Load())
	}

	childEv := Event{Kind: KindUpdate, To: 3, From: 1, Val: 9, Seq: 7}
	childTrace := tt.child(rootTrace, &childEv, 1, 0)
	if childTrace == 0 {
		t.Fatal("child returned an untraced event")
	}
	mergedEv := Event{Kind: KindUpdate, To: 3, From: 2, Val: 8, Seq: 7}
	tt.merged(rootTrace, &mergedEv, 1, 0, childTrace)

	// Retire the child, then the root: the second retire quiesces the
	// cascade and must finalize exactly one lineage.
	tt.retire(childTrace, r, 0)
	if got := len(tt.lineages()); got != 0 {
		t.Fatalf("%d lineages completed before quiescence", got)
	}
	tt.retire(rootTrace, r, 0)

	ls := tt.lineages()
	if len(ls) != 1 {
		t.Fatalf("completed lineages = %d, want 1", len(ls))
	}
	l := ls[0]
	if len(l.Nodes) != 3 || l.Truncated {
		t.Fatalf("lineage shape: %d nodes, truncated=%v", len(l.Nodes), l.Truncated)
	}
	if l.Nodes[0].Kind != KindAdd || l.Nodes[0].To != 1 || l.Nodes[0].Seq != 7 {
		t.Fatalf("root node = %+v", l.Nodes[0])
	}
	if l.Nodes[1].Parent != 0 || l.Nodes[1].Kind != KindUpdate || l.Nodes[1].Merged {
		t.Fatalf("child node = %+v", l.Nodes[1])
	}
	if !l.Nodes[2].Merged || l.Nodes[2].MergedInto != l.ID {
		t.Fatalf("merged node = %+v (lineage %d)", l.Nodes[2], l.ID)
	}
	if tt.sampled.Load() != 1 || tt.active.Load() != 0 {
		t.Fatalf("sampled=%d active=%d after quiescence", tt.sampled.Load(), tt.active.Load())
	}
	if r.lat.ingest.snapshot().Count != 1 {
		t.Fatal("quiescence did not record an ingest-to-quiesce sample")
	}
	if l.Latency < 0 {
		t.Fatalf("negative lineage latency %v", l.Latency)
	}
}

func TestTraceTableSlotExhaustionDrops(t *testing.T) {
	tt := newTraceTable(0)
	ev := Event{Kind: KindAdd}
	traces := make([]uint64, 0, traceSlotCount)
	for i := 0; i < traceSlotCount; i++ {
		tr := tt.start(&ev, 0, 0)
		if tr == 0 {
			t.Fatalf("start %d dropped with free slots remaining", i)
		}
		traces = append(traces, tr)
	}
	const extra = 5
	for i := 0; i < extra; i++ {
		if tr := tt.start(&ev, 0, 0); tr != 0 {
			t.Fatal("start succeeded with a full table")
		}
	}
	if got := tt.dropped.Load(); got != extra {
		t.Fatalf("dropped = %d, want %d", got, extra)
	}
	// Freeing one slot makes sampling work again (keep=0: nothing retained).
	r := testRank()
	tt.retire(traces[0], r, 0)
	if tr := tt.start(&ev, 0, 0); tr == 0 {
		t.Fatal("start dropped after a slot was freed")
	}
	if got := len(tt.lineages()); got != 0 {
		t.Fatalf("keep=0 retained %d lineages", got)
	}
}

func TestTraceTableTruncation(t *testing.T) {
	tt := newTraceTable(1)
	r := testRank()
	root := Event{Kind: KindAdd}
	rootTrace := tt.start(&root, 0, 0)
	ev := Event{Kind: KindUpdate}
	var kids []uint64
	for i := 0; i < maxLineageNodes+10; i++ {
		if tr := tt.child(rootTrace, &ev, 0, 0); tr != 0 {
			kids = append(kids, tr)
		}
	}
	if len(kids) != maxLineageNodes-1 {
		t.Fatalf("recorded %d children, want %d (cap minus root)", len(kids), maxLineageNodes-1)
	}
	for _, tr := range kids {
		tt.retire(tr, r, 0)
	}
	tt.retire(rootTrace, r, 0)
	ls := tt.lineages()
	if len(ls) != 1 || !ls[0].Truncated {
		t.Fatalf("truncated cascade: %d lineages, truncated=%v", len(ls), len(ls) == 1 && ls[0].Truncated)
	}
	if len(ls[0].Nodes) != maxLineageNodes {
		t.Fatalf("truncated lineage has %d nodes, want the cap %d", len(ls[0].Nodes), maxLineageNodes)
	}
}

func TestTraceTableStaleParent(t *testing.T) {
	tt := newTraceTable(1)
	r := testRank()
	root := Event{Kind: KindAdd}
	stale := tt.start(&root, 0, 0)
	tt.retire(stale, r, 0) // lineage completed; the slot is free for reuse

	ev := Event{Kind: KindUpdate}
	if tr := tt.child(stale, &ev, 0, 0); tr != 0 {
		t.Fatal("child accepted a stale parent trace")
	}
	tt.merged(stale, &ev, 0, 0, 0) // must be a no-op, not a panic
	before := len(tt.lineages())
	tt.retire(stale, r, 0) // double retire of a completed lineage: no-op
	if got := len(tt.lineages()); got != before {
		t.Fatalf("stale retire changed completed lineages: %d -> %d", before, got)
	}
}

// TestTraceTableOriginReentry pins completion when a cascade leaves the
// origin and comes back: the origin goes idle and reports while its child
// is away, then receives a grandchild. The lineage must not finalize on
// the remote's report — the origin's own report is stale by then — but
// only on the origin's second one, recording one latency and every node.
func TestTraceTableOriginReentry(t *testing.T) {
	tt := newTraceTable(4)
	r := testRank()
	var shipped int
	tt.ship = func(origin int, rep lineageReport) {
		if origin != 0 || rep.From != 1 {
			t.Fatalf("report from proc %d shipped to %d", rep.From, origin)
		}
		shipped++
		tt.handleReport(rep)
	}
	ev := Event{Kind: KindUpdate}
	root := tt.start(&Event{Kind: KindAdd}, 0, 0)
	away := tt.child(root, &ev, 0, 0)
	tt.wireSend(away, 0, 1)
	tt.wireRecv(away, 1, 0)
	tt.retire(root, r, 0) // the origin is idle and reports
	back := tt.child(away, &ev, 1, 1)
	tt.wireSend(back, 1, 0)
	tt.wireRecv(back, 0, 1) // the cascade re-enters the origin
	tt.retire(away, r, 1)   // the remote is idle and reports
	if shipped != 1 {
		t.Fatalf("remote shipped %d reports, want 1", shipped)
	}
	if got := len(tt.lineages()); got != 0 {
		t.Fatalf("lineage finalized on the remote's report with the origin live (%d completed)", got)
	}
	leaf := tt.child(back, &ev, 0, 0)
	tt.retire(leaf, r, 0)
	tt.retire(back, r, 0) // the origin's second report completes it
	ls := tt.lineages()
	if len(ls) != 1 {
		t.Fatalf("completed lineages = %d, want 1", len(ls))
	}
	if n := len(ls[0].Nodes); n != 4 || ls[0].Truncated {
		t.Fatalf("lineage has %d nodes (truncated=%v), want 4", n, ls[0].Truncated)
	}
	if ls[0].Nodes[0].Kind != KindAdd || ls[0].Nodes[0].ID != ls[0].Nodes[0].Parent {
		t.Fatalf("Nodes[0] = %+v, want the root", ls[0].Nodes[0])
	}
	if got := r.lat.ingest.snapshot().Count; got != 1 {
		t.Fatalf("recorded %d latencies, want 1", got)
	}
	if tt.sampled.Load() != 1 || tt.active.Load() != 0 {
		t.Fatalf("sampled=%d active=%d after completion", tt.sampled.Load(), tt.active.Load())
	}
}
