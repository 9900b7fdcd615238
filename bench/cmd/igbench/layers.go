package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"incregraph"
	"incregraph/bench/stat"
	"incregraph/internal/graph"
	"incregraph/internal/metrics"
	"incregraph/internal/partition"
	"incregraph/internal/rhh"
	"incregraph/internal/stream"
)

// layerMetric is one per-layer metric: a layer is a Go package, and the
// name starts with it. A metric a workload does not exercise reads 0 there
// (tcp.* off sssp-tcp2, serve.*, live.* and gen.* off live-bfs-r1, tax.*
// off sssp-r2 and con-r1, ckpt on a cluster); bench/README.md has the table.
type layerMetric struct {
	name, unit string
	higher     bool
}

var perLayer = []layerMetric{
	{"stream.slice_next_ns", "ns", false},
	{"stream.split_ms", "ms", false},
	{"stream.decode_bin_ns", "ns", false},
	{"stream.decode_text_ns", "ns", false},
	{"stream.chan_push_next_ns", "ns", false},
	{"partition.owner_ns", "ns", false},
	{"partition.edge_skew", "ratio", false},
	{"rhh.insert_ns", "ns", false},
	{"rhh.hit_ns", "ns", false},
	{"rhh.miss_ns", "ns", false},
	{"graph.add_new_ns", "ns", false},
	{"graph.add_dup_ns", "ns", false},
	{"graph.scan_ns", "ns", false},
	{"graph.delete_ns", "ns", false},
	{"graph.compact_ns", "ns", false},
	{"graph.compactions", "count", false},
	{"graph.promotions", "count", false},
	{"graph.delta_hit_rate", "frac", false},
	{"graph.heap_b_per_edge", "B/edge", false},
	{"graph.pure.add_new_ns", "ns", false},
	{"graph.pure.add_dup_ns", "ns", false},
	{"graph.pure.scan_ns", "ns", false},
	{"graph.pure.heap_b_per_edge", "B/edge", false},
	{"core.ev_per_topo", "ratio", false},
	{"core.busy_ns_per_ev", "ns", false},
	{"core.algo_events", "count", false},
	{"core.cascade_emits", "count", false},
	{"core.self_delivered_frac", "frac", true},
	{"core.msgs_sent", "count", false},
	{"core.ev_per_flush", "ratio", true},
	{"core.ev_per_drain", "ratio", true},
	{"core.mailbox_hwm", "count", false},
	{"core.combined_frac", "frac", true},
	{"core.rank_skew", "ratio", false},
	{"core.deletes", "count", false},
	{"core.invalidations", "count", false},
	{"core.inv_per_delete", "ratio", false},
	{"core.seg_clones", "count", false},
	{"core.lat_samples", "count", true},
	{"core.lat_p50_us", "us", false},
	{"core.lat_p99_us", "us", false},
	{"core.mbox_res_p50_us", "us", false},
	{"core.flush_gap_p50_us", "us", false},
	{"core.drain_p50_us", "us", false},
	{"core.start_ms", "ms", false},
	{"core.collect_ms", "ms", false},
	{"core.stats_call_us", "us", false},
	{"core.ckpt_write_ms", "ms", false},
	{"core.ckpt_read_ms", "ms", false},
	{"core.ckpt_b_per_edge", "B/edge", false},
	{"tcp.ratio", "ratio", true},
	{"tcp.b_per_ev", "B/ev", false},
	{"tcp.ev_per_frame", "ratio", true},
	{"tcp.frames", "count", false},
	{"tcp.ack_rtt_p50_us", "us", false},
	{"tcp.backoffs", "count", false},
	{"tcp.bootstrap_ms", "ms", false},
	{"serve.get_ns", "ns", false},
	{"serve.batch_ns_per_id", "ns", false},
	{"serve.topk_us", "us", false},
	{"serve.khop_us", "us", false},
	{"serve.publishes", "count", false},
	{"serve.restamps", "count", true},
	{"serve.visible_lag_p50_ms", "ms", false},
	{"live.update_p99_ms", "ms", false},
	{"live.update_max_ms", "ms", false},
	{"live.read_p99_us", "us", false},
	{"live.push_us", "us", false},
	{"live.drain_call_us", "us", false},
	{"live.slo_miss_frac", "frac", false},
	{"gen.late_p50_us", "us", false},
	{"gen.late_p99_us", "us", false},
	{"gen.backlog_max_ticks", "count", false},
	{"tax.no_coalesce", "ratio", true},
	{"tax.sample_off", "ratio", true},
	{"tax.serve_on", "ratio", true},
	{"tax.autotune", "ratio", true},
	{"tax.no_hybrid.con", "ratio", true},
	{"tax.no_hybrid.sssp", "ratio", true},
	{"metrics.prom_write_us", "us", false},
	{"metrics.prom_bytes", "B", false},
	{"static.oracle_ms", "ms", false},
	{"trace.overhead_frac", "frac", false},
	{"trace.spans", "count", false},
}

// layerCap bounds how many events the codec, map and channel timers use; a
// million operations time a per-operation cost well enough.
const layerCap = 1 << 20

// tracer carries what the traced pass threads through its timers.
type tracer struct {
	w   workload
	p   params
	rec *stat.Recorder
	res *Result
	t   *tally
	exp *expected
}

// set records a per-layer metric.
func (tr *tracer) set(name string, v float64) {
	for _, m := range perLayer {
		if m.name == name {
			tr.res.Metrics[name] = Metric{Value: v, Unit: m.unit}
			return
		}
	}
	panic("igbench: " + name + " is not in the per-layer table")
}

// timed runs fn inside a span and returns how long it took.
func (tr *tracer) timed(name string, parent int, fn func()) time.Duration {
	sp := tr.rec.Begin(name, parent, 0)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	tr.rec.End(sp)
	return d
}

func perOp(d time.Duration, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(ops)
}

// once sets a workload up and runs it once under tune, verifying the
// outcome like any other run. w is the traced workload, or one with the
// same input and program (sssp-r2 from sssp-tcp2), so the oracle holds.
func (tr *tracer) once(w workload, tune func(*incregraph.Config), rec *stat.Recorder, parent int) (*prepared, rep, error) {
	pr, err := w.prepare(tr.p, tune, rec, parent)
	if err != nil {
		return nil, rep{}, err
	}
	r := pr.run(tr.exp, tr.p, rec, parent, tr.t)
	sp := rec.Begin("verify", parent, 0)
	pr.verify(tr.exp, r.halfEdges, tr.t)
	rec.End(sp)
	return pr, r, nil
}

// runTraced is the second pass: the workload once without spans (the
// reference the overhead is taken against), once with a span around every
// call into the program, then the per-layer timers and the tax ledger on
// the workload's own inputs. Spans go to <outDir>/trace-<workload>.json.
func runTraced(w workload, p params, exp *expected, outDir string) (Result, error) {
	var t tally
	began := time.Now() // the wall time the spans must account for, taken apart from them
	rec := stat.NewRecorder(w.name)
	root := rec.Begin("run", -1, 0)
	res := newResult(w, true, exp)
	tr := &tracer{w: w, p: p, rec: rec, res: &res, t: &t, exp: exp}
	for _, m := range perLayer {
		tr.set(m.name, 0)
	}

	// A process's first run is its slowest (it pays for every page of the
	// heap it grows), so one run is made and dropped before the reference.
	sp := rec.Begin("warm-up", root, 0)
	if _, _, err := tr.once(w, nil, nil, -1); err != nil {
		return res, err
	}
	rec.End(sp)

	sp = rec.Begin("reference", root, 0)
	pr, ref, err := tr.once(w, nil, nil, -1)
	if err != nil {
		return res, err
	}
	refRate := pr.evPerS(ref)
	pr = nil
	rec.End(sp)

	sp = rec.Begin("traced", root, 0)
	var r rep
	pr, r, err = tr.once(w, nil, rec, sp)
	if err != nil {
		return res, err
	}
	rec.End(sp)
	if w.live {
		tr.set("trace.overhead_frac", stat.Median(r.updateMS)/stat.Median(ref.updateMS)-1)
	} else {
		tr.set("trace.overhead_frac", r.wallS/ref.wallS-1)
	}
	tr.set("static.oracle_ms", exp.OracleMS)
	pr.offeredEvents() // the layer timers below replay the events

	sp = rec.Begin("layers", root, 0)
	tr.coreLayer(pr, r, sp)
	if w.live {
		tr.serveLayer(pr, r, sp)
	}
	if w.nodes > 1 {
		if err := tr.tcpLayer(pr, r, sp); err != nil {
			return res, err
		}
	}
	g0 := pr.graphs[0]
	pr.graphs, pr.streams, pr.progress, pr.live = nil, nil, nil, nil
	tr.metricsLayer(g0.Stats(), sp)
	g0 = nil
	tr.streamLayer(pr, sp)
	tr.partitionLayer(pr, sp)
	tr.rhhLayer(pr, sp)
	tr.graphLayer(pr, sp, true)
	tr.graphLayer(pr, sp, false)
	rec.End(sp)

	sp = rec.Begin("tax", root, 0)
	if err := tr.taxLedger(refRate, sp); err != nil {
		return res, err
	}
	rec.End(sp)
	rec.End(root)
	wall := time.Since(began)

	spans := rec.Spans()
	tr.set("trace.spans", float64(len(spans)))
	if err := writeSpans(outDir, w.name, wall, spans); err != nil {
		return res, err
	}
	res.finish(&t)
	return res, nil
}

// writeSpans writes the span file with the run's wall time, measured apart
// from the spans, beside the sum of main-track self-times, which must
// account for it.
func writeSpans(outDir, workload string, wall time.Duration, spans []stat.Span) error {
	self := stat.SelfTimes(spans)
	var sum int64
	for i, s := range spans {
		if s.Track == 0 {
			sum += self[i]
		}
	}
	b, err := json.Marshal(struct {
		Workload  string      `json:"workload"`
		WallNS    int64       `json:"wall_ns"`
		SelfSumNS int64       `json:"self_sum_ns"`
		Spans     []stat.Span `json:"spans"`
	}{workload, wall.Nanoseconds(), sum, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace-"+workload+".json"), b, 0o644)
}

// coreLayer reads the engine's own counters after the traced run and times
// the control-plane calls and the checkpoint round trip.
func (tr *tracer) coreLayer(pr *prepared, r rep, parent int) {
	var (
		ev                                      incregraph.EventCounts
		emits, self, sent, flushes, drains, hwm uint64
		combined, clones                        uint64
		ingestLat, mbox, gap, drain             incregraph.HistogramSnapshot
		perRank                                 []float64
	)
	for _, s := range r.stats {
		ev = addCounts(ev, s.Events)
		emits += s.CascadeEmits
		self += s.SelfDelivered
		sent += s.MessagesSent
		flushes += s.Flushes
		drains += s.BatchesDrained
		combined += s.CombinedAway
		clones += s.Storage.SegClones
		if s.MailboxHWM > hwm {
			hwm = s.MailboxHWM
		}
		ingestLat = mergeHist(ingestLat, s.Latency.IngestToQuiesce)
		mbox = mergeHist(mbox, s.Latency.MailboxResidency)
		gap = mergeHist(gap, s.Latency.FlushInterval)
		drain = mergeHist(drain, s.Latency.BatchDrain)
		for _, rs := range s.PerRank {
			if n := rs.Events.Total(); n > 0 {
				perRank = append(perRank, float64(n))
			}
		}
	}
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	ranks := uint64(pr.w.ranks * pr.w.nodes)
	tr.set("core.ev_per_topo", ratio(ev.Total(), ev.Topo()))
	busyNS := float64(ranks) * r.wallS * 1e9
	if pr.w.live {
		// Between ticks the rank is idle; it is busy while Drain waits.
		busyNS = 0
		for _, d := range r.drainUS {
			busyNS += d * 1e3
		}
	}
	tr.set("core.busy_ns_per_ev", busyNS/float64(ev.Total()))
	tr.set("core.algo_events", float64(ev.Algo()))
	tr.set("core.cascade_emits", float64(emits))
	tr.set("core.self_delivered_frac", ratio(self, self+sent))
	tr.set("core.msgs_sent", float64(sent))
	tr.set("core.ev_per_flush", ratio(sent, flushes))
	tr.set("core.ev_per_drain", ratio(sent, drains))
	tr.set("core.mailbox_hwm", float64(hwm))
	tr.set("core.combined_frac", ratio(combined, combined+ev.Updates))
	var most, sum float64
	for _, n := range perRank {
		sum += n
		if n > most {
			most = n
		}
	}
	tr.set("core.rank_skew", most*float64(len(perRank))/sum)
	tr.set("core.deletes", float64(ev.Deletes))
	tr.set("core.invalidations", float64(ev.Invalidates))
	tr.set("core.inv_per_delete", ratio(ev.Invalidates, ev.Deletes))
	tr.set("core.seg_clones", float64(clones))
	tr.set("core.lat_samples", float64(ingestLat.Count))
	tr.set("core.lat_p50_us", us(ingestLat.Quantile(0.50)))
	tr.set("core.lat_p99_us", us(ingestLat.Quantile(0.99)))
	tr.set("core.mbox_res_p50_us", us(mbox.Quantile(0.50)))
	tr.set("core.flush_gap_p50_us", us(gap.Quantile(0.50)))
	tr.set("core.drain_p50_us", us(drain.Quantile(0.50)))
	tr.set("core.start_ms", r.startMS)

	g := pr.graphs[0]
	const calls = 100
	d := tr.timed("core.stats", parent, func() {
		for i := 0; i < calls; i++ {
			g.Stats()
		}
	})
	tr.set("core.stats_call_us", us(d)/calls)
	if tr.exp.Want != nil {
		d = tr.timed("core.collect", parent, func() {
			for _, g := range pr.graphs {
				g.Collect(0)
			}
		})
		tr.set("core.collect_ms", ms(d))
	}
	if pr.w.nodes > 1 {
		return // checkpoints of a cluster run are not supported
	}
	var buf bytes.Buffer
	var err error
	d = tr.timed("core.ckpt.write", parent, func() { err = g.WriteCheckpoint(&buf) })
	tr.t.expect(1, b2u(err != nil), "checkpoint write: %v", err)
	tr.set("core.ckpt_write_ms", ms(d))
	tr.set("core.ckpt_b_per_edge", float64(buf.Len())/float64(r.halfEdges))
	var back *incregraph.Graph
	d = tr.timed("core.ckpt.read", parent, func() {
		back, err = incregraph.LoadCheckpoint(bytes.NewReader(buf.Bytes()), incregraph.Config{}, pr.w.programs()...)
	})
	tr.set("core.ckpt_read_ms", ms(d))
	restored := uint64(0)
	if err == nil {
		restored = countHalfEdges(back.Topology())
	}
	tr.t.expect(1, b2u(err != nil || restored != r.halfEdges),
		"checkpoint read: %v, %d half-edges restored of %d", err, restored, r.halfEdges)
}

func addCounts(a, b incregraph.EventCounts) incregraph.EventCounts {
	a.Adds += b.Adds
	a.ReverseAdds += b.ReverseAdds
	a.Updates += b.Updates
	a.Inits += b.Inits
	a.Deletes += b.Deletes
	a.ReverseDeletes += b.ReverseDeletes
	a.Signals += b.Signals
	a.Invalidates += b.Invalidates
	return a
}

func mergeHist(a, b incregraph.HistogramSnapshot) incregraph.HistogramSnapshot {
	a.Count += b.Count
	a.SumNanos += b.SumNanos
	for i := range a.Buckets {
		a.Buckets[i] += b.Buckets[i]
	}
	return a
}

// serveLayer times the read verbs on the converged, idle live graph and
// reports the window's tail and generator health.
func (tr *tracer) serveLayer(pr *prepared, r rep, parent int) {
	g := pr.graphs[0]
	gen := pr.w.idGen(tr.p)
	next := gen.next
	n := 200000
	if tr.p.smoke {
		n = 2000
	}
	d := tr.timed("serve.get", parent, func() {
		for i := 0; i < n; i++ {
			g.ReadPoint(0, next())
		}
	})
	tr.set("serve.get_ns", perOp(d, n))
	ids := make([]incregraph.VertexID, readIDs)
	var out []incregraph.ReadValue
	batches := n / readIDs
	d = tr.timed("serve.batch", parent, func() {
		for b := 0; b < batches; b++ {
			gen.fill(ids)
			out, _ = g.ReadBatch(0, ids, out[:0])
		}
	})
	tr.set("serve.batch_ns_per_id", perOp(d, batches*readIDs))
	const topks = 20
	d = tr.timed("serve.topk", parent, func() {
		for i := 0; i < topks; i++ {
			g.ReadTopK(0, 100, incregraph.ReadMin)
		}
	})
	tr.set("serve.topk_us", us(d)/topks)
	const khops = 200
	d = tr.timed("serve.khop", parent, func() {
		for i := 0; i < khops; i++ {
			g.ReadNeighborhood(0, next(), 2, 1000)
		}
	})
	tr.set("serve.khop_us", us(d)/khops)
	tr.set("serve.publishes", float64(r.stats[0].Serve.Publishes))
	tr.set("serve.restamps", float64(r.stats[0].Serve.Restamps))
	tr.set("serve.visible_lag_p50_ms", stat.Median(r.lagMS))

	tr.res.percentile("live.update_p99_ms", "ms", r.updateMS, 99)
	tr.res.percentile("live.read_p99_us", "us", r.readUS, 99)
	tr.res.percentile("gen.late_p99_us", "us", r.lateUS, 99)
	sorted := stat.Sorted(r.updateMS)
	tr.set("live.update_max_ms", sorted[len(sorted)-1])
	missed := 0
	for _, v := range sorted {
		if v > sloMS {
			missed++
		}
	}
	tr.set("live.slo_miss_frac", float64(missed)/float64(len(sorted)))
	tr.set("live.push_us", stat.Median(r.pushUS))
	tr.set("live.drain_call_us", stat.Median(r.drainUS))
	tr.set("gen.late_p50_us", stat.Median(r.lateUS))
	tr.set("gen.backlog_max_ticks", float64(r.backlogMax))
}

// tcpLayer reads the per-peer transport counters of the traced cluster run,
// then runs the same input in process so the transport's share is a ratio
// of like with like.
func (tr *tracer) tcpLayer(pr *prepared, r rep, parent int) error {
	var events, frames, sentBytes, backoffs uint64
	var rtt incregraph.HistogramSnapshot
	for _, s := range r.stats {
		for _, peer := range s.Transport.Peers {
			events += peer.SentEvents
			frames += peer.SentFrames
			sentBytes += peer.SentBytes
			backoffs += peer.Backoffs
			rtt = mergeHist(rtt, peer.AckRTT)
		}
	}
	if events > 0 {
		tr.set("tcp.b_per_ev", float64(sentBytes)/float64(events))
		tr.set("tcp.ev_per_frame", float64(events)/float64(frames))
	}
	tr.set("tcp.frames", float64(frames))
	tr.set("tcp.ack_rtt_p50_us", us(rtt.Quantile(0.50)))
	tr.set("tcp.backoffs", float64(backoffs))
	tr.set("tcp.bootstrap_ms", r.startMS)

	inproc, _ := findWorkload("sssp-r2")
	sp := tr.rec.Begin("tcp.inproc", parent, 0)
	ipr, ir, err := tr.once(inproc, nil, tr.rec, sp)
	tr.rec.End(sp)
	if err != nil {
		return err
	}
	tr.set("tcp.ratio", pr.evPerS(r)/ipr.evPerS(ir))

	return nil
}

// metricsLayer times the Prometheus exposition of one stats snapshot.
func (tr *tracer) metricsLayer(s incregraph.EngineStats, parent int) {
	var buf bytes.Buffer
	const writes = 20
	d := tr.timed("metrics.prom", parent, func() {
		for i := 0; i < writes; i++ {
			buf.Reset()
			metrics.WritePrometheus(&buf, s)
		}
	})
	tr.set("metrics.prom_write_us", us(d)/writes)
	tr.set("metrics.prom_bytes", float64(buf.Len()))
}

// streamLayer times the stream package on the workload's events: the slice
// pull a saturated rank makes, the split, both file codecs, and the live
// channel's push and poll.
func (tr *tracer) streamLayer(pr *prepared, parent int) {
	events := pr.events
	// Through the interface, as a rank pulls it.
	var s stream.Stream = stream.FromEvents(events)
	var sum graph.VertexID
	d := tr.timed("stream.slice", parent, func() {
		for {
			ev, ok := s.Next()
			if !ok {
				return
			}
			sum += ev.Src
		}
	})
	runtime.KeepAlive(sum)
	tr.set("stream.slice_next_ns", perOp(d, len(events)))
	ranks := pr.w.ranks * pr.w.nodes
	d = tr.timed("stream.split", parent, func() {
		if pr.w.churn > 0 {
			stream.SplitEventsByPair(events, ranks)
		} else {
			stream.Split(pr.addedEdges(), ranks)
		}
	})
	tr.set("stream.split_ms", ms(d))

	if len(events) > layerCap {
		events = events[:layerCap]
	}
	for _, codec := range []struct {
		name  string
		write func(*bytes.Buffer) error
		read  func(*bytes.Buffer) ([]graph.EdgeEvent, error)
	}{
		{"stream.decode_bin_ns",
			func(b *bytes.Buffer) error { return stream.WriteBinary(b, events) },
			func(b *bytes.Buffer) ([]graph.EdgeEvent, error) { return stream.ReadBinary(b) }},
		{"stream.decode_text_ns",
			func(b *bytes.Buffer) error { return stream.WriteText(b, events) },
			func(b *bytes.Buffer) ([]graph.EdgeEvent, error) { return stream.ReadText(b) }},
	} {
		var buf bytes.Buffer
		err := codec.write(&buf)
		var back []graph.EdgeEvent
		d = tr.timed(codec.name, parent, func() {
			if err == nil {
				back, err = codec.read(&buf)
			}
		})
		tr.t.expect(1, b2u(err != nil || len(back) != len(events)), "%s: %v, %d of %d events back", codec.name, err, len(back), len(events))
		tr.set(codec.name, perOp(d, len(events)))
	}

	c := stream.NewChan()
	d = tr.timed("stream.chan", parent, func() {
		for lo := 0; lo < len(events); lo += tickEvents {
			hi := lo + tickEvents
			if hi > len(events) {
				hi = len(events)
			}
			for _, ev := range events[lo:hi] {
				c.Push(ev)
			}
			for range events[lo:hi] {
				c.TryNext()
			}
		}
	})
	tr.set("stream.chan_push_next_ns", perOp(d, len(events)))
}

// partitionLayer times the owner hash and reports how unevenly it spreads
// this input's edges over the workload's ranks.
func (tr *tracer) partitionLayer(pr *prepared, parent int) {
	part := partition.NewHashed(pr.w.ranks * pr.w.nodes)
	sink := 0
	d := tr.timed("partition.owner", parent, func() {
		for _, ev := range pr.events {
			sink += part.Owner(ev.Src)
		}
	})
	runtime.KeepAlive(sink)
	tr.set("partition.owner_ns", perOp(d, len(pr.events)))
	tr.set("partition.edge_skew", partition.Balance(part, pr.addedEdges()).Skew)
}

// rhhLayer times the Robin Hood map on the input's own edge keys.
func (tr *tracer) rhhLayer(pr *prepared, parent int) {
	events := pr.events
	if len(events) > layerCap {
		events = events[:layerCap]
	}
	keys := make([]uint64, len(events))
	for i, ev := range events {
		keys[i] = uint64(ev.Src)<<32 | uint64(ev.Dst)
	}
	var m rhh.Map[uint32]
	d := tr.timed("rhh.insert", parent, func() {
		for i, k := range keys {
			m.Put(k, uint32(i))
		}
	})
	tr.set("rhh.insert_ns", perOp(d, len(keys)))
	hits := 0
	d = tr.timed("rhh.hit", parent, func() {
		for _, k := range keys {
			if _, ok := m.Get(k); ok {
				hits++
			}
		}
	})
	tr.set("rhh.hit_ns", perOp(d, len(keys)))
	d = tr.timed("rhh.miss", parent, func() {
		for _, k := range keys {
			if _, ok := m.Get(k | 1<<63); ok {
				hits++
			}
		}
	})
	tr.set("rhh.miss_ns", perOp(d, len(keys)))
	tr.t.expect(1, b2u(hits != len(keys)), "rhh: %d hits for %d present and %d absent keys", hits, len(keys), len(keys))
}

// graphLayer replays the workload's events, both directions, into a bare
// store: hybrid as the engine configures it, or pure as WithoutHybrid
// leaves it. Compaction runs at the rank's cadence (four vertices per
// 256-event burst) and is timed apart from the inserts. After CompactAll
// every surviving edge is added again, which is the duplicate-probe path,
// then every adjacency is scanned, then one pair in sixteen is deleted.
func (tr *tracer) graphLayer(pr *prepared, parent int, hybrid bool) {
	prefix := "graph.pure."
	if hybrid {
		prefix = "graph."
	}
	sp := tr.rec.Begin(prefix+"replay", parent, 0)
	defer tr.rec.End(sp)
	heap0 := liveHeap()
	s := graph.NewStore(0)
	if hybrid {
		s.EnableHybrid(graph.DefaultCompactCap)
	}
	var compactTime time.Duration
	ops := 0
	d := tr.timed(prefix+"add_new", sp, func() {
		for i, ev := range pr.events {
			if ev.Delete {
				s.DeleteEdge(ev.Src, ev.Dst)
				s.DeleteEdge(ev.Dst, ev.Src)
			} else {
				s.AddEdge(ev.Src, ev.Dst, ev.W, 0)
				s.AddEdge(ev.Dst, ev.Src, ev.W, 0)
			}
			ops += 2
			if hybrid && i%256 == 255 {
				t0 := time.Now()
				for n := 0; n < 4; n++ {
					if _, _, ok := s.CompactNext(); !ok {
						break
					}
				}
				compactTime += time.Since(t0)
			}
		}
	})
	tr.set(prefix+"add_new_ns", perOp(d-compactTime, ops))
	if hybrid {
		// What share of a scan the delta tier still serves when compaction
		// has only kept the rank's cadence, before CompactAll empties it.
		s.ForEachVertex(func(slot graph.Slot, _ graph.VertexID) bool {
			s.Neighbors(slot, func(graph.VertexID, graph.Weight) bool { return true })
			return true
		})
		tr.set("graph.delta_hit_rate", s.Hybrid().DeltaHitRate())
		compactTime += tr.timed("graph.compact_all", sp, s.CompactAll)
		h := s.Hybrid()
		tr.set("graph.compactions", float64(h.Compactions))
		tr.set("graph.compact_ns", perOp(compactTime, int(h.Compactions)))
		tr.set("graph.promotions", float64(s.Promotions()))
	}
	tr.set(prefix+"heap_b_per_edge", (liveHeap()-heap0)/float64(s.NumEdges()))

	// Every add whose pair survived is now a duplicate of a stored edge.
	var dups []incregraph.EdgeEvent
	for _, ev := range pr.events {
		if !ev.Delete && s.HasEdge(ev.Src, ev.Dst) {
			dups = append(dups, ev)
		}
	}
	d = tr.timed(prefix+"add_dup", sp, func() {
		for _, ev := range dups {
			s.AddEdge(ev.Src, ev.Dst, ev.W, 0)
			s.AddEdge(ev.Dst, ev.Src, ev.W, 0)
		}
	})
	tr.set(prefix+"add_dup_ns", perOp(d, 2*len(dups)))
	edges := s.NumEdges()

	scanned := 0
	d = tr.timed(prefix+"scan", sp, func() {
		s.ForEachVertex(func(slot graph.Slot, _ graph.VertexID) bool {
			s.Neighbors(slot, func(graph.VertexID, graph.Weight) bool {
				scanned++
				return true
			})
			return true
		})
	})
	tr.set(prefix+"scan_ns", perOp(d, scanned))
	tr.t.expect(1, b2u(uint64(scanned) != edges || edges != uint64(tr.exp.HalfEdges)),
		"%sreplay: scanned %d of %d stored half-edges, oracle %d", prefix, scanned, edges, tr.exp.HalfEdges)
	if !hybrid {
		return
	}
	ops = 0
	d = tr.timed("graph.delete", sp, func() {
		for i := 0; i < len(pr.events); i += 16 {
			ev := pr.events[i]
			s.DeleteEdge(ev.Src, ev.Dst)
			s.DeleteEdge(ev.Dst, ev.Src)
			ops += 2
		}
	})
	tr.set("graph.delete_ns", perOp(d, ops))
}

// taxLedger runs the workload once under each optional mechanism's public
// switch and reports its ingest rate over the default's. The ledger lives
// on sssp-r2, where every mechanism is exercised; con-r1 carries the one
// entry that is about construction.
func (tr *tracer) taxLedger(base float64, parent int) error {
	type entry struct {
		name string
		tune func(*incregraph.Config)
	}
	var ledger []entry
	switch tr.w.name {
	case "con-r1":
		ledger = []entry{{"tax.no_hybrid.con", func(c *incregraph.Config) { c.NoHybrid = true }}}
	case "sssp-r2":
		ledger = []entry{
			{"tax.no_coalesce", func(c *incregraph.Config) { c.NoCoalesce = true }},
			{"tax.sample_off", func(c *incregraph.Config) { c.SampleEvery = -1 }},
			{"tax.serve_on", func(c *incregraph.Config) { c.Serve = true }},
			{"tax.autotune", func(c *incregraph.Config) { c.AutoTune = true }},
			{"tax.no_hybrid.sssp", func(c *incregraph.Config) { c.NoHybrid = true }},
		}
	}
	for _, e := range ledger {
		sp := tr.rec.Begin(e.name, parent, 0)
		pr, r, err := tr.once(tr.w, e.tune, tr.rec, sp)
		tr.rec.End(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		tr.set(e.name, pr.evPerS(r)/base)
	}
	return nil
}
