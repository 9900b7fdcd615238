package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"incregraph/internal/core"
)

// Prometheus text exposition (format version 0.0.4), hand-written: the
// module is dependency-free by design, so both the writer and the lint that
// CI uses to keep the writer honest live here. The exposition is a pure
// function of one EngineStats snapshot — WritePrometheus does no locking
// and touches no engine state, so serving /metrics never perturbs the hot
// path beyond the Stats() aggregation itself.

// promFloat renders a float the way Prometheus expects ("+Inf", shortest
// round-trip decimal otherwise).
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func promCounter(w io.Writer, name, help string, v uint64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

func promGauge(w io.Writer, name, help string, v float64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", name, help, name, name, promFloat(v))
}

// promHistogramSeries renders one HistogramSnapshot's sample series
// (cumulative le buckets, +Inf overflow, _sum, _count) under an optional
// fixed label prefix like `peer="1",`. The HELP/TYPE header is the
// caller's job, so several labeled series can share one family. scale
// divides the raw power-of-two bucket bounds and the sum: 1e9 turns the
// engine's nanosecond buckets into seconds, 1 keeps byte-bound buckets as
// bytes.
func promHistogramSeries(w io.Writer, name, labels string, h core.HistogramSnapshot, scale float64) {
	var cum uint64
	for i := 0; i < core.HistBuckets-1; i++ {
		cum += h.Buckets[i]
		le := promFloat(float64(core.HistBucketBound(i)) / scale)
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, labels, le, cum)
	}
	cum += h.Buckets[core.HistBuckets-1]
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, labels, cum)
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %s\n", name, promFloat(float64(h.SumNanos)/scale))
		fmt.Fprintf(w, "%s_count %d\n", name, cum)
		return
	}
	fmt.Fprintf(w, "%s_sum{%s} %s\n", name, strings.TrimSuffix(labels, ","),
		promFloat(float64(h.SumNanos)/scale))
	fmt.Fprintf(w, "%s_count{%s} %d\n", name, strings.TrimSuffix(labels, ","), cum)
}

// promHistogram renders one unlabeled HistogramSnapshot as a Prometheus
// histogram in seconds (the engine's power-of-two nanosecond buckets,
// bound (2^i - 1) ns).
func promHistogram(w io.Writer, name, help string, h core.HistogramSnapshot) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	promHistogramSeries(w, name, "", h, 1e9)
}

// promKind maps an event kind to its label value.
var promKinds = []struct {
	kind core.Kind
	name string
}{
	{core.KindAdd, "add"},
	{core.KindReverseAdd, "reverse_add"},
	{core.KindUpdate, "update"},
	{core.KindInit, "init"},
	{core.KindDelete, "delete"},
	{core.KindReverseDelete, "reverse_delete"},
	{core.KindSignal, "signal"},
	{core.KindInvalidate, "invalidate"},
}

func kindCount(c core.EventCounts, k core.Kind) uint64 {
	switch k {
	case core.KindAdd:
		return c.Adds
	case core.KindReverseAdd:
		return c.ReverseAdds
	case core.KindUpdate:
		return c.Updates
	case core.KindInit:
		return c.Inits
	case core.KindDelete:
		return c.Deletes
	case core.KindReverseDelete:
		return c.ReverseDeletes
	case core.KindSignal:
		return c.Signals
	case core.KindInvalidate:
		return c.Invalidates
	}
	return 0
}

// WritePrometheus renders an EngineStats snapshot in the Prometheus text
// exposition format: run counters, streaming progress/lag gauges, per-rank
// mailbox gauges, and the four latency histograms as cumulative-bucket
// histograms in seconds. The output passes LintProm by construction (a CI
// smoke job and a golden-file test keep that true).
func WritePrometheus(w io.Writer, s core.EngineStats) {
	// Lifecycle + progress gauges.
	fmt.Fprintf(w, "# HELP incregraph_state Engine lifecycle state (1 for the current state).\n")
	fmt.Fprintf(w, "# TYPE incregraph_state gauge\n")
	fmt.Fprintf(w, "incregraph_state{state=%q} 1\n", strings.ToLower(s.State.String()))
	promGauge(w, "incregraph_uptime_seconds",
		"Seconds since Start (0 before Start).", s.Uptime.Seconds())
	promGauge(w, "incregraph_ranks",
		"Configured rank (event-loop goroutine) count.", float64(s.Ranks))

	promCounter(w, "incregraph_ingested_events_total",
		"Topology events pulled from ingestion streams.", s.Ingested)

	fmt.Fprintf(w, "# HELP incregraph_processed_events_total Events processed, by kind.\n")
	fmt.Fprintf(w, "# TYPE incregraph_processed_events_total counter\n")
	for _, k := range promKinds {
		fmt.Fprintf(w, "incregraph_processed_events_total{kind=%q} %d\n",
			k.name, kindCount(s.Events, k.kind))
	}

	// Lag gauges: how far behind the applied state runs the ingested
	// offset, and how much is queued or mid-cascade right now.
	lag := int64(s.Ingested) - int64(s.Events.Topo())
	if lag < 0 {
		lag = 0
	}
	promGauge(w, "incregraph_ingest_lag_events",
		"Ingested-offset minus applied-offset: topology events pulled but not yet processed.",
		float64(lag))
	promGauge(w, "incregraph_inflight_events",
		"Current in-flight ring depth: events buffered, queued, or mid-processing.",
		float64(s.InFlight))
	promGauge(w, "incregraph_mailbox_depth_events",
		"Current total inbound mailbox depth over all ranks (approximate).",
		float64(s.MailboxDepth))

	promCounter(w, "incregraph_messages_sent_total",
		"Events delivered to other ranks' mailboxes.", s.MessagesSent)
	promCounter(w, "incregraph_flushes_total",
		"Outbound batch flushes that carried those messages.", s.Flushes)
	promCounter(w, "incregraph_cascade_emits_total",
		"Events generated by program callbacks and the undirected-edge protocol.", s.CascadeEmits)
	promCounter(w, "incregraph_self_delivered_total",
		"Events routed through the mailbox-bypassing self-delivery ring.", s.SelfDelivered)
	promCounter(w, "incregraph_combined_away_total",
		"UPDATE events eliminated by monotone coalescing before delivery.", s.CombinedAway)
	promCounter(w, "incregraph_batches_drained_total",
		"Non-empty mailbox drains.", s.BatchesDrained)
	promCounter(w, "incregraph_queries_served_total",
		"Local-state observations answered.", s.QueriesServed)
	promCounter(w, "incregraph_snapshots_taken_total",
		"Asynchronous snapshot requests.", s.SnapshotsTaken)

	// Per-rank mailbox gauges (the saturation view: which rank is behind).
	fmt.Fprintf(w, "# HELP incregraph_rank_mailbox_depth_events Current inbound mailbox depth per rank (approximate).\n")
	fmt.Fprintf(w, "# TYPE incregraph_rank_mailbox_depth_events gauge\n")
	for _, r := range s.PerRank {
		fmt.Fprintf(w, "incregraph_rank_mailbox_depth_events{rank=\"%d\"} %d\n", r.Rank, r.MailboxDepth)
	}
	fmt.Fprintf(w, "# HELP incregraph_rank_mailbox_high_water_events Deepest the rank's inbound mailbox has ever been.\n")
	fmt.Fprintf(w, "# TYPE incregraph_rank_mailbox_high_water_events gauge\n")
	for _, r := range s.PerRank {
		fmt.Fprintf(w, "incregraph_rank_mailbox_high_water_events{rank=\"%d\"} %d\n", r.Rank, r.MailboxHWM)
	}

	// Hybrid storage tier + auto-tune controller.
	if s.Storage.Hybrid {
		promCounter(w, "incregraph_compactions_total",
			"Hybrid-tier delta-to-segment merges completed.", s.Storage.Compactions)
		promGauge(w, "incregraph_segment_edges",
			"Edges currently resident in compacted immutable segments.",
			float64(s.Storage.SegmentEdges))
		promCounter(w, "incregraph_segment_clones_total",
			"Copy-on-write segment clones (weight merges and deletes on segment-resident edges).",
			s.Storage.SegClones)
		fmt.Fprintf(w, "# HELP incregraph_adjacency_scanned_total Adjacency entries iterated during neighbor walks, by storage tier.\n")
		fmt.Fprintf(w, "# TYPE incregraph_adjacency_scanned_total counter\n")
		fmt.Fprintf(w, "incregraph_adjacency_scanned_total{tier=\"segment\"} %d\n", s.Storage.SegScanned)
		fmt.Fprintf(w, "incregraph_adjacency_scanned_total{tier=\"delta\"} %d\n", s.Storage.DeltaScanned)
		promGauge(w, "incregraph_delta_hit_rate",
			"Fraction of adjacency-scan traffic served by the mutable delta tier (lower = better locality).",
			s.Storage.DeltaHitRate())
	}
	if s.AutoTune {
		promCounter(w, "incregraph_autotune_adjusts_total",
			"Auto-tune controller decisions that changed a knob.", s.TuneAdjusts)
		fmt.Fprintf(w, "# HELP incregraph_rank_effective_batch_size Effective outbound batch size per rank (auto-tuned).\n")
		fmt.Fprintf(w, "# TYPE incregraph_rank_effective_batch_size gauge\n")
		for _, r := range s.PerRank {
			fmt.Fprintf(w, "incregraph_rank_effective_batch_size{rank=\"%d\"} %d\n", r.Rank, r.EffBatch)
		}
	}

	// Cascade sampler accounting + the latency histograms.
	promGauge(w, "incregraph_trace_sample_every",
		"Cascade sampling stride (one traced cascade per this many ingests per rank; 0 = disabled).",
		float64(s.Latency.SampleEvery))
	promCounter(w, "incregraph_trace_sampled_total",
		"Cascades traced to quiescence.", s.Latency.Sampled)
	promCounter(w, "incregraph_trace_dropped_total",
		"Sampling points skipped because every trace slot was busy.", s.Latency.Dropped)
	promGauge(w, "incregraph_trace_active",
		"Traces currently in flight.", float64(s.Latency.Active))

	// Transport: which update plane is active and — for multi-process
	// runs — the per-peer wire counters the termination protocol compares.
	fmt.Fprintf(w, "# HELP incregraph_transport_info Active transport (the 1-valued series names the kind; node/nodes locate this process).\n")
	fmt.Fprintf(w, "# TYPE incregraph_transport_info gauge\n")
	fmt.Fprintf(w, "incregraph_transport_info{kind=%q,node=\"%d\",nodes=\"%d\"} 1\n",
		s.Transport.Kind, s.Transport.Node, s.Transport.Nodes)
	if len(s.Transport.Peers) > 0 {
		peerCounter := func(name, help string, get func(core.PeerTransportStats) uint64) {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
			for _, p := range s.Transport.Peers {
				fmt.Fprintf(w, "%s{peer=\"%d\"} %d\n", name, p.Node, get(p))
			}
		}
		peerCounter("incregraph_transport_sent_events_total",
			"Engine events shipped to the peer.",
			func(p core.PeerTransportStats) uint64 { return p.SentEvents })
		peerCounter("incregraph_transport_recv_events_total",
			"Engine events received from the peer.",
			func(p core.PeerTransportStats) uint64 { return p.RecvEvents })
		peerCounter("incregraph_transport_acked_events_total",
			"Cumulative receive count the peer last acknowledged.",
			func(p core.PeerTransportStats) uint64 { return p.AckedEvents })
		peerCounter("incregraph_transport_sent_frames_total",
			"Wire frames (event and control) written to the peer.",
			func(p core.PeerTransportStats) uint64 { return p.SentFrames })
		peerCounter("incregraph_transport_recv_frames_total",
			"Wire frames read from the peer.",
			func(p core.PeerTransportStats) uint64 { return p.RecvFrames })
		peerCounter("incregraph_transport_reconnects_total",
			"Dial attempts beyond each connection's first.",
			func(p core.PeerTransportStats) uint64 { return p.Reconnects })
		peerCounter("incregraph_transport_sent_bytes_total",
			"Wire bytes written to the peer (frame headers included).",
			func(p core.PeerTransportStats) uint64 { return p.SentBytes })
		peerCounter("incregraph_transport_recv_bytes_total",
			"Wire bytes read from the peer (frame headers included).",
			func(p core.PeerTransportStats) uint64 { return p.RecvBytes })
		peerCounter("incregraph_transport_backoffs_total",
			"Dial-retry backoff sleeps taken before the peer channel connected.",
			func(p core.PeerTransportStats) uint64 { return p.Backoffs })
		fmt.Fprintf(w, "# HELP incregraph_transport_frame_bytes Outbound wire frame sizes per peer, in bytes.\n")
		fmt.Fprintf(w, "# TYPE incregraph_transport_frame_bytes histogram\n")
		for _, p := range s.Transport.Peers {
			promHistogramSeries(w, "incregraph_transport_frame_bytes",
				fmt.Sprintf("peer=\"%d\",", p.Node), p.FrameBytes, 1)
		}
		fmt.Fprintf(w, "# HELP incregraph_transport_ack_rtt_seconds Event send to credit acknowledgement round trip per peer.\n")
		fmt.Fprintf(w, "# TYPE incregraph_transport_ack_rtt_seconds histogram\n")
		for _, p := range s.Transport.Peers {
			promHistogramSeries(w, "incregraph_transport_ack_rtt_seconds",
				fmt.Sprintf("peer=\"%d\",", p.Node), p.AckRTT, 1e9)
		}
	}

	// Flight recorder + stall watchdog (always present — the ring is
	// armed on every engine, the watchdog only on multi-process ones).
	promCounter(w, "incregraph_flightrec_recorded_total",
		"Protocol-level events the flight recorder has seen (ring keeps the newest incregraph_flightrec_capacity).",
		s.Flight.Recorded)
	promGauge(w, "incregraph_flightrec_capacity",
		"Flight recorder ring capacity (entries retained).", float64(s.Flight.Capacity))
	promCounter(w, "incregraph_stall_watchdog_fires_total",
		"Times the stall watchdog detected no protocol progress past the deadline and dumped state.",
		s.Flight.WatchdogFires)

	// MVCC read plane: epochs, publications, per-verb read counters, and
	// the query latency histograms. Emitted only when the plane is on so
	// ingest-only deployments keep their exposition unchanged.
	if s.Serve.Enabled {
		promGauge(w, "incregraph_serve_epoch",
			"Current read-plane epoch.", float64(s.Serve.Epoch))
		promGauge(w, "incregraph_serve_published_epoch",
			"Minimum epoch across published segments (staleness floor of every read).",
			float64(s.Serve.PublishedEpoch))
		promCounter(w, "incregraph_serve_publishes_total",
			"Read-plane segment publications with new content.", s.Serve.Publishes)
		promCounter(w, "incregraph_serve_restamps_total",
			"Publications elided because the rank processed nothing since its last segment.",
			s.Serve.Restamps)
		promCounter(w, "incregraph_serve_copied_slots_total",
			"Vertex slots copied into read-plane segments by publications.",
			s.Serve.CopiedSlots)
		fmt.Fprintf(w, "# HELP incregraph_query_reads_total Read-plane queries served, by verb.\n")
		fmt.Fprintf(w, "# TYPE incregraph_query_reads_total counter\n")
		fmt.Fprintf(w, "incregraph_query_reads_total{verb=\"point\"} %d\n", s.Serve.PointReads)
		fmt.Fprintf(w, "incregraph_query_reads_total{verb=\"batch\"} %d\n", s.Serve.BatchReads)
		fmt.Fprintf(w, "incregraph_query_reads_total{verb=\"topk\"} %d\n", s.Serve.TopKReads)
		fmt.Fprintf(w, "incregraph_query_reads_total{verb=\"neighborhood\"} %d\n", s.Serve.NbhdReads)
		promCounter(w, "incregraph_query_read_vertices_total",
			"Vertices returned across all read-plane queries.", s.Serve.ReadVertices)
		promHistogram(w, "incregraph_query_point_seconds",
			"Read-plane point lookups: request to value (sampled).", s.Latency.QueryPoint)
		promHistogram(w, "incregraph_query_batch_seconds",
			"Read-plane batch lookups: request to last value (sampled).", s.Latency.QueryBatch)
		promHistogram(w, "incregraph_query_topk_seconds",
			"Read-plane top-k scans (sampled).", s.Latency.QueryTopK)
		promHistogram(w, "incregraph_query_neighborhood_seconds",
			"Read-plane k-hop neighborhood reads (sampled).", s.Latency.QueryNbhd)
	}

	promHistogram(w, "incregraph_ingest_to_quiesce_seconds",
		"Sampled edge events: stream pull to cascade quiescence.", s.Latency.IngestToQuiesce)
	promHistogram(w, "incregraph_mailbox_residency_seconds",
		"Inbound batches: producer push to consumer drain (sampled).", s.Latency.MailboxResidency)
	promHistogram(w, "incregraph_batch_drain_seconds",
		"Processing time of one drained mailbox batch (sampled).", s.Latency.BatchDrain)
	promHistogram(w, "incregraph_flush_interval_seconds",
		"Interval between consecutive outbound flushes of a rank.", s.Latency.FlushInterval)
}

// WriteClusterPrometheus renders a federated cluster view: one sample per
// process for each incregraph_cluster_* family, labeled by the process's
// node index (and peer, for the cross-node transport counters). The input
// is a ClusterStats result — the coordinator's snapshot plus every peer
// snapshot that answered the stats poll; absent peers simply have no
// samples. Like WritePrometheus, the output passes LintProm by
// construction.
func WriteClusterPrometheus(w io.Writer, cluster []core.NodeEngineStats) {
	nodeGauge := func(name, help string, get func(core.EngineStats) float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
		for _, n := range cluster {
			fmt.Fprintf(w, "%s{node=\"%d\"} %s\n", name, n.Node, promFloat(get(n.Stats)))
		}
	}
	nodeCounter := func(name, help string, get func(core.EngineStats) uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, n := range cluster {
			fmt.Fprintf(w, "%s{node=\"%d\"} %d\n", name, n.Node, get(n.Stats))
		}
	}
	peerCounter := func(name, help string, get func(core.PeerTransportStats) uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, n := range cluster {
			for _, p := range n.Stats.Transport.Peers {
				fmt.Fprintf(w, "%s{node=\"%d\",peer=\"%d\"} %d\n", name, n.Node, p.Node, get(p))
			}
		}
	}

	fmt.Fprintf(w, "# HELP incregraph_cluster_nodes Processes that answered the federated stats poll.\n")
	fmt.Fprintf(w, "# TYPE incregraph_cluster_nodes gauge\n")
	fmt.Fprintf(w, "incregraph_cluster_nodes %d\n", len(cluster))
	fmt.Fprintf(w, "# HELP incregraph_cluster_node_info Per-process identity (the 1-valued series carries state and transport kind).\n")
	fmt.Fprintf(w, "# TYPE incregraph_cluster_node_info gauge\n")
	for _, n := range cluster {
		fmt.Fprintf(w, "incregraph_cluster_node_info{node=\"%d\",state=%q,kind=%q} 1\n",
			n.Node, strings.ToLower(n.Stats.State.String()), n.Stats.Transport.Kind)
	}

	nodeGauge("incregraph_cluster_uptime_seconds",
		"Seconds since the process's Start.",
		func(s core.EngineStats) float64 { return s.Uptime.Seconds() })
	nodeGauge("incregraph_cluster_ranks",
		"Ranks hosted by the process.",
		func(s core.EngineStats) float64 { return float64(s.Ranks) })
	nodeCounter("incregraph_cluster_ingested_events_total",
		"Topology events the process pulled from its ingestion streams.",
		func(s core.EngineStats) uint64 { return s.Ingested })

	fmt.Fprintf(w, "# HELP incregraph_cluster_processed_events_total Events processed per process, by kind.\n")
	fmt.Fprintf(w, "# TYPE incregraph_cluster_processed_events_total counter\n")
	for _, n := range cluster {
		for _, k := range promKinds {
			fmt.Fprintf(w, "incregraph_cluster_processed_events_total{node=\"%d\",kind=%q} %d\n",
				n.Node, k.name, kindCount(n.Stats.Events, k.kind))
		}
	}

	nodeCounter("incregraph_cluster_messages_sent_total",
		"Events the process delivered to other ranks' mailboxes (local and remote).",
		func(s core.EngineStats) uint64 { return s.MessagesSent })
	nodeCounter("incregraph_cluster_queries_served_total",
		"Local-state observations the process answered.",
		func(s core.EngineStats) uint64 { return s.QueriesServed })
	nodeGauge("incregraph_cluster_inflight_events",
		"Current in-flight ring depth on the process.",
		func(s core.EngineStats) float64 { return float64(s.InFlight) })
	nodeGauge("incregraph_cluster_mailbox_depth_events",
		"Current total inbound mailbox depth over the process's ranks (approximate).",
		func(s core.EngineStats) float64 { return float64(s.MailboxDepth) })
	nodeCounter("incregraph_cluster_trace_sampled_total",
		"Cascades the process's lineage sampler traced to quiescence.",
		func(s core.EngineStats) uint64 { return s.Latency.Sampled })

	peerCounter("incregraph_cluster_transport_sent_events_total",
		"Engine events shipped node to peer.",
		func(p core.PeerTransportStats) uint64 { return p.SentEvents })
	peerCounter("incregraph_cluster_transport_recv_events_total",
		"Engine events received node from peer.",
		func(p core.PeerTransportStats) uint64 { return p.RecvEvents })
	peerCounter("incregraph_cluster_transport_sent_bytes_total",
		"Wire bytes written node to peer (frame headers included).",
		func(p core.PeerTransportStats) uint64 { return p.SentBytes })
	peerCounter("incregraph_cluster_transport_recv_bytes_total",
		"Wire bytes read node from peer (frame headers included).",
		func(p core.PeerTransportStats) uint64 { return p.RecvBytes })
	peerCounter("incregraph_cluster_transport_reconnects_total",
		"Dial attempts beyond each peer connection's first.",
		func(p core.PeerTransportStats) uint64 { return p.Reconnects })

	nodeCounter("incregraph_cluster_flightrec_recorded_total",
		"Protocol-level events the process's flight recorder has seen.",
		func(s core.EngineStats) uint64 { return s.Flight.Recorded })
	nodeCounter("incregraph_cluster_stall_watchdog_fires_total",
		"Stall-watchdog fires on the process.",
		func(s core.EngineStats) uint64 { return s.Flight.WatchdogFires })
}

// LintProm validates Prometheus text exposition data: comment/metadata
// syntax, metric and label name grammar, parseable sample values, TYPE
// consistency (samples of a typed family must match its declared shape),
// and histogram integrity (bucket counts cumulative and non-decreasing in
// le order, a +Inf bucket present and equal to _count). It is the repo's
// stand-in for an external exposition-format parser and is what the CI
// metrics smoke job runs against a live /metrics body.
func LintProm(data []byte) error {
	types := map[string]string{}
	declared := map[string]bool{} // HELP or TYPE seen (at most once each)
	helped := map[string]bool{}
	type sample struct {
		labels map[string]string
		value  float64
	}
	samples := map[string][]sample{}

	for i, line := range strings.Split(string(data), "\n") {
		ln := i + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			rest := strings.TrimPrefix(line, "# ")
			if rest == line {
				continue // free-form comment
			}
			fields := strings.SplitN(rest, " ", 3)
			if len(fields) < 2 {
				return fmt.Errorf("line %d: malformed metadata comment", ln)
			}
			switch fields[0] {
			case "HELP":
				if !validMetricName(fields[1]) {
					return fmt.Errorf("line %d: bad metric name %q in HELP", ln, fields[1])
				}
				if helped[fields[1]] {
					return fmt.Errorf("line %d: duplicate HELP for %s", ln, fields[1])
				}
				helped[fields[1]] = true
				declared[fields[1]] = true
			case "TYPE":
				if len(fields) != 3 {
					return fmt.Errorf("line %d: TYPE needs a metric name and a type", ln)
				}
				switch fields[2] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fmt.Errorf("line %d: unknown metric type %q", ln, fields[2])
				}
				if !validMetricName(fields[1]) {
					return fmt.Errorf("line %d: bad metric name %q in TYPE", ln, fields[1])
				}
				if _, dup := types[fields[1]]; dup {
					return fmt.Errorf("line %d: duplicate TYPE for %s", ln, fields[1])
				}
				if len(samples[fields[1]]) > 0 {
					return fmt.Errorf("line %d: TYPE for %s after its samples", ln, fields[1])
				}
				types[fields[1]] = fields[2]
			default:
				// Any other comment form is legal and ignored.
			}
			continue
		}
		name, labels, valueStr, err := parsePromSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %v", ln, err)
		}
		v, err := parsePromValue(valueStr)
		if err != nil {
			return fmt.Errorf("line %d: bad value %q: %v", ln, valueStr, err)
		}
		base := promBase(name, types)
		if t, typed := types[base]; typed {
			switch t {
			case "counter":
				if v < 0 {
					return fmt.Errorf("line %d: counter %s has negative value", ln, name)
				}
				if name != base {
					return fmt.Errorf("line %d: counter sample %s does not match family %s", ln, name, base)
				}
			case "histogram":
				switch {
				case name == base+"_bucket":
					if _, ok := labels["le"]; !ok {
						return fmt.Errorf("line %d: histogram bucket %s without le label", ln, name)
					}
				case name == base+"_sum", name == base+"_count":
				default:
					return fmt.Errorf("line %d: sample %s does not fit histogram family %s", ln, name, base)
				}
			}
		}
		samples[name] = append(samples[name], sample{labels: labels, value: v})
	}

	// Histogram integrity, per family.
	for fam, t := range types {
		if t != "histogram" {
			continue
		}
		buckets := samples[fam+"_bucket"]
		if len(buckets) == 0 {
			return fmt.Errorf("histogram %s has no buckets", fam)
		}
		// Group by the label set minus le (this exposition has none, but
		// stay general).
		groups := map[string][]sample{}
		for _, b := range buckets {
			key := labelKey(b.labels, "le")
			groups[key] = append(groups[key], b)
		}
		counts := samples[fam+"_count"]
		if len(samples[fam+"_sum"]) == 0 || len(counts) == 0 {
			return fmt.Errorf("histogram %s missing _sum or _count", fam)
		}
		for key, g := range groups {
			sort.Slice(g, func(i, j int) bool {
				li, _ := parsePromValue(g[i].labels["le"])
				lj, _ := parsePromValue(g[j].labels["le"])
				return li < lj
			})
			var prev float64 = -1
			var inf bool
			var infVal float64
			for _, b := range g {
				le, err := parsePromValue(b.labels["le"])
				if err != nil {
					return fmt.Errorf("histogram %s: bad le %q", fam, b.labels["le"])
				}
				if b.value < prev {
					return fmt.Errorf("histogram %s{%s}: bucket counts not cumulative at le=%q",
						fam, key, b.labels["le"])
				}
				prev = b.value
				if math.IsInf(le, 1) {
					inf, infVal = true, b.value
				}
			}
			if !inf {
				return fmt.Errorf("histogram %s{%s}: no +Inf bucket", fam, key)
			}
			for _, c := range counts {
				if labelKey(c.labels, "le") == key && c.value != infVal {
					return fmt.Errorf("histogram %s{%s}: _count %v != +Inf bucket %v",
						fam, key, c.value, infVal)
				}
			}
		}
	}
	return nil
}

// labelKey serializes a label set (minus one skipped label) into a stable
// grouping key.
func labelKey(labels map[string]string, skip string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != skip {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%q,", k, labels[k])
	}
	return b.String()
}

// promBase strips a histogram sample suffix back to its declared family
// name, if that family is typed as a histogram.
func promBase(name string, types map[string]string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name && types[base] == "histogram" {
			return base
		}
	}
	return name
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// parsePromValue parses a sample or le value, accepting the exposition
// format's infinity spellings.
func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// parsePromSample splits one sample line into name, labels, and the value
// string (a trailing timestamp is accepted and discarded).
func parsePromSample(line string) (name string, labels map[string]string, value string, err error) {
	rest := line
	brace := strings.IndexByte(rest, '{')
	sp := strings.IndexAny(rest, " \t")
	if brace >= 0 && (sp < 0 || brace < sp) {
		name = rest[:brace]
		rest = rest[brace+1:]
		labels, rest, err = parsePromLabels(rest)
		if err != nil {
			return "", nil, "", err
		}
	} else {
		if sp < 0 {
			return "", nil, "", fmt.Errorf("sample line without value")
		}
		name = rest[:sp]
		rest = rest[sp:]
	}
	if !validMetricName(name) {
		return "", nil, "", fmt.Errorf("bad metric name %q", name)
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", nil, "", fmt.Errorf("expected value [timestamp], got %q", strings.TrimSpace(rest))
	}
	if len(fields) == 2 {
		if _, terr := strconv.ParseInt(fields[1], 10, 64); terr != nil {
			return "", nil, "", fmt.Errorf("bad timestamp %q", fields[1])
		}
	}
	return name, labels, fields[0], nil
}

// parsePromLabels parses `name="value",...}` (the caller consumed the
// opening brace) and returns the remainder after the closing brace.
func parsePromLabels(s string) (map[string]string, string, error) {
	labels := map[string]string{}
	for {
		s = strings.TrimLeft(s, " \t")
		if strings.HasPrefix(s, "}") {
			return labels, s[1:], nil
		}
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, "", fmt.Errorf("label without '='")
		}
		lname := strings.TrimSpace(s[:eq])
		if !validLabelName(lname) {
			return nil, "", fmt.Errorf("bad label name %q", lname)
		}
		s = s[eq+1:]
		if !strings.HasPrefix(s, `"`) {
			return nil, "", fmt.Errorf("label value for %q not quoted", lname)
		}
		s = s[1:]
		var val strings.Builder
		for {
			if s == "" {
				return nil, "", fmt.Errorf("unterminated label value for %q", lname)
			}
			c := s[0]
			s = s[1:]
			if c == '"' {
				break
			}
			if c == '\\' {
				if s == "" {
					return nil, "", fmt.Errorf("dangling escape in label value for %q", lname)
				}
				e := s[0]
				s = s[1:]
				switch e {
				case '\\', '"':
					val.WriteByte(e)
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, "", fmt.Errorf("bad escape \\%c in label value for %q", e, lname)
				}
				continue
			}
			val.WriteByte(c)
		}
		if _, dup := labels[lname]; dup {
			return nil, "", fmt.Errorf("duplicate label %q", lname)
		}
		labels[lname] = val.String()
		s = strings.TrimLeft(s, " \t")
		if strings.HasPrefix(s, ",") {
			s = s[1:]
			continue
		}
		if strings.HasPrefix(s, "}") {
			return labels, s[1:], nil
		}
		return nil, "", fmt.Errorf("expected ',' or '}' after label %q", lname)
	}
}
