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
//
// Every family is declared once, as a row of the families table; both the
// per-process and the federated cluster view render from it.

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

// family is one metric family of the exposition, a row of the families
// table. gate, when set, leaves the family out of a snapshot that does not
// carry it (no hybrid tier, no auto-tune, no read plane, no peers). get
// reads its value from a snapshot: one unlabelled sample value, or a
// []sample. fedHelp, when set, also puts the family in the federated view
// as incregraph_cluster_*, with a node label ahead of its own labels.
type family struct {
	name, typ     string
	gate          func(stats) bool
	get           func(stats) any
	help, fedHelp string
}

// Short names for the table's getters.
type (
	stats = core.EngineStats
	peer  = core.PeerTransportStats
)

// sample is one labelled value of a family. labels is the label list
// without braces (`kind="add"`); v is an integer (printed %d), a float64
// (promFloat) or a core.HistogramSnapshot (a cumulative bucket series).
type sample struct {
	labels string
	v      any
}

// samples reads f's samples from s.
func (f family) samples(s stats) []sample {
	v := f.get(s)
	if xs, ok := v.([]sample); ok {
		return xs
	}
	return []sample{{v: v}}
}

// fedName is the family's name in the federated view.
func (f family) fedName() string {
	return "incregraph_cluster_" + strings.TrimPrefix(f.name, "incregraph_")
}

// perRank labels one value per rank.
func perRank(get func(core.RankEngineStats) any) func(stats) any {
	return func(s stats) any {
		out := make([]sample, len(s.PerRank))
		for i, r := range s.PerRank {
			out[i] = sample{fmt.Sprintf(`rank="%d"`, r.Rank), get(r)}
		}
		return out
	}
}

// perPeer labels one value per transport peer.
func perPeer(get func(peer) any) func(stats) any {
	return func(s stats) any {
		out := make([]sample, len(s.Transport.Peers))
		for i, p := range s.Transport.Peers {
			out[i] = sample{fmt.Sprintf(`peer="%d"`, p.Node), get(p)}
		}
		return out
	}
}

func autoTune(s stats) bool { return s.AutoTune }
func hasPeers(s stats) bool { return len(s.Transport.Peers) > 0 }
func serving(s stats) bool  { return s.Serve.Enabled }

// families is the metric contract, in exposition order.
var families = []family{
	// Lifecycle, progress and lag.
	{"incregraph_state", "gauge", nil, func(s stats) any {
		return []sample{{fmt.Sprintf("state=%q", strings.ToLower(s.State.String())), 1}}
	}, "Engine lifecycle state (1 for the current state).", ""},
	{"incregraph_uptime_seconds", "gauge", nil, func(s stats) any { return s.Uptime.Seconds() },
		"Seconds since Start (0 before Start).", "Seconds since the process's Start."},
	{"incregraph_ranks", "gauge", nil, func(s stats) any { return s.Ranks },
		"Configured rank (event-loop goroutine) count.", "Ranks hosted by the process."},
	{"incregraph_ingested_events_total", "counter", nil, func(s stats) any { return s.Ingested },
		"Topology events pulled from ingestion streams.",
		"Topology events the process pulled from its ingestion streams."},
	{"incregraph_processed_events_total", "counter", nil, func(s stats) any {
		c := s.Events
		return []sample{{`kind="add"`, c.Adds}, {`kind="reverse_add"`, c.ReverseAdds},
			{`kind="update"`, c.Updates}, {`kind="init"`, c.Inits},
			{`kind="delete"`, c.Deletes}, {`kind="reverse_delete"`, c.ReverseDeletes},
			{`kind="signal"`, c.Signals}, {`kind="invalidate"`, c.Invalidates}}
	}, "Events processed, by kind.", "Events processed per process, by kind."},
	{"incregraph_ingest_lag_events", "gauge", nil, func(s stats) any { return s.IngestLag() },
		"Ingested-offset minus applied-offset: topology events pulled but not yet processed.", ""},
	{"incregraph_inflight_events", "gauge", nil, func(s stats) any { return s.InFlight },
		"Current in-flight ring depth: events buffered, queued, or mid-processing.",
		"Current in-flight ring depth on the process."},
	{"incregraph_mailbox_depth_events", "gauge", nil, func(s stats) any { return s.MailboxDepth },
		"Current total inbound mailbox depth over all ranks (approximate).",
		"Current total inbound mailbox depth over the process's ranks (approximate)."},

	// Traffic and control-plane counters.
	{"incregraph_messages_sent_total", "counter", nil, func(s stats) any { return s.MessagesSent },
		"Events delivered to other ranks' mailboxes.",
		"Events the process delivered to other ranks' mailboxes (local and remote)."},
	{"incregraph_flushes_total", "counter", nil, func(s stats) any { return s.Flushes },
		"Outbound batch flushes that carried those messages.", ""},
	{"incregraph_cascade_emits_total", "counter", nil, func(s stats) any { return s.CascadeEmits },
		"Events generated by program callbacks and the undirected-edge protocol.", ""},
	{"incregraph_self_delivered_total", "counter", nil, func(s stats) any { return s.SelfDelivered },
		"Events routed through the mailbox-bypassing self-delivery ring.", ""},
	{"incregraph_combined_away_total", "counter", nil, func(s stats) any { return s.CombinedAway },
		"UPDATE events eliminated by monotone coalescing before delivery.", ""},
	{"incregraph_batches_drained_total", "counter", nil, func(s stats) any { return s.BatchesDrained },
		"Non-empty mailbox drains.", ""},
	{"incregraph_deletes_rewitnessed_total", "counter", nil, func(s stats) any { return s.Rewitnessed },
		"Unsafe edge deletions (per endpoint) resolved by re-pointing the doomed witness instead of an invalidation flood.",
		"Unsafe edge deletions (per endpoint) the process resolved by re-pointing the doomed witness instead of flooding."},
	{"incregraph_queries_served_total", "counter", nil, func(s stats) any { return s.QueriesServed },
		"Local-state observations answered.", "Local-state observations the process answered."},
	{"incregraph_snapshots_taken_total", "counter", nil, func(s stats) any { return s.SnapshotsTaken },
		"Asynchronous snapshot requests.", ""},

	// Per-rank mailbox gauges (the saturation view: which rank is behind).
	{"incregraph_rank_mailbox_depth_events", "gauge", nil,
		perRank(func(r core.RankEngineStats) any { return r.MailboxDepth }),
		"Current inbound mailbox depth per rank (approximate).", ""},
	{"incregraph_rank_mailbox_high_water_events", "gauge", nil,
		perRank(func(r core.RankEngineStats) any { return r.MailboxHWM }),
		"Deepest the rank's inbound mailbox has ever been.", ""},

	// Adjacency store + auto-tune controller.
	{"incregraph_segment_clones_total", "counter", nil, func(s stats) any { return s.Storage.SegClones },
		"Copy-on-write clones of adjacency arrays the read plane shares (weight merges and deletes).", ""},
	{"incregraph_autotune_adjusts_total", "counter", autoTune, func(s stats) any { return s.TuneAdjusts },
		"Auto-tune controller decisions that changed a knob.", ""},
	{"incregraph_rank_effective_batch_size", "gauge", autoTune,
		perRank(func(r core.RankEngineStats) any { return r.EffBatch }),
		"Effective outbound batch size per rank (auto-tuned).", ""},

	// Cascade sampler accounting.
	{"incregraph_trace_sample_every", "gauge", nil, func(s stats) any { return s.Latency.SampleEvery },
		"Cascade sampling stride (one traced cascade per this many ingests per rank; 0 = disabled).", ""},
	{"incregraph_trace_sampled_total", "counter", nil, func(s stats) any { return s.Latency.Sampled },
		"Cascades traced to quiescence.", "Cascades the process's lineage sampler traced to quiescence."},
	{"incregraph_trace_dropped_total", "counter", nil, func(s stats) any { return s.Latency.Dropped },
		"Sampling points skipped because every trace slot was busy.", ""},
	{"incregraph_trace_active", "gauge", nil, func(s stats) any { return s.Latency.Active },
		"Traces currently in flight.", ""},

	// Transport: which update plane is active and — for multi-process
	// runs — the per-peer wire counters the termination protocol compares.
	{"incregraph_transport_info", "gauge", nil, func(s stats) any {
		t := s.Transport
		return []sample{{fmt.Sprintf(`kind=%q,node="%d",nodes="%d"`, t.Kind, t.Node, t.Nodes), 1}}
	}, "Active transport (the 1-valued series names the kind; node/nodes locate this process).", ""},
	{"incregraph_transport_sent_events_total", "counter", hasPeers, perPeer(func(p peer) any { return p.SentEvents }),
		"Engine events shipped to the peer.", "Engine events shipped node to peer."},
	{"incregraph_transport_recv_events_total", "counter", hasPeers, perPeer(func(p peer) any { return p.RecvEvents }),
		"Engine events received from the peer.", "Engine events received node from peer."},
	{"incregraph_transport_acked_events_total", "counter", hasPeers, perPeer(func(p peer) any { return p.AckedEvents }),
		"Cumulative receive count the peer last acknowledged.", ""},
	{"incregraph_transport_sent_frames_total", "counter", hasPeers, perPeer(func(p peer) any { return p.SentFrames }),
		"Wire frames (event and control) written to the peer.", ""},
	{"incregraph_transport_recv_frames_total", "counter", hasPeers, perPeer(func(p peer) any { return p.RecvFrames }),
		"Wire frames read from the peer.", ""},
	{"incregraph_transport_reconnects_total", "counter", hasPeers, perPeer(func(p peer) any { return p.Reconnects }),
		"Dial attempts beyond each connection's first.", "Dial attempts beyond each peer connection's first."},
	{"incregraph_transport_sent_bytes_total", "counter", hasPeers, perPeer(func(p peer) any { return p.SentBytes }),
		"Wire bytes written to the peer (frame headers included).",
		"Wire bytes written node to peer (frame headers included)."},
	{"incregraph_transport_recv_bytes_total", "counter", hasPeers, perPeer(func(p peer) any { return p.RecvBytes }),
		"Wire bytes read from the peer (frame headers included).",
		"Wire bytes read node from peer (frame headers included)."},
	{"incregraph_transport_backoffs_total", "counter", hasPeers, perPeer(func(p peer) any { return p.Backoffs }),
		"Dial-retry backoff sleeps taken before the peer channel connected.", ""},
	{"incregraph_transport_frame_bytes", "histogram", hasPeers, perPeer(func(p peer) any { return p.FrameBytes }),
		"Outbound wire frame sizes per peer, in bytes.", ""},
	{"incregraph_transport_ack_rtt_seconds", "histogram", hasPeers, perPeer(func(p peer) any { return p.AckRTT }),
		"Event send to credit acknowledgement round trip per peer.", ""},

	// Flight recorder + stall watchdog (always present — the ring is
	// armed on every engine, the watchdog only on multi-process ones).
	{"incregraph_flightrec_recorded_total", "counter", nil, func(s stats) any { return s.Flight.Recorded },
		"Protocol-level events the flight recorder has seen (ring keeps the newest incregraph_flightrec_capacity).",
		"Protocol-level events the process's flight recorder has seen."},
	{"incregraph_flightrec_capacity", "gauge", nil, func(s stats) any { return s.Flight.Capacity },
		"Flight recorder ring capacity (entries retained).", ""},
	{"incregraph_stall_watchdog_fires_total", "counter", nil, func(s stats) any { return s.Flight.WatchdogFires },
		"Times the stall watchdog detected no protocol progress past the deadline and dumped state.",
		"Stall-watchdog fires on the process."},

	// MVCC read plane: epochs, publications, per-verb read counters, and
	// the query latency histograms. Gated so ingest-only deployments keep
	// their exposition unchanged.
	{"incregraph_serve_epoch", "gauge", serving, func(s stats) any { return s.Serve.Epoch },
		"Current read-plane epoch.", ""},
	{"incregraph_serve_published_epoch", "gauge", serving, func(s stats) any { return s.Serve.PublishedEpoch },
		"Minimum epoch across published segments (staleness floor of every read).", ""},
	{"incregraph_serve_publishes_total", "counter", serving, func(s stats) any { return s.Serve.Publishes },
		"Read-plane segment publications with new content.", ""},
	{"incregraph_serve_restamps_total", "counter", serving, func(s stats) any { return s.Serve.Restamps },
		"Publications elided because the rank processed nothing since its last segment.", ""},
	{"incregraph_serve_copied_slots_total", "counter", serving, func(s stats) any { return s.Serve.CopiedSlots },
		"Vertex slots copied into read-plane segments by publications.", ""},
	{"incregraph_query_reads_total", "counter", serving, func(s stats) any {
		v := s.Serve
		return []sample{{`verb="point"`, v.PointReads}, {`verb="batch"`, v.BatchReads},
			{`verb="topk"`, v.TopKReads}, {`verb="neighborhood"`, v.NbhdReads}}
	}, "Read-plane queries served, by verb.", ""},
	{"incregraph_query_read_vertices_total", "counter", serving, func(s stats) any { return s.Serve.ReadVertices },
		"Vertices returned across all read-plane queries.", ""},
	{"incregraph_query_point_seconds", "histogram", serving, func(s stats) any { return s.Latency.QueryPoint },
		"Read-plane point lookups: request to value (sampled).", ""},
	{"incregraph_query_batch_seconds", "histogram", serving, func(s stats) any { return s.Latency.QueryBatch },
		"Read-plane batch lookups: request to last value (sampled).", ""},
	{"incregraph_query_topk_seconds", "histogram", serving, func(s stats) any { return s.Latency.QueryTopK },
		"Read-plane top-k scans (sampled).", ""},
	{"incregraph_query_neighborhood_seconds", "histogram", serving, func(s stats) any { return s.Latency.QueryNbhd },
		"Read-plane k-hop neighborhood reads (sampled).", ""},

	// The engine's latency histograms.
	{"incregraph_ingest_to_quiesce_seconds", "histogram", nil, func(s stats) any { return s.Latency.IngestToQuiesce },
		"Sampled edge events: stream pull to cascade quiescence.", ""},
	{"incregraph_mailbox_residency_seconds", "histogram", nil, func(s stats) any { return s.Latency.MailboxResidency },
		"Inbound batches: producer push to consumer drain (sampled).", ""},
	{"incregraph_batch_drain_seconds", "histogram", nil, func(s stats) any { return s.Latency.BatchDrain },
		"Processing time of one drained mailbox batch (sampled).", ""},
	{"incregraph_flush_interval_seconds", "histogram", nil, func(s stats) any { return s.Latency.FlushInterval },
		"Interval between consecutive outbound flushes of a rank.", ""},
}

// writeHeader writes a family's HELP and TYPE lines.
func writeHeader(w io.Writer, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// writeSample renders one sample of family name. A histogram becomes its
// cumulative le buckets, the +Inf overflow, _sum and _count; a family
// named *_seconds has its power-of-two nanosecond bucket bounds and sum
// scaled to seconds, any other keeps raw bounds (bytes).
func writeSample(w io.Writer, name, labels string, v any) {
	braced := labels
	if labels != "" {
		braced = "{" + labels + "}"
	}
	switch v := v.(type) {
	case float64:
		fmt.Fprintf(w, "%s%s %s\n", name, braced, promFloat(v))
	case core.HistogramSnapshot:
		scale := 1.0
		if strings.HasSuffix(name, "_seconds") {
			scale = 1e9
		}
		le := labels
		if le != "" {
			le += ","
		}
		var cum uint64
		for i := 0; i < core.HistBuckets-1; i++ {
			cum += v.Buckets[i]
			bound := promFloat(float64(core.HistBucketBound(i)) / scale)
			fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, le, bound, cum)
		}
		cum += v.Buckets[core.HistBuckets-1]
		fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, le, cum)
		fmt.Fprintf(w, "%s_sum%s %s\n", name, braced, promFloat(float64(v.SumNanos)/scale))
		fmt.Fprintf(w, "%s_count%s %d\n", name, braced, cum)
	default:
		fmt.Fprintf(w, "%s%s %d\n", name, braced, v)
	}
}

// WritePrometheus renders an EngineStats snapshot in the Prometheus text
// exposition format: every families row whose gate the snapshot passes.
// The output passes LintProm by construction (a CI smoke job and a
// golden-file test keep that true).
func WritePrometheus(w io.Writer, s core.EngineStats) {
	for _, f := range families {
		if f.gate != nil && !f.gate(s) {
			continue
		}
		writeHeader(w, f.name, f.typ, f.help)
		for _, x := range f.samples(s) {
			writeSample(w, f.name, x.labels, x.v)
		}
	}
}

// WriteClusterPrometheus renders a federated cluster view: the families
// rows with a federated help text, renamed incregraph_cluster_*, with one
// sample set per process labelled by the process's node index. The input
// is a ClusterStats result — the coordinator's snapshot plus every peer
// snapshot that answered the stats poll; absent peers simply have no
// samples. Like WritePrometheus, the output passes LintProm by
// construction.
func WriteClusterPrometheus(w io.Writer, cluster []core.NodeEngineStats) {
	writeHeader(w, "incregraph_cluster_nodes", "gauge", "Processes that answered the federated stats poll.")
	fmt.Fprintf(w, "incregraph_cluster_nodes %d\n", len(cluster))
	writeHeader(w, "incregraph_cluster_node_info", "gauge",
		"Per-process identity (the 1-valued series carries state and transport kind).")
	for _, n := range cluster {
		fmt.Fprintf(w, "incregraph_cluster_node_info{node=\"%d\",state=%q,kind=%q} 1\n",
			n.Node, strings.ToLower(n.Stats.State.String()), n.Stats.Transport.Kind)
	}
	for _, f := range families {
		if f.fedHelp == "" {
			continue
		}
		name := f.fedName()
		writeHeader(w, name, f.typ, f.fedHelp)
		for _, n := range cluster {
			if f.gate != nil && !f.gate(n.Stats) {
				continue
			}
			for _, x := range f.samples(n.Stats) {
				labels := fmt.Sprintf(`node="%d"`, n.Node)
				if x.labels != "" {
					labels += "," + x.labels
				}
				writeSample(w, name, labels, x.v)
			}
		}
	}
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
				if !validName(fields[1], true) {
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
				if !validName(fields[1], true) {
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

// validName checks the metric-name grammar, or with colon false the
// label-name grammar (the same, minus ':').
func validName(s string, colon bool) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' || (colon && c == ':') ||
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
	if !validName(name, true) {
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
		if !validName(lname, false) {
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
