package metrics

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"incregraph/internal/core"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixedStats hand-builds a fully deterministic EngineStats snapshot — no
// clocks, no engine — so the golden exposition is byte-stable.
func fixedStats() core.EngineStats {
	hist := func(buckets map[int]uint64, sumNanos uint64) core.HistogramSnapshot {
		var h core.HistogramSnapshot
		for i, n := range buckets {
			h.Buckets[i] = n
			h.Count += n
		}
		h.SumNanos = sumNanos
		return h
	}
	s := core.EngineStats{
		State:    core.StateRunning,
		Uptime:   1500 * time.Millisecond,
		Ranks:    2,
		Ingested: 1000,
		Events: core.EventCounts{
			Adds: 1000, ReverseAdds: 1000, Updates: 420, Inits: 1, Signals: 2,
		},
		MessagesSent:   300,
		Flushes:        60,
		CascadeEmits:   1422,
		SelfDelivered:  1100,
		CombinedAway:   77,
		BatchesDrained: 58,
		MailboxHWM:     12,
		MailboxDepth:   3,
		InFlight:       5,
		QueriesServed:  9,
		SnapshotsTaken: 1,
		Latency: core.LatencyStats{
			SampleEvery: 1024,
			Sampled:     4,
			Dropped:     1,
			Active:      2,
			// 4 samples: ~1µs, ~2µs, ~16µs, and one beyond the top bucket.
			IngestToQuiesce:  hist(map[int]uint64{10: 1, 11: 1, 14: 1, core.HistBuckets - 1: 1}, 20000),
			MailboxResidency: hist(map[int]uint64{9: 2, 12: 1}, 6000),
			BatchDrain:       hist(map[int]uint64{13: 3}, 18000),
			FlushInterval:    hist(nil, 0), // a family with zero observations still renders
			QueryPoint:       hist(map[int]uint64{8: 3, 10: 1}, 5000),
			QueryBatch:       hist(map[int]uint64{12: 2}, 9000),
			QueryTopK:        hist(map[int]uint64{13: 1}, 7000),
			QueryNbhd:        hist(nil, 0),
		},
		Serve: core.ServeStats{
			Enabled: true, Epoch: 12, PublishedEpoch: 11, Publishes: 20, Restamps: 4, CopiedSlots: 3100,
			PointReads: 500, BatchReads: 30, TopKReads: 7, NbhdReads: 3, ReadVertices: 1200,
		},
		Storage: core.StorageStats{
			Hybrid: true, Compactions: 15, SegmentEdges: 900,
			SegClones: 6, SegScanned: 4000, DeltaScanned: 1000,
		},
		AutoTune:    true,
		TuneAdjusts: 3,
	}
	s.PerRank = []core.RankEngineStats{
		{Rank: 0, MailboxHWM: 12, MailboxDepth: 3, EffBatch: 128},
		{Rank: 1, MailboxHWM: 7, MailboxDepth: 0, EffBatch: 256},
	}
	s.Transport = core.TransportStats{
		Kind: "tcp", Node: 0, Nodes: 2,
		Peers: []core.PeerTransportStats{{
			Node: 1, SentEvents: 250, RecvEvents: 240, AckedEvents: 250,
			SentFrames: 12, RecvFrames: 11, Reconnects: 1, Backoffs: 2,
			SentBytes: 11500, RecvBytes: 11000,
			// Frame sizes ~512B and ~4KiB; ack RTTs ~131µs and ~1ms.
			FrameBytes: hist(map[int]uint64{9: 8, 12: 4}, 20480),
			AckRTT:     hist(map[int]uint64{17: 9, 20: 3}, 4300000),
		}},
	}
	s.Flight = core.FlightStats{
		Recorded: 77, Capacity: 256, WatchdogFires: 1, LastStallUnixNanos: 1700000000000000000,
	}
	return s
}

// fixedClusterStats is the deterministic two-process federation fixture:
// the coordinator's fixedStats plus a follower whose counters differ
// enough that every node-labeled family shows both series.
func fixedClusterStats() []core.NodeEngineStats {
	n0 := fixedStats()
	n1 := fixedStats()
	n1.Uptime = 1400 * time.Millisecond
	n1.Ingested = 0 // followers pull no streams
	n1.Events = core.EventCounts{Adds: 400, ReverseAdds: 400, Updates: 180, Signals: 1}
	n1.MessagesSent = 260
	n1.QueriesServed = 0
	n1.InFlight = 2
	n1.MailboxDepth = 1
	n1.Latency.Sampled = 0
	n1.Transport.Node = 1
	n1.Transport.Peers = []core.PeerTransportStats{{
		Node: 0, SentEvents: 240, RecvEvents: 250, AckedEvents: 240,
		SentFrames: 11, RecvFrames: 12, Reconnects: 0, Backoffs: 1,
		SentBytes: 11000, RecvBytes: 11500,
	}}
	n1.Flight = core.FlightStats{Recorded: 70, Capacity: 256}
	return []core.NodeEngineStats{{Node: 0, Stats: n0}, {Node: 1, Stats: n1}}
}

// TestWritePrometheusGolden pins the full exposition byte-for-byte; the
// golden file is also what a human reads to see the metric contract.
func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	WritePrometheus(&buf, fixedStats())

	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition drifted from golden file (re-run with -update if intended)\ngot:\n%s\nwant:\n%s",
			buf.Bytes(), want)
	}
}

// TestWriteClusterPrometheusGolden pins the federated exposition the same
// way — the cluster golden is the contract /cluster/metrics serves.
func TestWriteClusterPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	WriteClusterPrometheus(&buf, fixedClusterStats())

	golden := filepath.Join("testdata", "cluster_metrics.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("cluster exposition drifted from golden file (re-run with -update if intended)\ngot:\n%s\nwant:\n%s",
			buf.Bytes(), want)
	}
}

// TestPromFamiliesCovered checks that every families row reaches a golden
// file: its TYPE line in metrics.golden and, for a federated row, its
// cluster twin's in cluster_metrics.golden. A row whose gate the fixture
// leaves off would otherwise land untested.
func TestPromFamiliesCovered(t *testing.T) {
	read := func(name string) string {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	local, cluster := read("metrics.golden"), read("cluster_metrics.golden")
	for _, f := range families {
		if line := "# TYPE " + f.name + " " + f.typ + "\n"; !strings.Contains(local, line) {
			t.Errorf("metrics.golden lacks %q", line)
		}
		if f.fedHelp == "" {
			continue
		}
		if line := "# TYPE " + f.fedName() + " " + f.typ + "\n"; !strings.Contains(cluster, line) {
			t.Errorf("cluster_metrics.golden lacks %q", line)
		}
	}
}

// TestWriteClusterPrometheusLints keeps the federated writer honest against
// the same lint the per-process exposition passes, including the degenerate
// inputs /cluster/metrics can serve: an empty poll result and a
// single-process cluster.
func TestWriteClusterPrometheusLints(t *testing.T) {
	for _, cs := range [][]core.NodeEngineStats{
		fixedClusterStats(),
		{{Node: 0, Stats: fixedStats()}},
		nil,
	} {
		var buf bytes.Buffer
		WriteClusterPrometheus(&buf, cs)
		if err := LintProm(buf.Bytes()); err != nil {
			t.Fatalf("cluster writer output fails lint for %d nodes: %v", len(cs), err)
		}
	}
}

// TestWritePrometheusLints feeds the writer's own output through the lint —
// the same check the CI metrics smoke job performs against a live /metrics.
func TestWritePrometheusLints(t *testing.T) {
	var buf bytes.Buffer
	WritePrometheus(&buf, fixedStats())
	if err := LintProm(buf.Bytes()); err != nil {
		t.Fatalf("writer output fails lint: %v", err)
	}
	// A zeroed snapshot (engine never started) must also be well-formed.
	buf.Reset()
	WritePrometheus(&buf, core.EngineStats{})
	if err := LintProm(buf.Bytes()); err != nil {
		t.Fatalf("zero-stats output fails lint: %v", err)
	}
}

func TestLintPromRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string
	}{
		{
			"bad metric name",
			"2foo 1\n",
			"bad metric name",
		},
		{
			"bad label name",
			"foo{2x=\"y\"} 1\n",
			"bad label name",
		},
		{
			"unparseable value",
			"foo abc\n",
			"bad value",
		},
		{
			"duplicate TYPE",
			"# TYPE foo counter\n# TYPE foo gauge\nfoo 1\n",
			"duplicate TYPE",
		},
		{
			"unknown type",
			"# TYPE foo tally\nfoo 1\n",
			"unknown metric type",
		},
		{
			"negative counter",
			"# TYPE foo counter\nfoo -1\n",
			"negative value",
		},
		{
			"TYPE after samples",
			"foo 1\n# TYPE foo counter\n",
			"after its samples",
		},
		{
			"histogram without buckets",
			"# TYPE foo histogram\nfoo_sum 1\nfoo_count 1\n",
			"no buckets",
		},
		{
			"histogram missing +Inf",
			"# TYPE foo histogram\nfoo_bucket{le=\"1\"} 1\nfoo_sum 1\nfoo_count 1\n",
			"no +Inf bucket",
		},
		{
			"non-cumulative buckets",
			"# TYPE foo histogram\nfoo_bucket{le=\"1\"} 5\nfoo_bucket{le=\"2\"} 3\nfoo_bucket{le=\"+Inf\"} 5\nfoo_sum 1\nfoo_count 5\n",
			"not cumulative",
		},
		{
			"count disagrees with +Inf",
			"# TYPE foo histogram\nfoo_bucket{le=\"1\"} 1\nfoo_bucket{le=\"+Inf\"} 2\nfoo_sum 1\nfoo_count 3\n",
			"_count",
		},
		{
			"bucket without le",
			"# TYPE foo histogram\nfoo_bucket{x=\"1\"} 1\n",
			"without le label",
		},
		{
			"unterminated labels",
			"foo{le=\"1\" 1\n",
			"",
		},
		{
			"duplicate label",
			"foo{a=\"1\",a=\"2\"} 1\n",
			"duplicate label",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := LintProm([]byte(tc.in))
			if err == nil {
				t.Fatalf("LintProm accepted malformed input:\n%s", tc.in)
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestLintPromAcceptsValidCorners(t *testing.T) {
	valid := []string{
		"",                               // empty exposition
		"foo 1 1712345678901\n",          // trailing timestamp
		"# just a comment\nfoo 1\n",      // free-form comment
		"foo{a=\"x\\\\y\\\"z\\n\"} 1\n",  // escaped label value
		"foo{} 1\n",                      // empty label set
		"# TYPE foo gauge\nfoo +Inf\n",   // infinity value
		"# TYPE foo untyped\nfoo -3.5\n", // untyped negative
	}
	for _, in := range valid {
		if err := LintProm([]byte(in)); err != nil {
			t.Errorf("LintProm rejected valid exposition %q: %v", in, err)
		}
	}
}

func TestPromFloat(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		1.5:     "1.5",
		1e-9:    "1e-09",
		2047e-9: "2.047e-06",
	}
	for in, want := range cases {
		if got := promFloat(in); got != want {
			t.Errorf("promFloat(%v) = %q, want %q", in, got, want)
		}
	}
}
