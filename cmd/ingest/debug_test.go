package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"incregraph"
	"incregraph/internal/gen"
	"incregraph/internal/metrics"
)

// runTelemetryGraph ingests a small path graph with 1-in-1 latency sampling
// so every endpoint has real data to serve.
func runTelemetryGraph(t *testing.T) *incregraph.Graph {
	t.Helper()
	g := incregraph.New(incregraph.Config{Ranks: 2, SampleEvery: 1, LineageKeep: 8}, incregraph.CC())
	if _, err := g.Run(incregraph.StreamEdges(gen.Path(64))); err != nil {
		t.Fatal(err)
	}
	return g
}

func get(t *testing.T, mux *http.ServeMux, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, rec.Code)
	}
	return rec
}

func TestDebugVarsEndpoint(t *testing.T) {
	mux := newDebugMux(runTelemetryGraph(t))
	rec := get(t, mux, "/debug/vars")
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &vars); err != nil {
		t.Fatalf("/debug/vars is not valid JSON: %v", err)
	}
	engRaw, ok := vars["engine"]
	if !ok {
		t.Fatalf("/debug/vars missing \"engine\" var; keys: %v", keysOf(vars))
	}
	var es incregraph.EngineStats
	if err := json.Unmarshal(engRaw, &es); err != nil {
		t.Fatalf("engine var does not decode as EngineStats: %v", err)
	}
	if es.Ingested == 0 {
		t.Fatal("engine var reports zero ingested events")
	}
}

func TestStatsEndpointText(t *testing.T) {
	mux := newDebugMux(runTelemetryGraph(t))
	rec := get(t, mux, "/stats")
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; charset=utf-8" {
		t.Fatalf("/stats Content-Type = %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{"state:", "ingested:", "latency:", "lag:", "rank"} {
		if !strings.Contains(body, want) {
			t.Errorf("/stats output missing %q:\n%s", want, body)
		}
	}
}

func TestStatsEndpointJSON(t *testing.T) {
	mux := newDebugMux(runTelemetryGraph(t))
	rec := get(t, mux, "/stats?format=json")
	if ct := rec.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Fatalf("/stats?format=json Content-Type = %q", ct)
	}
	var es incregraph.EngineStats
	if err := json.Unmarshal(rec.Body.Bytes(), &es); err != nil {
		t.Fatalf("/stats?format=json does not decode as EngineStats: %v", err)
	}
	if es.Ingested == 0 || es.Events.Total() == 0 {
		t.Fatalf("decoded stats empty: ingested=%d events=%d", es.Ingested, es.Events.Total())
	}
	if es.Latency.IngestToQuiesce.Count == 0 {
		t.Fatal("1-in-1 sampling produced an empty ingest-to-quiescence histogram")
	}
}

// TestStatsJSONRoundTripsTelemetry pins the observability contract the
// federation rides on: the transport/flight blocks added for the cluster
// plane must survive a full marshal/unmarshal cycle through /stats, since
// the stats-frame verb ships exactly this JSON between processes.
func TestStatsJSONRoundTripsTelemetry(t *testing.T) {
	g := runTelemetryGraph(t)
	mux := newDebugMux(g)
	rec := get(t, mux, "/stats?format=json")
	var es incregraph.EngineStats
	if err := json.Unmarshal(rec.Body.Bytes(), &es); err != nil {
		t.Fatalf("/stats?format=json does not decode: %v", err)
	}
	want := g.Stats()
	if es.Transport.Kind != want.Transport.Kind || es.Transport.Nodes != want.Transport.Nodes {
		t.Fatalf("transport block did not round-trip: got %+v want %+v", es.Transport, want.Transport)
	}
	if es.Flight.Capacity != want.Flight.Capacity || es.Flight.Capacity == 0 {
		t.Fatalf("flight capacity did not round-trip: got %d want %d", es.Flight.Capacity, want.Flight.Capacity)
	}
	if es.Flight.Recorded == 0 {
		t.Fatal("flight recorder saw no lifecycle transitions")
	}
	if es.State != incregraph.StateStopped {
		t.Fatalf("state did not round-trip: %v", es.State)
	}
}

// TestClusterEndpoints exercises the federated surface on a single-process
// graph: the poll degenerates to the local snapshot as node 0, the JSON is
// a decodable NodeEngineStats slice, and the node-labeled exposition
// passes the same lint as /metrics.
func TestClusterEndpoints(t *testing.T) {
	mux := newDebugMux(runTelemetryGraph(t))

	rec := get(t, mux, "/cluster/stats")
	var cs []incregraph.NodeEngineStats
	if err := json.Unmarshal(rec.Body.Bytes(), &cs); err != nil {
		t.Fatalf("/cluster/stats does not decode: %v", err)
	}
	if len(cs) != 1 || cs[0].Node != 0 {
		t.Fatalf("single-process /cluster/stats = %d nodes (first %v), want just node 0", len(cs), cs)
	}
	if cs[0].Stats.Ingested == 0 {
		t.Fatal("/cluster/stats node 0 reports zero ingested events")
	}

	rec = get(t, mux, "/cluster/metrics")
	if err := metrics.LintProm(rec.Body.Bytes()); err != nil {
		t.Fatalf("/cluster/metrics fails exposition-format lint: %v\n%s", err, rec.Body.Bytes())
	}
	for _, want := range []string{
		"incregraph_cluster_nodes 1",
		`incregraph_cluster_ingested_events_total{node="0"}`,
		`incregraph_cluster_flightrec_recorded_total{node="0"}`,
	} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("/cluster/metrics missing %q", want)
		}
	}
}

func TestFlightRecEndpoint(t *testing.T) {
	mux := newDebugMux(runTelemetryGraph(t))
	rec := get(t, mux, "/debug/flightrec")
	body := rec.Body.String()
	if !strings.Contains(body, "flight recorder:") {
		t.Fatalf("/debug/flightrec missing header:\n%s", body)
	}
	// The run's lifecycle transitions are always recorded, transport aside.
	for _, want := range []string{"state", "Running", "Stopped"} {
		if !strings.Contains(body, want) {
			t.Errorf("/debug/flightrec missing %q:\n%s", want, body)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	mux := newDebugMux(runTelemetryGraph(t))
	rec := get(t, mux, "/metrics")
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	body := rec.Body.Bytes()
	if err := metrics.LintProm(body); err != nil {
		t.Fatalf("/metrics fails exposition-format lint: %v\n%s", err, body)
	}
	for _, want := range []string{
		"incregraph_ingested_events_total",
		"incregraph_ingest_to_quiesce_seconds_bucket",
		"incregraph_inflight_events",
		`incregraph_rank_mailbox_high_water_events{rank="0"}`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestLineageEndpoint(t *testing.T) {
	g := runTelemetryGraph(t)
	mux := newDebugMux(g)
	rec := get(t, mux, "/lineage")
	if len(g.Lineage()) == 0 {
		t.Fatal("1-in-1 sampling kept no completed lineages")
	}
	if !strings.Contains(rec.Body.String(), "ADD") {
		t.Fatalf("/lineage shows no ADD root:\n%s", rec.Body.String())
	}
}

func keysOf(m map[string]json.RawMessage) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestStatsSummaryTransportLines: the one renderer behind /stats and the
// end-of-run report prints a "transport:" line per peer of a multi-process
// run (scripts/proc_smoke.sh greps them from the report) and none for an
// in-process one.
func TestStatsSummaryTransportLines(t *testing.T) {
	s := incregraph.EngineStats{
		State: incregraph.StateStopped,
		Transport: incregraph.TransportStats{Kind: "tcp", Node: 0, Nodes: 3,
			Peers: []incregraph.PeerTransportStats{{Node: 1, SentEvents: 40, AckedEvents: 40}, {Node: 2}}},
	}
	var b strings.Builder
	writeStatsSummary(&b, s)
	for _, want := range []string{"transport: tcp peer 1: sent 40 ", "transport: tcp peer 2: "} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, b.String())
		}
	}
	s.Transport = incregraph.TransportStats{Kind: "inproc", Nodes: 1}
	b.Reset()
	writeStatsSummary(&b, s)
	if strings.Contains(b.String(), "transport:") {
		t.Errorf("in-process summary has transport lines:\n%s", b.String())
	}
}

// TestTopologySummary: the end-of-run report carries the final vertex and
// adjacency-entry counts (a 64-vertex undirected path: 2×63 entries).
func TestTopologySummary(t *testing.T) {
	g := runTelemetryGraph(t)
	var b strings.Builder
	writeTopologySummary(&b, g.Topology(), false)
	if want := "topology:  64 vertices, 126 adjacency entries (whole graph)\n"; b.String() != want {
		t.Errorf("topology line %q, want %q", b.String(), want)
	}
}
