package main

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"incregraph"
	"incregraph/internal/metrics"
)

// The expvar registry is process-global and Publish panics on duplicates,
// so the "engine" var is registered once and reads whichever graph the most
// recent newDebugMux call installed (tests build several muxes).
var (
	dbgGraph    atomic.Pointer[incregraph.Graph]
	publishOnce sync.Once
)

// newDebugMux builds the engine's observability surface:
//
//	/debug/vars       expvar JSON, including the live EngineStats under "engine"
//	/debug/pprof      the standard Go profiling endpoints
//	/debug/flightrec  the protocol flight recorder + any stall-watchdog dump
//	/stats            human-readable counters; ?format=json for the raw struct
//	/metrics          Prometheus text exposition (counters, gauges, histograms)
//	/cluster/stats    every process's EngineStats as JSON (Graph.ClusterStats)
//	/cluster/metrics  node-labeled Prometheus exposition of the whole job
//	/lineage          the most recent sampled cascades as causal trees
//
// The /cluster views poll live peers while the mesh is up; after the run
// they answer from the parting snapshots every process sent at
// termination, so a -linger inspection still sees every node.
func newDebugMux(g *incregraph.Graph) *http.ServeMux {
	dbgGraph.Store(g)
	publishOnce.Do(func() {
		expvar.Publish("engine", expvar.Func(func() any {
			if cur := dbgGraph.Load(); cur != nil {
				return cur.Stats()
			}
			return nil
		}))
	})
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		s := g.Stats()
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(s) //nolint:errcheck // best-effort response write
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		writeStatsSummary(w, s)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		metrics.WritePrometheus(w, g.Stats())
	})
	mux.HandleFunc("/cluster/stats", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(g.ClusterStats(2 * time.Second)) //nolint:errcheck // best-effort response write
	})
	mux.HandleFunc("/cluster/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		metrics.WriteClusterPrometheus(w, g.ClusterStats(2*time.Second))
	})
	mux.HandleFunc("/debug/flightrec", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fs := g.Stats().Flight
		fmt.Fprintf(w, "flight recorder: %d recorded, ring keeps %d, watchdog fires %d\n",
			fs.Recorded, fs.Capacity, fs.WatchdogFires)
		if dump := g.StallDump(); dump != "" {
			fmt.Fprintf(w, "\n--- last stall dump ---\n%s\n--- entries (oldest first) ---\n", dump)
		} else {
			fmt.Fprintf(w, "\nentries (oldest first):\n")
		}
		for _, e := range g.FlightRecord() {
			ts := time.Unix(0, e.UnixNanos).UTC().Format("15:04:05.000000")
			peer := "-"
			if e.Peer >= 0 {
				peer = fmt.Sprintf("%d", e.Peer)
			}
			fmt.Fprintf(w, "%s  %-10s peer=%-3s %-12s a=%d b=%d\n", ts, e.Kind, peer, e.Detail, e.A, e.B)
		}
	})
	mux.HandleFunc("/query", handleQuery(g))
	mux.HandleFunc("/lineage", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		ls := g.Lineage()
		if len(ls) == 0 {
			fmt.Fprintln(w, "no completed lineages (sampling disabled, or no sampled cascade has quiesced yet)")
			return
		}
		for _, l := range ls {
			fmt.Fprintln(w, l.Tree())
		}
	})
	return mux
}

// startDebugServer serves newDebugMux on addr. The listener is bound before
// returning so a bad address fails fast; the serve loop runs for the life
// of the process (the socket dies with it).
func startDebugServer(addr string, g *incregraph.Graph) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("debug listener: %w", err)
	}
	go http.Serve(ln, newDebugMux(g)) //nolint:errcheck // dies with the process
	return nil
}

// writeStatsSummary renders an EngineStats snapshot for humans, with the
// metrics package's human-readable count and rate formatting. It is both
// the /stats page and the end-of-run report.
func writeStatsSummary(w io.Writer, s incregraph.EngineStats) {
	fmt.Fprintf(w, "state:     %s\n", s.State)
	fmt.Fprintf(w, "uptime:    %s\n", s.Uptime.Round(time.Millisecond))
	fmt.Fprintf(w, "ingested:  %s topology events (%s)\n",
		metrics.HumanCount(s.Ingested), metrics.HumanRate(s.EventRate()))
	fmt.Fprintf(w, "processed: %s events (topo %s, algo %s)\n",
		metrics.HumanCount(s.Events.Total()),
		metrics.HumanCount(s.Events.Topo()), metrics.HumanCount(s.Events.Algo()))
	fmt.Fprintf(w, "traffic:   %s msgs in %s flushes (batching %.1f ev/flush)\n",
		metrics.HumanCount(s.MessagesSent), metrics.HumanCount(s.Flushes),
		s.BatchingFactor())
	fmt.Fprintf(w, "fastpath:  %s self-delivered, %s updates combined away\n",
		metrics.HumanCount(s.SelfDelivered), metrics.HumanCount(s.CombinedAway))
	fmt.Fprintf(w, "cascades:  %s emissions, mailbox high-water %s, %s deletes re-witnessed\n",
		metrics.HumanCount(s.CascadeEmits), metrics.HumanCount(s.MailboxHWM),
		metrics.HumanCount(s.Rewitnessed))
	fmt.Fprintf(w, "lag:       %d in flight, mailbox depth %d\n",
		s.InFlight, s.MailboxDepth)
	if lat := s.Latency; lat.SampleEvery > 0 {
		h := lat.IngestToQuiesce
		fmt.Fprintf(w, "latency:   ingest→quiesce p50=%s p99=%s p99.9=%s mean=%s (n=%d, 1/%d sampled, %d dropped)\n",
			h.Quantile(0.50), h.Quantile(0.99), h.Quantile(0.999), h.Mean(),
			h.Count, lat.SampleEvery, lat.Dropped)
		fmt.Fprintf(w, "           mailbox p99=%s, drain p99=%s, flush-gap p50=%s\n",
			lat.MailboxResidency.Quantile(0.99), lat.BatchDrain.Quantile(0.99),
			lat.FlushInterval.Quantile(0.50))
	}
	fmt.Fprintf(w, "service:   %s queries, %d snapshots, parked %s\n",
		metrics.HumanCount(s.QueriesServed), s.SnapshotsTaken,
		s.ParkedTime.Round(time.Millisecond))
	fmt.Fprintf(w, "storage:   %s clones of shared edge arrays\n", metrics.HumanCount(s.Storage.SegClones))
	if s.AutoTune {
		fmt.Fprintf(w, "autotune:  on, %s adjustments\n", metrics.HumanCount(s.TuneAdjusts))
	}
	if sv := s.Serve; sv.Enabled {
		fmt.Fprintf(w, "serve:     epoch %d (published %d), %s publishes (%s restamps, %s slots copied)\n",
			sv.Epoch, sv.PublishedEpoch,
			metrics.HumanCount(sv.Publishes), metrics.HumanCount(sv.Restamps), metrics.HumanCount(sv.CopiedSlots))
		fmt.Fprintf(w, "reads:     %s point, %s batch, %s topk, %s nbhd (%s vertices); point p99=%s batch p99=%s\n",
			metrics.HumanCount(sv.PointReads), metrics.HumanCount(sv.BatchReads),
			metrics.HumanCount(sv.TopKReads), metrics.HumanCount(sv.NbhdReads),
			metrics.HumanCount(sv.ReadVertices),
			s.Latency.QueryPoint.Quantile(0.99), s.Latency.QueryBatch.Quantile(0.99))
	}
	if ts := s.Transport; ts.Kind != "inproc" {
		for _, p := range ts.Peers {
			fmt.Fprintf(w, "transport: %s peer %d: sent %s recv %s acked %s events (%s/%s frames, %s/%s bytes, %d reconnects)\n",
				ts.Kind, p.Node, metrics.HumanCount(p.SentEvents), metrics.HumanCount(p.RecvEvents),
				metrics.HumanCount(p.AckedEvents), metrics.HumanCount(p.SentFrames),
				metrics.HumanCount(p.RecvFrames),
				metrics.HumanCount(p.SentBytes), metrics.HumanCount(p.RecvBytes), p.Reconnects)
			if p.AckRTT.Count > 0 {
				fmt.Fprintf(w, "transport:   peer %d ack rtt p50=%s p99=%s, frame size p50=%sB (n=%d)\n",
					p.Node, p.AckRTT.Quantile(0.50), p.AckRTT.Quantile(0.99),
					metrics.HumanCount(uint64(p.FrameBytes.Quantile(0.50))), p.FrameBytes.Count)
			}
		}
	}
	fmt.Fprintf(w, "\n%-5s %10s %10s %10s %10s %10s %10s %8s %8s %9s\n",
		"rank", "topo", "algo", "sent", "self", "combined", "drains", "hwm", "depth", "parked")
	for _, r := range s.PerRank {
		var sent uint64
		for _, n := range r.SentTo {
			sent += n
		}
		fmt.Fprintf(w, "%-5d %10s %10s %10s %10s %10s %10s %8s %8d %9s\n",
			r.Rank,
			metrics.HumanCount(r.Events.Topo()),
			metrics.HumanCount(r.Events.Algo()),
			metrics.HumanCount(sent),
			metrics.HumanCount(r.SelfDelivered),
			metrics.HumanCount(r.CombinedAway),
			metrics.HumanCount(r.BatchesDrained),
			metrics.HumanCount(r.MailboxHWM),
			r.MailboxDepth,
			r.ParkedTime.Round(time.Millisecond))
	}
}

// writeTopologySummary prints the final graph size. In a cluster the view
// holds only this process's shards.
func writeTopologySummary(w io.Writer, topo incregraph.Topology, local bool) {
	scope := "whole graph"
	if local {
		scope = "local shards"
	}
	fmt.Fprintf(w, "topology:  %s vertices", metrics.HumanCount(uint64(topo.NumVertices())))
	if c, ok := topo.(interface{ NumEdges() uint64 }); ok {
		fmt.Fprintf(w, ", %s adjacency entries", metrics.HumanCount(c.NumEdges()))
	}
	fmt.Fprintf(w, " (%s)\n", scope)
}
