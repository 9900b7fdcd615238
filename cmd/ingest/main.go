// Command ingest replays an edge-event dataset through the dynamic engine
// at saturation — the paper's core measurement loop (§V-A) — optionally
// maintaining a live algorithm, and reports the achieved event rate.
//
// Usage:
//
//	ingest -in rmat18.bin -ranks 8 -algo bfs
//	ingest -rmat 18 -ranks 24 -algo st -sources 16
//	ingest -in txns.bin -algo cc -verify
//
// With -verify, the converged dynamic state is checked against the
// corresponding static algorithm on the final topology.
//
// Multi-process: N processes form one logical engine over TCP. Process 0
// coordinates; every process runs -ranks ranks of the ranks×N global rank
// space and must be given identical dataset flags (the RMAT generator is
// deterministic, so -rmat works without sharing files):
//
//	ingest -rmat 16 -ranks 4 -procs 2 -rank-id 0 -listen 127.0.0.1:7070 -algo bfs
//	ingest -rmat 16 -ranks 4 -procs 2 -rank-id 1 -join 127.0.0.1:7070   -algo bfs
//
// Each process converges on its own shard of the vertex space; -dump
// writes that shard's final state as "vertex value" lines, so the union of
// all dumps is the global answer (scripts/proc_smoke.sh diffs it against a
// single-process run).
//
// An interrupt (ctrl-C) shuts the run down gracefully: ingestion halts,
// in-flight cascades drain to a quiescent point, and the statistics for
// the ingested prefix are reported.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sync/atomic"
	"time"

	"incregraph"
	"incregraph/internal/gen"
	"incregraph/internal/graph"
	"incregraph/internal/harness"
	"incregraph/internal/metrics"
	"incregraph/internal/rmat"
	"incregraph/internal/stream"
)

func main() {
	var (
		in      = flag.String("in", "", "input dataset (text or .bin); exclusive with -rmat")
		scale   = flag.Int("rmat", 0, "generate an RMAT stream of this scale instead of reading a file")
		ef      = flag.Int("ef", 16, "rmat edge factor")
		ranks   = flag.Int("ranks", runtime.GOMAXPROCS(0), "shared-nothing rank count")
		algoN   = flag.String("algo", "con", "live algorithm: con | bfs | sssp | cc | st | degree")
		sources = flag.Int("sources", 1, "st: number of connectivity sources")
		src     = flag.Uint64("source", 0, "bfs/sssp source vertex (default: largest component)")
		verify  = flag.Bool("verify", false, "check converged state against the static baseline")
		dbgAddr = flag.String("debug.addr", "", "serve expvar (/debug/vars), pprof (/debug/pprof), Prometheus /metrics, /stats, and /lineage on this address (e.g. localhost:6060)")
		sample  = flag.Int("sample", 0, "trace 1-in-N ingested events to cascade quiescence for latency histograms and lineage (0 = engine default 1024; negative disables)")
		watch   = flag.Bool("watch", false, "render a live telemetry view (rates, lag, latency percentiles) while ingesting")
		procs   = flag.Int("procs", 1, "total process count of a multi-process run (1 = single process)")
		rankID  = flag.Int("rank-id", 0, "this process's index in [0,procs)")
		listen  = flag.String("listen", "", "cluster: address to accept peer connections on (process 0 and any process a higher one dials)")
		join    = flag.String("join", "", "cluster: process 0's listen address (required for rank-id > 0)")
		dump    = flag.String("dump", "", "after convergence, write this process's algorithm shard as 'vertex value' lines to FILE (- for stdout)")
		srvOn   = flag.Bool("serve", false, "enable the MVCC read plane and the batched JSON /query API on -debug.addr")
		srvEvry = flag.Duration("serve.every", 0, "read-plane epoch cadence (0 = engine default 50ms; implies -serve)")
		noHyb   = flag.Bool("no-hybrid", false, "disable the hybrid CSR-delta storage tier (A/B ablation)")
		churn   = flag.Float64("churn", 0, "interleave live edge deletions (and occasional re-adds) into an add-only input: the probability of one delete after each add (0 disables)")
		churnSd = flag.Int64("churn.seed", 1, "seed for the churn interleaving")
		tune    = flag.Bool("autotune", false, "enable the per-rank auto-tune controller (batch size + compaction threshold)")
		stall   = flag.Duration("stall", 0, "cluster: stall-watchdog deadline — no protocol progress for this long dumps the flight recorder to stderr (0 = engine default 30s; negative disables)")
		linger  = flag.Duration("linger", 0, "after the run (and -dump) completes, keep the process and its -debug.addr endpoints alive this long before exiting")
	)
	flag.Parse()
	cluster := *procs > 1
	// The linger window runs on every normal exit path (fatal uses os.Exit
	// and skips it): scripts/query_smoke.sh waits for the "linger:" line,
	// then diffs /query answers against the -dump file.
	if *linger > 0 {
		defer func() {
			fmt.Printf("linger: serving for %s before exit\n", *linger)
			time.Sleep(*linger)
		}()
	}

	// Catch interrupts from the start: one arriving while the dataset is
	// still loading is buffered and honored as soon as the engine exists.
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt)

	events, err := loadEvents(*in, *scale, *ef)
	if err != nil {
		fatal(err)
	}
	edges := make([]graph.Edge, 0, len(events))
	for _, ev := range events {
		if !ev.Delete {
			edges = append(edges, ev.Edge)
		}
	}
	if *churn > 0 {
		if hasDeletes(events) {
			fatal(fmt.Errorf("-churn needs an add-only input (this dataset already carries deletes)"))
		}
		events = gen.Churn(edges, *churn, *churnSd)
		// edges keeps the base adds: algorithm source selection must not
		// depend on which pairs the churn happened to kill.
	}

	prog, inits, err := buildAlgo(*algoN, edges, *sources, graph.VertexID(*src), flag.Lookup("source").Value.String() != "0")
	if err != nil {
		fatal(err)
	}

	var programs []incregraph.Program
	if prog != nil {
		programs = append(programs, prog)
	}
	cfg := incregraph.Config{
		Ranks:       *ranks,
		SampleEvery: *sample,
		Serve:       *srvOn || *srvEvry > 0,
		ServeEvery:  *srvEvry,
		NoHybrid:    *noHyb,
		AutoTune:    *tune,
	}
	if cluster {
		cfg.Cluster = &incregraph.ClusterConfig{
			Proc:         *rankID,
			Procs:        *procs,
			Listen:       *listen,
			Join:         *join,
			StallTimeout: *stall,
		}
	}
	g, err := incregraph.NewCluster(cfg, programs...)
	if err != nil {
		fatal(err)
	}
	if cluster {
		where := g.ClusterAddr()
		if where == "" {
			where = "not listening"
		}
		fmt.Printf("cluster: process %d of %d (%d ranks each, %d global), %s\n",
			*rankID, *procs, *ranks, g.Ranks(), where)
	}
	// Inits are issued once, by process 0; events whose owning rank lives
	// in a peer process cross the wire at Start.
	if *rankID == 0 {
		for _, v := range inits {
			g.InitVertex(0, v)
		}
	}
	if *dbgAddr != "" {
		if err := startDebugServer(*dbgAddr, g); err != nil {
			fatal(err)
		}
		routes := "/debug/vars, /debug/pprof, /debug/flightrec, /metrics, /stats, /lineage"
		if cluster {
			routes += ", /cluster/metrics, /cluster/stats"
		}
		if g.ServeEnabled() {
			routes += ", /query"
		}
		fmt.Printf("debug: serving %s on http://%s\n", routes, *dbgAddr)
	}

	// Graceful shutdown: a first interrupt stops the engine at a quiescent
	// point (Run then returns normally); a second one force-exits.
	var interrupted atomic.Bool
	go func() {
		<-sigCh
		interrupted.Store(true)
		fmt.Fprintln(os.Stderr, "ingest: interrupt — draining to a quiescent point (ctrl-C again to force)")
		go func() {
			<-sigCh
			os.Exit(130)
		}()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := g.Stop(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "ingest: shutdown timed out:", err)
			os.Exit(1)
		}
	}()

	var streams []incregraph.Stream
	if hasDeletes(events) {
		// Deletes must stay ordered after their pair's adds, but that only
		// needs per-pair order, not a global one: split by endpoint pair so
		// delete-carrying streams still shard across every rank.
		streams = incregraph.SplitEventsByPair(events, g.Ranks())
		fmt.Println("dataset contains deletes: pair-keyed stream split")
	} else {
		// The split is over the GLOBAL rank space; each process ingests
		// only the streams of its local ranks and skips the rest.
		streams = incregraph.SplitEdges(edges, g.Ranks())
	}

	var w *watcher
	if *watch {
		w = startWatcher(g, 500*time.Millisecond)
	}
	stats, err := g.Run(streams...)
	if w != nil {
		w.join()
	}
	if err != nil {
		if interrupted.Load() {
			// The interrupt landed before ingestion began (e.g. while the
			// dataset was still loading): nothing was processed.
			fmt.Println("interrupted before ingestion began")
			return
		}
		fatal(err)
	}
	fmt.Printf("ingested: %s\n", stats)
	fmt.Printf("rate: %s (topology events)\n", metrics.HumanRate(stats.EventsPerSec))
	es := g.Stats()
	fmt.Printf("engine: %s msgs in %s flushes (%.1f ev/flush), %s cascade emissions, mailbox hwm %s\n",
		metrics.HumanCount(es.MessagesSent), metrics.HumanCount(es.Flushes),
		es.BatchingFactor(), metrics.HumanCount(es.CascadeEmits),
		metrics.HumanCount(es.MailboxHWM))
	if lat := es.Latency; lat.SampleEvery > 0 && lat.IngestToQuiesce.Count > 0 {
		h := lat.IngestToQuiesce
		fmt.Printf("latency: ingest→quiesce p50=%s p99=%s p99.9=%s (n=%d, 1/%d sampled)\n",
			h.Quantile(0.50), h.Quantile(0.99), h.Quantile(0.999), h.Count, lat.SampleEvery)
	}
	if sv := es.Serve; sv.Enabled {
		fmt.Printf("serve: epoch %d (published %d), %s publishes (%s restamps), reads %s point / %s batch / %s topk / %s nbhd\n",
			sv.Epoch, sv.PublishedEpoch,
			metrics.HumanCount(sv.Publishes), metrics.HumanCount(sv.Restamps),
			metrics.HumanCount(sv.PointReads), metrics.HumanCount(sv.BatchReads),
			metrics.HumanCount(sv.TopKReads), metrics.HumanCount(sv.NbhdReads))
	}
	if err := g.Err(); err != nil {
		fatal(err)
	}
	if ts := es.Transport; ts.Kind != "inproc" {
		for _, p := range ts.Peers {
			fmt.Printf("transport: %s peer %d: sent %s recv %s acked %s events (%s/%s frames, %s/%s bytes, %d reconnects)\n",
				ts.Kind, p.Node, metrics.HumanCount(p.SentEvents), metrics.HumanCount(p.RecvEvents),
				metrics.HumanCount(p.AckedEvents), metrics.HumanCount(p.SentFrames),
				metrics.HumanCount(p.RecvFrames),
				metrics.HumanCount(p.SentBytes), metrics.HumanCount(p.RecvBytes), p.Reconnects)
			if p.AckRTT.Count > 0 {
				fmt.Printf("transport:   peer %d ack rtt p50=%s p99=%s, frame size p50=%sB (n=%d)\n",
					p.Node, p.AckRTT.Quantile(0.50), p.AckRTT.Quantile(0.99),
					metrics.HumanCount(uint64(p.FrameBytes.Quantile(0.50))), p.FrameBytes.Count)
			}
		}
	}
	if *dump != "" {
		if err := dumpShard(g, *dump, prog != nil); err != nil {
			fatal(err)
		}
	}
	if interrupted.Load() {
		// The stopped state is a consistent prefix of the stream, but not
		// the full dataset: skip the whole-input verification.
		fmt.Println("stopped early by interrupt: state is the ingested prefix; skipping -verify")
		return
	}

	if *verify && prog != nil {
		if cluster {
			// Topology and Collect are shard-local in a cluster; the static
			// oracle needs the global graph. proc_smoke.sh does the global
			// check by merging every process's -dump.
			fmt.Println("verify: skipped in cluster mode (shard-local topology); merge -dump outputs instead")
			return
		}
		if err := verifyResult(g, *algoN, inits); err != nil {
			fatal(err)
		}
		fmt.Println("verify: dynamic state matches the static baseline")
	}
}

// dumpShard writes this process's final algorithm state (its local shard
// of program 0) as sorted "vertex value" lines.
func dumpShard(g *incregraph.Graph, path string, hasProg bool) error {
	if !hasProg {
		return fmt.Errorf("-dump needs a live algorithm (-algo)")
	}
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	w := bufio.NewWriter(out)
	for _, p := range g.Collect(0) {
		fmt.Fprintf(w, "%d %d\n", p.ID, p.Val)
	}
	return w.Flush()
}

func loadEvents(in string, scale, ef int) ([]graph.EdgeEvent, error) {
	switch {
	case in != "" && scale != 0:
		return nil, fmt.Errorf("-in and -rmat are exclusive")
	case in != "":
		return stream.LoadFile(in)
	case scale != 0:
		cfg := rmat.Config{Scale: scale, EdgeFactor: ef, Seed: 1}
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		edges := gen.Shuffle(rmat.GenerateParallel(cfg, 0), 1)
		evs := make([]graph.EdgeEvent, len(edges))
		for i, e := range edges {
			evs[i] = graph.EdgeEvent{Edge: e}
		}
		return evs, nil
	default:
		return nil, fmt.Errorf("provide -in FILE or -rmat SCALE")
	}
}

func buildAlgo(name string, edges []graph.Edge, sources int, src graph.VertexID, srcSet bool) (incregraph.Program, []graph.VertexID, error) {
	pickSrc := func() graph.VertexID {
		if srcSet {
			return src
		}
		return harness.LargestComponentVertex(edges)
	}
	switch name {
	case "con":
		return nil, nil, nil
	case "bfs":
		s := pickSrc()
		return incregraph.BFS(), []graph.VertexID{s}, nil
	case "sssp":
		s := pickSrc()
		return incregraph.SSSP(), []graph.VertexID{s}, nil
	case "cc":
		return incregraph.CC(), nil, nil
	case "st":
		if sources < 1 || sources > 64 {
			return nil, nil, fmt.Errorf("st: sources must be in [1,64]")
		}
		srcs := make([]graph.VertexID, sources)
		n := uint64(len(edges))
		for i := range srcs {
			srcs[i] = edges[(uint64(i)*2654435761)%n].Src
		}
		return incregraph.MultiST(srcs), srcs, nil
	case "degree":
		return incregraph.DegreeTracker(), nil, nil
	default:
		return nil, nil, fmt.Errorf("unknown algorithm %q", name)
	}
}

func verifyResult(g *incregraph.Graph, algoN string, inits []graph.VertexID) error {
	topo := g.Topology()
	var want []uint64
	switch algoN {
	case "bfs":
		want = incregraph.StaticBFS(topo, inits[0])
	case "sssp":
		want = incregraph.StaticSSSP(topo, inits[0])
	case "cc":
		want = incregraph.StaticCC(topo)
	case "st":
		want = incregraph.StaticMultiST(topo, inits)
	case "degree":
		return nil // nothing static to compare cheaply
	}
	for _, p := range g.Collect(0) {
		if p.Val != want[p.ID] {
			return fmt.Errorf("vertex %d: dynamic %d, static %d", p.ID, p.Val, want[p.ID])
		}
	}
	return nil
}

func hasDeletes(events []graph.EdgeEvent) bool {
	for _, ev := range events {
		if ev.Delete {
			return true
		}
	}
	return false
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ingest:", err)
	os.Exit(1)
}
