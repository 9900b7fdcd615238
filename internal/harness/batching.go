package harness

import (
	"fmt"
	"incregraph/internal/algo"
	"incregraph/internal/baseline"
	"incregraph/internal/core"
	"incregraph/internal/graph"
	"incregraph/internal/metrics"
	"incregraph/internal/static"
	"incregraph/internal/stream"
)

// Batching quantifies §VI-A's comparison against snapshot/batching
// solutions: the same stream and BFS observable, served either by the
// batching baseline (rebuild + recompute at every boundary) or by the
// continuous incremental engine. Batching amortizes better as batches
// grow — but its queryable state is stale by up to a whole batch, which is
// precisely the latency the paper's continuous design eliminates ("the
// latency for snapshot systems offering a response is the entire time
// between snapshots").
func Batching(cfg Config) *Table {
	cfg = cfg.withDefaults()
	ranks := cfg.Ranks[len(cfg.Ranks)-1]
	edges := TwitterSim(cfg).Edges()
	src := static.LargestComponentVertex(edges)

	t := &Table{
		Title:  fmt.Sprintf("Batching baseline vs continuous engine (twitter-sim, BFS, %d events)", len(edges)),
		Header: []string{"Strategy", "TotalTime", "Rate", "Build", "Compute", "MaxStaleness"},
	}

	batchSizes := []int{len(edges) / 100, len(edges) / 10, len(edges)}
	for _, bs := range batchSizes {
		if bs < 1 {
			bs = 1
		}
		snap, err := baseline.New(baseline.Config{
			BatchSize: bs, Algorithm: baseline.BFS, Source: src, Undirected: true,
		})
		if err != nil {
			panic(err)
		}
		t0 := metrics.StartTimer()
		for _, e := range edges {
			snap.Ingest(e)
		}
		snap.Flush()
		total := t0.Elapsed()
		t.AddRow(
			fmt.Sprintf("batching (B=%d, %d snapshots)", bs, snap.Batches()),
			fmtDur(total),
			metrics.HumanRate(metrics.Rate(uint64(len(edges)), total)),
			fmtDur(snap.BuildTime),
			fmtDur(snap.ComputeTime),
			fmt.Sprintf("%d events", bs),
		)
	}

	// Continuous: one engine maintaining the live answer the whole way.
	e := core.New(core.Options{Ranks: ranks, Undirected: true}, algo.BFS{})
	e.InitVertex(0, src)
	t1 := metrics.StartTimer()
	stats, err := e.Run(stream.Split(edges, ranks))
	if err != nil {
		panic(err)
	}
	total := t1.Elapsed()
	t.AddRow(
		"continuous incremental (this paper)",
		fmtDur(total),
		metrics.HumanRate(stats.EventsPerSec),
		"(amortized)", "(amortized)",
		"0 events",
	)

	// Sanity: both observables agree at the end of the stream.
	lastBatch, _ := baseline.New(baseline.Config{
		BatchSize: len(edges), Algorithm: baseline.BFS, Source: src, Undirected: true})
	for _, ed := range edges {
		lastBatch.Ingest(ed)
	}
	lastBatch.Flush()
	for _, p := range e.Collect(0) {
		if want, _ := lastBatch.Query(graph.VertexID(p.ID)); want != p.Val {
			panic(fmt.Sprintf("batching: divergence at %d: %d vs %d", p.ID, p.Val, want))
		}
	}

	t.AddNote("paper shape (§VI-A): a continuous design supersedes snapshotting — equivalent state at any boundary, but queryable at every instant with zero batch staleness")
	t.AddNote("small batches pay a full rebuild+recompute per boundary; large batches amortize cost but serve answers stale by a whole batch")
	return t
}
