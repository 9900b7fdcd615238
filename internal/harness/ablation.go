package harness

import (
	"fmt"

	"incregraph/internal/algo"
	"incregraph/internal/core"
	"incregraph/internal/metrics"
	"incregraph/internal/partition"
	"incregraph/internal/static"
	"incregraph/internal/stream"
)

// Ablations quantifies the design choices DESIGN.md calls out, each as an
// ingestion-rate sweep on the Twitter-like workload with a live BFS:
//
//   - Degree-aware threshold (DegAwareRHH's core idea, §III-B): SmallCap 0
//     keeps every adjacency in a hash table; larger values keep low-degree
//     vertices in the compact inline form.
//   - Message batching: BatchSize 1 sends every event individually
//     (per-event mailbox synchronization); larger batches amortize it.
//   - Partitioner: the paper's consistent hash vs naive modulo (which
//     clusters R-MAT's ID-correlated heavy vertices).
//   - Ingest priority: the default algorithmic-events-first loop vs
//     pulling topology events eagerly (§V-C's latency/throughput note).
func Ablations(cfg Config) *Table {
	cfg = cfg.withDefaults()
	ranks := cfg.Ranks[len(cfg.Ranks)-1]
	edges := TwitterSim(cfg).Edges()
	src := static.LargestComponentVertex(edges)

	run := func(opts core.Options) float64 {
		opts.Ranks = ranks
		opts.Undirected = true
		e := core.New(opts, algo.BFS{})
		e.InitVertex(0, src)
		stats, err := e.Run(stream.Split(edges, ranks))
		if err != nil {
			panic(err)
		}
		return stats.EventRate()
	}

	t := &Table{
		Title:  fmt.Sprintf("Ablations: design choices on twitter-sim, live BFS, %d ranks", ranks),
		Header: []string{"Dimension", "Variant", "Rate"},
	}
	for _, sc := range []int{1, 4, 16, 64} {
		rate := run(core.Options{SmallCap: sc})
		t.AddRow("degree-aware threshold", fmt.Sprintf("smallCap=%d", sc), metrics.HumanRate(rate))
	}
	for _, bs := range []int{1, 16, 256, 4096} {
		rate := run(core.Options{BatchSize: bs})
		t.AddRow("message batching", fmt.Sprintf("batch=%d", bs), metrics.HumanRate(rate))
	}
	for _, p := range []struct {
		name string
		part partition.Partitioner
	}{
		{"hashed (paper)", partition.NewHashed(ranks)},
		{"modulo (naive)", partition.NewModulo(ranks)},
	} {
		rate := run(core.Options{Partitioner: p.part})
		bal := partition.Balance(p.part, edges)
		t.AddRow("partitioner", p.name,
			fmt.Sprintf("%s (edge skew %.2fx)", metrics.HumanRate(rate), bal.Skew))
	}
	for _, ingestFirst := range []bool{false, true} {
		rate := run(core.Options{IngestFirst: ingestFirst})
		name := "algo-events first (default)"
		if ingestFirst {
			name = "ingest first"
		}
		t.AddRow("loop priority", name, metrics.HumanRate(rate))
	}
	t.AddNote("expected: inline small-degree storage beats all-hash; batching beats per-event sends; hashing evens edge skew; priority mainly shifts latency, not throughput")
	return t
}
