package harness

import (
	"fmt"

	"incregraph/internal/algo"
	"incregraph/internal/core"
	"incregraph/internal/metrics"
	"incregraph/internal/static"
	"incregraph/internal/stream"
)

// Counters runs a saturated live-BFS ingest on the Twitter-like stand-in
// and reports the engine's own per-rank counters — the inside view of the
// same run Fig5 times from the outside. Wall-clock rates say how fast the
// run went; these counters say where the events went: cascade volume per
// rank, inter-rank traffic and achieved batching, and mailbox high-water
// marks (the saturation indicator — a rank whose high-water mark approaches
// the event count is the bottleneck).
func Counters(cfg Config) *Table {
	cfg = cfg.withDefaults()
	ranks := cfg.Ranks[len(cfg.Ranks)-1]
	edges := TwitterSim(cfg).Edges()
	src := static.LargestComponentVertex(edges)

	e := core.New(core.Options{Ranks: ranks, Undirected: true}, algo.BFS{})
	e.InitVertex(0, src)
	if _, err := e.Run(stream.Split(edges, ranks)); err != nil {
		panic(err)
	}
	es := e.EngineStats()

	t := &Table{
		Title: fmt.Sprintf("Engine counters: saturated live BFS (twitter-sim, %d ranks)", ranks),
		Header: []string{"Rank", "Topo", "Algo", "Cascades", "Sent", "Self", "Combined",
			"Flushes", "Batching", "Drains", "MailboxHWM"},
	}
	for _, r := range es.PerRank {
		var sent, flushes uint64
		for d := range r.SentTo {
			sent += r.SentTo[d]
			flushes += r.FlushesTo[d]
		}
		batching := "-"
		if flushes > 0 {
			batching = fmt.Sprintf("%.1f", float64(sent)/float64(flushes))
		}
		t.AddRow(fmt.Sprintf("%d", r.Rank),
			metrics.HumanCount(r.Events.Topo()),
			metrics.HumanCount(r.Events.Algo()),
			metrics.HumanCount(r.CascadeEmits),
			metrics.HumanCount(sent),
			metrics.HumanCount(r.SelfDelivered),
			metrics.HumanCount(r.CombinedAway),
			metrics.HumanCount(flushes),
			batching,
			metrics.HumanCount(r.BatchesDrained),
			metrics.HumanCount(r.MailboxHWM))
	}
	t.AddRow("all",
		metrics.HumanCount(es.Events.Topo()),
		metrics.HumanCount(es.Events.Algo()),
		metrics.HumanCount(es.CascadeEmits),
		metrics.HumanCount(es.MessagesSent),
		metrics.HumanCount(es.SelfDelivered),
		metrics.HumanCount(es.CombinedAway),
		metrics.HumanCount(es.Flushes),
		fmt.Sprintf("%.1f", es.BatchingFactor()),
		metrics.HumanCount(es.BatchesDrained),
		metrics.HumanCount(es.MailboxHWM))
	t.AddNote("engine-side rate: %s over %s uptime; event skew %.2f (max/mean per-rank events)",
		metrics.HumanRate(es.EventRate()), fmtDur(es.Uptime), eventSkew(es))
	t.AddNote("transport: %s (node %d of %d) — inter-rank sends above are %s pushes",
		es.Transport.Kind, es.Transport.Node, es.Transport.Nodes, es.Transport.Kind)
	return t
}

// eventSkew is max/mean of per-rank processed events (1.0 = balanced).
func eventSkew(es core.EngineStats) float64 {
	if len(es.PerRank) == 0 {
		return 0
	}
	var max, sum uint64
	for _, r := range es.PerRank {
		ev := r.Events.Total()
		sum += ev
		if ev > max {
			max = ev
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(max) / (float64(sum) / float64(len(es.PerRank)))
}
