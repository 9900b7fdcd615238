// Package incregraph is an incremental graph processing engine for on-line
// analytics, reproducing Sallinen, Pearce and Ripeanu, "Incremental Graph
// Processing for On-Line Analytics" (IPDPS 2019).
//
// Instead of analyzing static snapshots, incregraph maintains live
// algorithm state — BFS levels, shortest-path costs, component labels,
// S-T connectivity — while the graph's topology streams in, responsive at
// single-edge-event granularity. Topology changes are processed
// asynchronously, concurrently, and without shared state by a set of
// shared-nothing event-loop ranks; REMO algorithms (REcursive updates,
// MOnotonic convergence) guarantee the state converges to the same
// deterministic answer a static algorithm would compute, under any event
// interleaving.
//
// The headline capabilities, all available while ingestion is running:
//
//   - Observe any vertex's local algorithm state in constant time
//     (Graph.Query).
//   - Register "When" triggers that fire a callback the instant a
//     vertex's state satisfies a predicate — once, with no false positives
//     (Graph.When, Graph.WhenVertex).
//   - Collect a globally consistent snapshot of an algorithm's state
//     without pausing the event stream, via a Chandy-Lamport-style
//     versioned collection (Graph.Snapshot).
//   - Run any static graph algorithm over the dynamic graph once paused
//     (Graph.Topology).
//
// # Quick start
//
//	g := incregraph.New(incregraph.Config{Ranks: 8}, incregraph.BFS())
//	g.InitVertex(0, source)           // choose the BFS source (any time)
//	live := incregraph.NewLiveStream()
//	g.Start(live)
//	live.PushEdge(incregraph.Edge{Src: a, Dst: b, W: 1})
//	...
//	res := g.Query(0, someVertex)     // live local state
//	snap := g.Snapshot(0).Wait()      // consistent global state, no pause
//	live.Close()
//	stats := g.Wait()                 // final Stats: stats.EventRate() is the run's rate
//
// See examples/ for complete programs, cmd/paperbench for the harness that
// regenerates the paper's tables and figures, and bench/ for the benchmark
// that measures event rates and update latency (make bench).
package incregraph
