// Quickstart: the smallest complete tour of the public API.
//
// It builds a small social graph one edge-event at a time while a live BFS
// maintains every member's distance from a chosen person, demonstrating
// the paper's headline capabilities: constant-time local-state queries
// while ingesting, a "When" trigger that fires the moment a condition
// first holds, an asynchronous global snapshot with no pause, and a static
// algorithm run over the final dynamic structure.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"

	"incregraph"
)

func main() {
	// A graph hosting one algorithm: incremental BFS. Program index 0.
	g := incregraph.New(incregraph.Config{Ranks: 4}, incregraph.BFS())

	// The BFS source can be chosen at any time — before or during the run.
	const alice = 0
	g.InitVertex(0, alice)

	// Fire once, immediately, when vertex 9 first comes within 3 hops of
	// alice (level = hops + 1).
	g.WhenVertex(0, 9,
		func(level uint64) bool { return level <= 4 },
		func(level uint64) { fmt.Printf("trigger: vertex 9 is now %d hops from alice\n", level-1) })

	live := incregraph.NewLiveStream()
	if err := g.Start(live); err != nil {
		panic(err)
	}

	// Stream in friendships: a chain 0-1-2-...-9, then a shortcut 0-8.
	for i := 0; i < 9; i++ {
		live.PushEdge(incregraph.Edge{Src: incregraph.VertexID(i), Dst: incregraph.VertexID(i + 1), W: 1})
	}
	live.PushEdge(incregraph.Edge{Src: alice, Dst: 8, W: 1})

	// Observe local state while the stream is still open.
	g.Drain(live)
	res := g.Query(0, 9)
	fmt.Printf("live query: vertex 9 is %d hops from alice (exists=%v)\n", res.Value-1, res.Exists)

	// Collect a globally consistent snapshot without pausing ingestion.
	snap := g.Snapshot(0).AsMap()
	fmt.Printf("snapshot: %d vertices captured; vertex 5 at %d hops\n", len(snap), snap[5]-1)

	live.Close()
	stats := g.Wait()
	fmt.Printf("done: %s\n", stats)

	// The paused dynamic graph accepts any static algorithm.
	levels := incregraph.StaticBFS(g.Topology(), alice)
	fmt.Printf("static check: vertex 9 at %d hops (matches live state)\n", levels[9]-1)
}
