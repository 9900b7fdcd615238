// Checkpoint: persist a live analysis across process restarts.
//
// Long-running on-line analytics must survive restarts without replaying
// the entire event history. With the lifecycle state machine the engine
// no longer has to run to completion first: Pause halts ingestion and
// drains every in-flight cascade to a quiescent point, making the state
// checkpointable mid-run. The checkpoint's metadata block records how far
// the stream had been consumed, so a restarted process re-attaches the
// remainder and continues exactly where the paused run left off.
//
// This example simulates that lifecycle inside one process: start a live
// ingestion with BFS and CC state, pause it mid-stream, checkpoint, shut
// the service down, "restart" by loading the checkpoint into a fresh
// graph, feed it the rest of the stream, and verify the final state is
// identical to an uninterrupted run.
//
// The checkpoint plays the persistence role of DegAwareRHH's NVRAM tier in
// the paper's prototype (§III-B): the dynamic graph outlives the process.
//
// Run: go run ./examples/checkpoint
package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"incregraph"
	"incregraph/internal/gen"
)

func main() {
	edges := gen.Shuffle(gen.PreferentialAttachment(10000, 6, 1, 11), 11)
	programs := []incregraph.Program{incregraph.BFS(), incregraph.CC()}

	// Phase 1: the "first process" is a live service over an unbounded
	// stream.
	g1 := incregraph.New(incregraph.Config{Ranks: 4}, programs...)
	g1.InitVertex(0, 0)
	live := incregraph.NewLiveStream()
	if err := g1.Start(live); err != nil {
		panic(err)
	}
	for _, e := range edges {
		live.PushEdge(e)
	}
	// Pause mid-stream: the engine parks at an event boundary with the
	// unconsumed suffix still buffered in the live stream.
	time.Sleep(2 * time.Millisecond)
	if err := g1.Pause(); err != nil {
		panic(err)
	}
	var ckpt bytes.Buffer
	if err := g1.WriteCheckpoint(&ckpt); err != nil {
		panic(err)
	}
	fmt.Printf("paused after %d/%d events, checkpoint written: %d bytes\n",
		g1.Ingested(), len(edges), ckpt.Len())
	// The paused service is no longer needed: graceful shutdown releases
	// every engine goroutine without waiting for the stream to close.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := g1.Stop(ctx); err != nil {
		panic(err)
	}

	// Phase 2: the "restarted process" loads the checkpoint and
	// re-attaches the stream from the offset the metadata reports.
	g2, err := incregraph.LoadCheckpoint(&ckpt, incregraph.Config{}, programs...)
	if err != nil {
		panic(err)
	}
	meta := g2.CheckpointMeta()
	if !meta.Paused {
		panic("expected a paused-run checkpoint")
	}
	stats, err := g2.Run(incregraph.StreamEdges(edges[meta.Ingested:]))
	if err != nil {
		panic(err)
	}
	fmt.Printf("restored at stream offset %d, ingested %d more events at %.0f ev/s\n",
		meta.Ingested, stats.Events.Topo(), stats.EventRate())

	// Reference: an uninterrupted run over the full stream.
	ref := incregraph.New(incregraph.Config{Ranks: 4}, programs...)
	ref.InitVertex(0, 0)
	if _, err := ref.Run(incregraph.StreamEdges(edges)); err != nil {
		panic(err)
	}
	for algo, name := range []string{"BFS", "CC"} {
		want := ref.CollectMap(algo)
		got := g2.CollectMap(algo)
		if len(got) != len(want) {
			panic(fmt.Sprintf("%s: %d vs %d vertices", name, len(got), len(want)))
		}
		for v, val := range want {
			if got[v] != val {
				panic(fmt.Sprintf("%s: vertex %d diverged (%d vs %d)", name, v, got[v], val))
			}
		}
		fmt.Printf("%s state identical to uninterrupted run (%d vertices)\n", name, len(want))
	}
}
