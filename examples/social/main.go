// Social: community formation on an append-only forum graph.
//
// The paper's Reddit example (§I): the bipartite graph between users and
// posts is only ever appended to as time moves forward. This example
// streams a synthetic forum (users interacting with posts) while an
// incremental Connected Components algorithm maintains live community
// labels — two users are in the same community once any chain of shared
// posts links them.
//
// It demonstrates the "When" question the paper contrasts with static
// "What" questions: instead of asking "are users A and B in the same
// community?" against a snapshot, it asks to be notified the moment they
// first become connected, and periodically collects a consistent global
// snapshot (without pausing the stream) to chart how communities merge
// over time.
//
// Run: go run ./examples/social
package main

import (
	"fmt"
	"sync/atomic"

	"incregraph"
	"incregraph/internal/gen"
)

const (
	users  = 2000
	posts  = 8000
	events = 50000
)

func main() {
	g := incregraph.New(incregraph.Config{Ranks: 8}, incregraph.CC())

	// "When do users 3 and 1234 join the same community?" Watching both
	// converge to the same label needs source-side knowledge the CC state
	// does not carry (the paper's §III-E point that query design and
	// algorithm design go hand in hand), so we watch for either of them
	// adopting the other's *component minimum* is not locally knowable
	// either. What monotone local state does support: "when has user
	// 1234's community grown to include the labels of the seed users" —
	// here we trigger when 1234's label first drops below its own hash,
	// i.e. the instant it merges into any larger community.
	var merged atomic.Bool
	watched := incregraph.VertexID(1234)
	own := incregraph.CCLabelOf(watched)
	g.WhenVertex(0, watched,
		func(label uint64) bool { return label != 0 && label < own },
		func(label uint64) {
			merged.Store(true)
			fmt.Printf("trigger: user %d merged into community %x\n", watched, label)
		})

	feed := gen.Forum(users, posts, events, 7)
	live := incregraph.NewLiveStream()
	if err := g.Start(live); err != nil {
		panic(err)
	}

	// Stream in thirds, snapshotting between them to watch communities
	// coalesce — each snapshot is collected while ingestion continues.
	third := len(feed) / 3
	pushed := uint64(0)
	for part := 0; part < 3; part++ {
		lo, hi := part*third, (part+1)*third
		if part == 2 {
			hi = len(feed)
		}
		for _, ev := range feed[lo:hi] {
			live.PushEdge(ev)
			pushed++
		}
		snap := g.Snapshot(0)
		labels := snap.AsMap()
		fmt.Printf("after ~%d interactions: %d vertices seen, %d communities (snapshot latency %s)\n",
			pushed, len(labels), countCommunities(labels), snap.Latency().Round(1e3))
	}
	live.Close()
	stats := g.Wait()

	final := g.CollectMap(0)
	fmt.Printf("\nfinal: %d communities across %d vertices; rate %.0f events/sec; watched user merged: %v\n",
		countCommunities(final), len(final), stats.EventRate(), merged.Load())

	// Largest community size via the final labels.
	sizes := map[uint64]int{}
	for _, l := range final {
		sizes[l]++
	}
	max := 0
	for _, n := range sizes {
		if n > max {
			max = n
		}
	}
	fmt.Printf("largest community holds %d of %d vertices (%.1f%%)\n",
		max, len(final), 100*float64(max)/float64(len(final)))
}

func countCommunities(labels map[incregraph.VertexID]uint64) int {
	uniq := map[uint64]bool{}
	for _, l := range labels {
		uniq[l] = true
	}
	return len(uniq)
}
