// Webcrawl: live crawl-depth analytics on a growing hyperlink graph.
//
// The paper's World Wide Web example (§I): pages and hyperlinks appear
// continuously. This example streams a synthetic preferential-attachment
// web graph — new pages linking to popular old ones — while a live BFS
// maintains every page's minimum click distance from a seed page. The same
// BFS then handles link rot (the paper's §VI-B extension, here through the
// engine's parent-witness deletion protocol): a fraction of links are later
// removed, and depths re-converge.
//
// Run: go run ./examples/webcrawl
package main

import (
	"fmt"

	"incregraph"
	"incregraph/internal/gen"
)

const (
	pages   = 20000
	outDeg  = 8
	seed    = incregraph.VertexID(0)
	bfsAlgo = 0
)

func main() {
	// Phase 1: add-only crawl with plain incremental BFS, queried live.
	g := incregraph.New(incregraph.Config{Ranks: 8}, incregraph.BFS())
	g.InitVertex(bfsAlgo, seed)

	links := gen.PreferentialAttachment(pages, outDeg, 1, 99)
	live := incregraph.NewLiveStream()
	if err := g.Start(live); err != nil {
		panic(err)
	}
	quarter := len(links) / 4
	for i, l := range links {
		live.PushEdge(l)
		if (i+1)%quarter == 0 {
			// Consistent global depth histogram, collected mid-crawl
			// without pausing the crawler.
			snap := g.Snapshot(bfsAlgo)
			hist := depthHistogram(snap.AsMap())
			fmt.Printf("after %6d links: depth histogram %v (snapshot in %s)\n",
				i+1, hist, snap.Latency().Round(1e3))
		}
	}
	live.Close()
	stats := g.Wait()
	fmt.Printf("crawl ingested %d links at %.0f events/sec\n\n", stats.Events.Topo(), stats.EventRate())

	// Phase 2: link rot. Re-play the same crawl, deleting 10% of links
	// afterwards, and verify depths re-converge to the static answer on the
	// final topology.
	g2 := incregraph.New(incregraph.Config{Ranks: 8}, incregraph.BFS())
	g2.InitVertex(bfsAlgo, seed)
	var events []incregraph.EdgeEvent
	for _, l := range links {
		events = append(events, incregraph.EdgeEvent{Edge: l})
	}
	for i, l := range links {
		if i%10 == 3 { // delete every 10th link, same orientation as added
			events = append(events, incregraph.EdgeEvent{Edge: l, Delete: true})
		}
	}
	// Deletes must stay ordered after their adds: one stream.
	if _, err := g2.Run(incregraph.StreamEvents(events)); err != nil {
		panic(err)
	}
	depths := g2.CollectMap(bfsAlgo)
	fmt.Printf("after link rot: depth histogram %v\n", depthHistogram(depths))

	// Cross-check against a static BFS over the final dynamic topology.
	want := incregraph.StaticBFS(g2.Topology(), seed)
	for v, d := range depths {
		w := want[v]
		if w != d {
			panic(fmt.Sprintf("divergence at page %d: live %d static %d", v, d, w))
		}
	}
	fmt.Println("live BFS matches static BFS on the post-rot topology")
}

// depthHistogram buckets pages by click distance (levels are hops+1).
func depthHistogram(levels map[incregraph.VertexID]uint64) []int {
	var hist []int
	for _, lvl := range levels {
		if lvl == incregraph.Infinity || lvl == incregraph.Unset {
			continue
		}
		d := int(lvl - 1)
		for len(hist) <= d {
			hist = append(hist, 0)
		}
		hist[d]++
	}
	return hist
}
