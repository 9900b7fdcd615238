package core_test

import (
	"fmt"
	"testing"

	"incregraph/internal/algo"
	"incregraph/internal/core"
	"incregraph/internal/graph"
	"incregraph/internal/rmat"
	"incregraph/internal/stream"
)

// TestHybridEquivalenceProperty runs the same weighted R-MAT stream
// through the concurrent engine with every adjacency scanned (a threshold
// above any degree), with every adjacency indexed (threshold 1), at the
// default threshold, and at the default with auto-tune — and demands
// identical converged vertex states for BFS, SSSP, CC, and Multi S-T. The
// store's two lookup paths, array scan and position index, are a pure
// representation choice, and the controller only reschedules; this is the
// engine-level half of the differential property (the store-level half is
// TestAdjacencyProperty in internal/graph, the schedule-exploring half the
// sim sweep's index checks).
func TestHybridEquivalenceProperty(t *testing.T) {
	edges := rmat.Generate(rmat.Config{Scale: 10, EdgeFactor: 8, Seed: 99, MaxWeight: 6})
	src := edges[0].Src
	sources := []graph.VertexID{edges[0].Src, edges[1].Src, edges[2].Dst, edges[3].Src}
	names := []string{"bfs", "sssp", "cc", "st"}

	run := func(opts core.Options) (maps [4]map[graph.VertexID]uint64) {
		e := core.New(opts, algo.BFS{}, algo.SSSP{}, algo.CC{}, algo.NewMultiST(sources))
		e.InitVertex(0, src)
		e.InitVertex(1, src)
		for _, s := range sources {
			e.InitVertex(3, s)
		}
		if _, err := e.Run(stream.Split(edges, opts.Ranks)); err != nil {
			t.Fatal(err)
		}
		for a := range maps {
			maps[a] = e.CollectMap(a)
		}
		return maps
	}

	for _, ranks := range []int{1, 3} {
		t.Run(fmt.Sprintf("ranks=%d", ranks), func(t *testing.T) {
			base := run(core.Options{Ranks: ranks, Undirected: true, SmallCap: len(edges)})
			variants := []struct {
				name string
				opts core.Options
			}{
				{"indexed", core.Options{Ranks: ranks, Undirected: true, SmallCap: 1}},
				{"default", core.Options{Ranks: ranks, Undirected: true}},
				{"autotune", core.Options{Ranks: ranks, Undirected: true, AutoTune: true}},
			}
			for _, vt := range variants {
				got := run(vt.opts)
				for a := range got {
					if len(got[a]) != len(base[a]) {
						t.Fatalf("%s %s: %d vertices, %d scanned",
							vt.name, names[a], len(got[a]), len(base[a]))
					}
					for v, val := range got[a] {
						if want, ok := base[a][v]; !ok || val != want {
							t.Fatalf("%s %s: vertex %d = %d, want %d (ok=%v)",
								vt.name, names[a], v, val, want, ok)
						}
					}
				}
			}
		})
	}
}
