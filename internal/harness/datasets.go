package harness

import (
	"runtime"

	"incregraph/internal/core"
	"incregraph/internal/gen"
	"incregraph/internal/graph"
	"incregraph/internal/rmat"
	"incregraph/internal/static"

	"incregraph/internal/csr"
)

// Config scopes the experiments. The zero value selects sensible
// laptop-scale defaults; Quick shrinks everything for use inside tests.
type Config struct {
	// Scale: synthetic datasets have on the order of 2^Scale vertices
	// (default 16; the paper's Table I graphs are 2^25..2^31 — the shape,
	// not the size, is the reproduction target).
	Scale int
	// EdgeFactor is edges-per-vertex (default 16, matching Table I).
	EdgeFactor int
	// Ranks is the rank-count sweep for scaling figures (default
	// {1, 2, 4, ..., NumCPU}).
	Ranks []int
	// Quick selects tiny sizes for test runs.
	Quick bool
}

func (c Config) withDefaults() Config {
	if c.Quick {
		if c.Scale == 0 {
			c.Scale = 10
		}
		if c.EdgeFactor == 0 {
			c.EdgeFactor = 8
		}
		if len(c.Ranks) == 0 {
			c.Ranks = []int{1, 2, 4}
		}
		return c
	}
	if c.Scale == 0 {
		c.Scale = 16
	}
	if c.EdgeFactor == 0 {
		c.EdgeFactor = 16
	}
	if len(c.Ranks) == 0 {
		for r := 1; r <= runtime.GOMAXPROCS(0); r *= 2 {
			c.Ranks = append(c.Ranks, r)
		}
	}
	return c
}

// Dataset is a synthetic stand-in for one of the paper's Table I graphs.
type Dataset struct {
	// Name labels the stand-in; PaperName is the real-world graph it
	// substitutes (multi-terabyte, unshippable — see DESIGN.md).
	Name      string
	PaperName string
	// StructureClass documents why the stand-in preserves the relevant
	// behaviour.
	StructureClass string
	edges          func() []graph.Edge
}

// Edges materializes the dataset's (pre-randomized) edge stream.
func (d Dataset) Edges() []graph.Edge { return d.edges() }

// Datasets returns the four Table I stand-ins at the configured scale.
func Datasets(cfg Config) []Dataset {
	cfg = cfg.withDefaults()
	n := 1 << uint(cfg.Scale)
	ef := cfg.EdgeFactor
	return []Dataset{
		{
			Name:           "friendster-sim",
			PaperName:      "Friendster (65.6M V, 3.61B E)",
			StructureClass: "social network, scale-free (R-MAT, Graph500 params)",
			edges: func() []graph.Edge {
				return gen.Shuffle(rmat.Generate(rmat.Config{Scale: cfg.Scale, EdgeFactor: ef, Seed: 101}), 1)
			},
		},
		{
			Name:           "twitter-sim",
			PaperName:      "Twitter (41.7M V, 2.94B E)",
			StructureClass: "follower network, scale-free (R-MAT + noise)",
			edges: func() []graph.Edge {
				return gen.Shuffle(rmat.Generate(rmat.Config{Scale: cfg.Scale, EdgeFactor: ef, Seed: 202, Noise: 0.1}), 2)
			},
		},
		{
			Name:           "sk2005-sim",
			PaperName:      "SK2005 (50.6M V, 3.86B E)",
			StructureClass: "web crawl, preferential attachment",
			edges: func() []graph.Edge {
				return gen.Shuffle(gen.PreferentialAttachment(n, ef, 1, 303), 3)
			},
		},
		{
			Name:           "webgraph-sim",
			PaperName:      "Webgraph (3.56B V, 257B E)",
			StructureClass: "hyperlink graph, preferential attachment (2x vertices)",
			edges: func() []graph.Edge {
				return gen.Shuffle(gen.PreferentialAttachment(2*n, ef/2+1, 1, 404), 4)
			},
		},
	}
}

// TwitterSim returns the dataset Figs 3 and 7 use (the paper runs both on
// its Twitter graph).
func TwitterSim(cfg Config) Dataset {
	return Datasets(cfg)[1]
}

// LargestComponentVertex implements the paper's source policy: "a vertex
// is randomly pre-chosen so that it is known to eventually lie within the
// largest connected component" (§V-A). Deterministically, the smallest
// vertex ID in the largest component.
func LargestComponentVertex(edges []graph.Edge) graph.VertexID {
	labels := static.ConnectedComponents(csr.Build(edges, true))
	counts := map[uint64]int{}
	for _, l := range labels {
		if l != static.Unreached {
			counts[l]++
		}
	}
	var best uint64
	bestN := -1
	for l, n := range counts {
		if n > bestN || (n == bestN && l < best) {
			best, bestN = l, n
		}
	}
	for v, l := range labels {
		if l == best {
			return graph.VertexID(v)
		}
	}
	return 0
}

// AlgoSpec names one of the paper's evaluated algorithms and builds a
// fresh program (plus the init vertices it needs) for a given workload.
type AlgoSpec struct {
	// Name matches the paper's Fig. 5 x-axis labels; CON is
	// construction-only.
	Name string
	// Build returns the program and the vertices to InitVertex, given the
	// workload's edges. A nil program means construction only.
	Build func(edges []graph.Edge) (core.Program, []graph.VertexID)
}
