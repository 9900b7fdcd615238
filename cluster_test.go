package incregraph_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"incregraph"
	"incregraph/internal/gen"
	"incregraph/internal/rmat"
)

// The PR's acceptance differential: a 2-process TCP cluster run (both
// processes hosted in this test binary, joined over 127.0.0.1) must
// converge to exactly the final state of a single-process in-memory run
// with the same global rank count — for all five algorithms, with
// coalescing on and off — and both must match the static oracle.

type clusterCase struct {
	name string
	// programs builds a fresh program instance (engines must not share
	// program state); sources are the InitVertex seeds for program 0.
	programs func(sources []incregraph.VertexID) incregraph.Program
	policy   incregraph.WeightPolicy
	sources  int // how many init vertices the algorithm takes
	oracle   func(t incregraph.Topology, sources []incregraph.VertexID) []uint64
}

var clusterCases = []clusterCase{
	{
		name:     "bfs",
		programs: func([]incregraph.VertexID) incregraph.Program { return incregraph.BFS() },
		sources:  1,
		oracle: func(t incregraph.Topology, s []incregraph.VertexID) []uint64 {
			return incregraph.StaticBFS(t, s[0])
		},
	},
	{
		name:     "sssp",
		programs: func([]incregraph.VertexID) incregraph.Program { return incregraph.SSSP() },
		policy:   incregraph.KeepMinWeight,
		sources:  1,
		oracle: func(t incregraph.Topology, s []incregraph.VertexID) []uint64 {
			return incregraph.StaticSSSP(t, s[0])
		},
	},
	{
		name:     "cc",
		programs: func([]incregraph.VertexID) incregraph.Program { return incregraph.CC() },
		oracle: func(t incregraph.Topology, _ []incregraph.VertexID) []uint64 {
			return incregraph.StaticCC(t)
		},
	},
	{
		name: "multist",
		programs: func(s []incregraph.VertexID) incregraph.Program {
			return incregraph.MultiST(s)
		},
		sources: 3,
		oracle:  incregraph.StaticMultiST,
	},
	{
		name:     "widest",
		programs: func([]incregraph.VertexID) incregraph.Program { return incregraph.WidestPath() },
		policy:   incregraph.KeepMaxWeight,
		sources:  1,
		oracle: func(t incregraph.Topology, s []incregraph.VertexID) []uint64 {
			return incregraph.StaticWidestPath(t, s[0])
		},
	},
}

// clusterEdges is the shared workload: a weighted RMAT graph, shuffled so
// round-robin stream splitting interleaves the power-law structure.
func clusterEdges() []incregraph.Edge {
	edges := rmat.GenerateParallel(rmat.Config{Scale: 7, EdgeFactor: 8, Seed: 1, MaxWeight: 16}, 0)
	return gen.Shuffle(edges, 11)
}

func TestClusterTwoProcessDifferential(t *testing.T) {
	edges := clusterEdges()
	for _, tc := range clusterCases {
		for _, noCoalesce := range []bool{false, true} {
			name := tc.name
			if noCoalesce {
				name += "/nocoalesce"
			}
			t.Run(name, func(t *testing.T) {
				sources := make([]incregraph.VertexID, tc.sources)
				for i := range sources {
					sources[i] = edges[(i*2654435761)%len(edges)].Src
				}
				base := incregraph.Config{
					WeightPolicy: tc.policy,
					NoCoalesce:   noCoalesce,
				}

				// Reference: one process, four in-process ranks.
				refCfg := base
				refCfg.Ranks = 4
				ref := incregraph.New(refCfg, tc.programs(sources))
				for _, s := range sources {
					ref.InitVertex(0, s)
				}
				if _, err := ref.Run(incregraph.SplitEdges(edges, 4)...); err != nil {
					t.Fatal(err)
				}
				want := ref.CollectMap(0)

				// Cluster: two processes × two ranks over loopback TCP.
				clCfg := base
				clCfg.Ranks = 2
				clCfg.Cluster = &incregraph.ClusterConfig{Proc: 0, Procs: 2, Listen: "127.0.0.1:0"}
				g0, err := incregraph.NewCluster(clCfg, tc.programs(sources))
				if err != nil {
					t.Fatal(err)
				}
				clCfg.Cluster = &incregraph.ClusterConfig{Proc: 1, Procs: 2, Join: g0.ClusterAddr()}
				g1, err := incregraph.NewCluster(clCfg, tc.programs(sources))
				if err != nil {
					t.Fatal(err)
				}
				// Inits go through process 0 only; sources owned by process
				// 1's ranks must cross the wire via the pre-start buffer.
				for _, s := range sources {
					g0.InitVertex(0, s)
				}
				streams := incregraph.SplitEdges(edges, 4)
				var wg sync.WaitGroup
				for _, g := range []*incregraph.Graph{g0, g1} {
					wg.Add(1)
					go func(g *incregraph.Graph) {
						defer wg.Done()
						if _, err := g.Run(streams...); err != nil {
							t.Errorf("cluster: %v", err)
						}
					}(g)
				}
				done := make(chan struct{})
				go func() { wg.Wait(); close(done) }()
				select {
				case <-done:
				case <-time.After(120 * time.Second):
					t.Fatal("cluster run did not terminate")
				}
				if err := g0.Err(); err != nil {
					t.Fatal(err)
				}
				if err := g1.Err(); err != nil {
					t.Fatal(err)
				}

				// Merge the disjoint shards and compare with the
				// single-process run, vertex for vertex.
				got := g0.CollectMap(0)
				for v, val := range g1.CollectMap(0) {
					if _, dup := got[v]; dup {
						t.Fatalf("vertex %d collected on both processes", v)
					}
					got[v] = val
				}
				if len(got) != len(want) {
					t.Fatalf("cluster reached %d vertices, single-process %d", len(got), len(want))
				}
				for v, w := range want {
					if got[v] != w {
						t.Fatalf("vertex %d: cluster %d, single-process %d", v, got[v], w)
					}
				}

				// Both topologies' static oracle agrees (the shards' unions
				// see the same graph the reference saw).
				oracle := tc.oracle(ref.Topology(), sources)
				for v, val := range got {
					if int(v) < len(oracle) && val != oracle[v] {
						t.Fatalf("vertex %d: cluster %d, static oracle %d", v, val, oracle[v])
					}
				}

				// The wire was actually exercised, and the transport stats
				// agree with the termination protocol's counters.
				s0, s1 := g0.Stats().Transport, g1.Stats().Transport
				if s0.Kind != "tcp" || s0.Nodes != 2 || s1.Node != 1 {
					t.Fatalf("unexpected transport placement: %+v / %+v", s0, s1)
				}
				if s0.Peers[0].SentEvents != s1.Peers[0].RecvEvents ||
					s1.Peers[0].SentEvents != s0.Peers[0].RecvEvents {
					t.Fatalf("sent/recv counters disagree after termination: %+v / %+v",
						s0.Peers[0], s1.Peers[0])
				}
				if s0.Peers[0].SentEvents+s1.Peers[0].SentEvents == 0 {
					t.Fatal("no events crossed the wire")
				}
			})
		}
	}
}

// TestClusterChurnDifferential: the deletion protocol across genuine
// process shards. A churned stream (live deletes and re-adds from
// gen.Churn, split per endpoint pair so every delete rides the stream that
// carried its add) runs on a 2- and a 3-process loopback cluster; the
// merged shards must match a single-process run with the same global rank
// count vertex for vertex, and both must match the static oracle over the
// surviving topology. Witness invalidation cascades here cross the wire:
// an INVALIDATE flood reaching a vertex whose parent lives on a peer
// process exercises the same frames as ordinary updates, but any
// mis-ordered or dropped cascade leaves a stale value the oracle catches.
func TestClusterChurnDifferential(t *testing.T) {
	edges := clusterEdges()
	events := gen.Churn(edges, 0.25, 13)
	for _, procs := range []int{2, 3} {
		for _, tc := range clusterCases {
			t.Run(fmt.Sprintf("%s/procs=%d", tc.name, procs), func(t *testing.T) {
				sources := make([]incregraph.VertexID, tc.sources)
				for i := range sources {
					sources[i] = edges[(i*2654435761)%len(edges)].Src
				}
				globalRanks := procs * 2
				base := incregraph.Config{WeightPolicy: tc.policy}

				// Reference: one process holding every rank.
				refCfg := base
				refCfg.Ranks = globalRanks
				ref := incregraph.New(refCfg, tc.programs(sources))
				for _, s := range sources {
					ref.InitVertex(0, s)
				}
				if _, err := ref.Run(incregraph.SplitEventsByPair(events, globalRanks)...); err != nil {
					t.Fatal(err)
				}
				want := ref.CollectMap(0)

				// Cluster: procs processes × two ranks over loopback TCP.
				gs := make([]*incregraph.Graph, procs)
				for i := range gs {
					clCfg := base
					clCfg.Ranks = 2
					if i == 0 {
						clCfg.Cluster = &incregraph.ClusterConfig{Proc: 0, Procs: procs, Listen: "127.0.0.1:0"}
					} else {
						clCfg.Cluster = &incregraph.ClusterConfig{Proc: i, Procs: procs, Join: gs[0].ClusterAddr()}
						if i < procs-1 {
							clCfg.Cluster.Listen = "127.0.0.1:0"
						}
					}
					g, err := incregraph.NewCluster(clCfg, tc.programs(sources))
					if err != nil {
						t.Fatal(err)
					}
					gs[i] = g
				}
				for _, s := range sources {
					gs[0].InitVertex(0, s)
				}
				streams := incregraph.SplitEventsByPair(events, globalRanks)
				var wg sync.WaitGroup
				for _, g := range gs {
					wg.Add(1)
					go func(g *incregraph.Graph) {
						defer wg.Done()
						if _, err := g.Run(streams...); err != nil {
							t.Errorf("cluster: %v", err)
						}
					}(g)
				}
				done := make(chan struct{})
				go func() { wg.Wait(); close(done) }()
				select {
				case <-done:
				case <-time.After(120 * time.Second):
					t.Fatal("churn cluster run did not terminate")
				}
				for _, g := range gs {
					if err := g.Err(); err != nil {
						t.Fatal(err)
					}
				}

				got := make(map[incregraph.VertexID]uint64)
				for _, g := range gs {
					for v, val := range g.CollectMap(0) {
						if _, dup := got[v]; dup {
							t.Fatalf("vertex %d collected on two processes", v)
						}
						got[v] = val
					}
				}
				// Each side against the static oracle over the SURVIVING
				// topology first — any value still derived from a deleted
				// edge diverges here, and the message names the side that
				// kept it — then the two sides against each other.
				oracle := tc.oracle(ref.Topology(), sources)
				for _, side := range []struct {
					name string
					vals map[incregraph.VertexID]uint64
				}{{"single-process", want}, {"cluster", got}} {
					for v, val := range side.vals {
						if int(v) < len(oracle) && val != oracle[v] {
							t.Fatalf("vertex %d: %s %d, static oracle %d", v, side.name, val, oracle[v])
						}
					}
				}
				if len(got) != len(want) {
					t.Fatalf("cluster reached %d vertices, single-process %d", len(got), len(want))
				}
				for v, w := range want {
					if got[v] != w {
						t.Fatalf("vertex %d: cluster %d, single-process %d", v, got[v], w)
					}
				}

				// The workload actually deleted (the churned stream is not
				// vacuously add-only) and the wire was exercised.
				deletes := 0
				for _, ev := range events {
					if ev.Delete {
						deletes++
					}
				}
				if deletes == 0 {
					t.Fatal("churn stream carried no deletes — differential is vacuous")
				}
				var crossed uint64
				for _, g := range gs {
					for _, p := range g.Stats().Transport.Peers {
						crossed += p.SentEvents
					}
				}
				if crossed == 0 {
					t.Fatal("no events crossed the wire")
				}
			})
		}
	}
}

// TestClusterLiveInitCrossesWire: a live-stream cluster run where
// InitVertex is issued mid-run from process 1 against a vertex that may be
// owned by process 0 — the EXT frame path under load, after the pre-start
// buffer has been flushed.
func TestClusterLiveInitCrossesWire(t *testing.T) {
	edges := clusterEdges()
	cfg := incregraph.Config{Ranks: 2}
	cfg.Cluster = &incregraph.ClusterConfig{Proc: 0, Procs: 2, Listen: "127.0.0.1:0"}
	g0, err := incregraph.NewCluster(cfg, incregraph.BFS())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cluster = &incregraph.ClusterConfig{Proc: 1, Procs: 2, Join: g0.ClusterAddr()}
	g1, err := incregraph.NewCluster(cfg, incregraph.BFS())
	if err != nil {
		t.Fatal(err)
	}

	live := incregraph.NewLiveStream()
	streams := []incregraph.Stream{live, nil, nil, nil}
	var wg sync.WaitGroup
	for _, g := range []*incregraph.Graph{g0, g1} {
		wg.Add(1)
		go func(g *incregraph.Graph) {
			defer wg.Done()
			if _, err := g.Run(streams...); err != nil {
				t.Errorf("cluster: %v", err)
			}
		}(g)
	}
	for _, e := range edges {
		live.PushEdge(e)
	}
	// Mid-run init from process 1 — its owner may be on process 0.
	source := edges[0].Src
	g1.InitVertex(0, source)
	g0.Drain(live)
	live.Close()
	wg.Wait()
	if err := g0.Err(); err != nil {
		t.Fatal(err)
	}
	if err := g1.Err(); err != nil {
		t.Fatal(err)
	}

	got := g0.CollectMap(0)
	for v, val := range g1.CollectMap(0) {
		got[v] = val
	}
	oracle := incregraph.StaticBFS(mergedTopology(t, g0, g1), source)
	for v, val := range got {
		if int(v) < len(oracle) && val != oracle[v] {
			t.Fatalf("vertex %d: cluster %d, static %d", v, val, oracle[v])
		}
	}
}

// TestClusterCleanTermination repeats a 2-process run and requires Err() ==
// nil on both processes every time. The coordinator must queue its
// parting stats and TERMINATE before it publishes the decision: a rank that
// sees the decision first can finish the engine, and teardown then closes
// the peer queues under the pending pushes, so the follower reads a bare
// EOF instead of TERMINATE.
func TestClusterCleanTermination(t *testing.T) {
	runs := 40
	if testing.Short() {
		runs = 10
	}
	// Larger than clusterEdges: the race needs a run long enough for the
	// coordinator's ranks to still be waking when the decision lands.
	edges := gen.Shuffle(rmat.GenerateParallel(rmat.Config{Scale: 11, EdgeFactor: 8, Seed: 1, MaxWeight: 16}, 0), 11)
	failed := 0
	for run := 0; run < runs; run++ {
		cfg := incregraph.Config{Ranks: 1}
		cfg.Cluster = &incregraph.ClusterConfig{Proc: 0, Procs: 2, Listen: "127.0.0.1:0"}
		g0, err := incregraph.NewCluster(cfg, incregraph.SSSP())
		if err != nil {
			t.Fatal(err)
		}
		cfg.Cluster = &incregraph.ClusterConfig{Proc: 1, Procs: 2, Join: g0.ClusterAddr()}
		g1, err := incregraph.NewCluster(cfg, incregraph.SSSP())
		if err != nil {
			t.Fatal(err)
		}
		g0.InitVertex(0, edges[0].Src)
		streams := incregraph.SplitEdges(edges, 2)
		var wg sync.WaitGroup
		for _, g := range []*incregraph.Graph{g0, g1} {
			wg.Add(1)
			go func(g *incregraph.Graph) {
				defer wg.Done()
				if _, err := g.Run(streams...); err != nil {
					t.Errorf("run %d: %v", run, err)
				}
			}(g)
		}
		wg.Wait()
		for i, g := range []*incregraph.Graph{g0, g1} {
			if err := g.Err(); err != nil {
				failed++
				t.Errorf("run %d, process %d: Err() = %v", run, i, err)
			}
		}
	}
	if failed > 0 {
		t.Errorf("%d of %d runs ended with a transport error", failed, runs)
	}
}

// mergedTopology rebuilds a global topology from the two processes' local
// shards — Topology is shard-local in a cluster, so the union is the
// global graph. Reconstruction goes through a fresh single-process graph.
func mergedTopology(t *testing.T, g0, g1 *incregraph.Graph) incregraph.Topology {
	t.Helper()
	var edges []incregraph.Edge
	for _, g := range []*incregraph.Graph{g0, g1} {
		topo := g.Topology()
		topo.ForEachVertex(func(v incregraph.VertexID) bool {
			topo.Neighbors(v, func(dst incregraph.VertexID, w incregraph.Weight) bool {
				edges = append(edges, incregraph.Edge{Src: v, Dst: dst, W: w})
				return true
			})
			return true
		})
	}
	rebuilt := incregraph.New(incregraph.Config{Ranks: 1, Directed: true})
	if _, err := rebuilt.Run(incregraph.StreamEdges(edges)); err != nil {
		t.Fatal(err)
	}
	return rebuilt.Topology()
}

// TestClusterStartErrors: NewCluster surfaces bad configurations as
// errors, New panics on the same input, and a follower that cannot reach
// its coordinator fails Start rather than hanging.
func TestClusterStartErrors(t *testing.T) {
	if _, err := incregraph.NewCluster(incregraph.Config{
		Ranks:   1,
		Cluster: &incregraph.ClusterConfig{Proc: 1, Procs: 2},
	}, incregraph.BFS()); err == nil {
		t.Fatal("NewCluster accepted a follower with no Join address")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("New did not panic on an invalid cluster config")
			}
		}()
		incregraph.New(incregraph.Config{
			Ranks:   1,
			Cluster: &incregraph.ClusterConfig{Proc: 1, Procs: 2},
		}, incregraph.BFS())
	}()
}
