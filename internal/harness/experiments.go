package harness

import (
	"fmt"
	"time"

	"incregraph/internal/algo"
	"incregraph/internal/core"
	"incregraph/internal/csr"
	"incregraph/internal/graph"
	"incregraph/internal/metrics"
	"incregraph/internal/rmat"
	"incregraph/internal/static"
	"incregraph/internal/stream"
)

// runDynamic ingests edges into a fresh engine and returns its stats.
// programs may be empty (construction only).
func runDynamic(edges []graph.Edge, ranks int, programs []core.Program, inits map[int][]graph.VertexID) core.Stats {
	return runDynamicOpts(edges, core.Options{Ranks: ranks, Undirected: true}, programs, inits)
}

// runDynamicOpts is runDynamic with the full engine option surface exposed,
// for experiments that A/B storage or tuning knobs.
func runDynamicOpts(edges []graph.Edge, opts core.Options, programs []core.Program, inits map[int][]graph.VertexID) core.Stats {
	e := core.New(opts, programs...)
	for a, vs := range inits {
		for _, v := range vs {
			e.InitVertex(a, v)
		}
	}
	stats, err := e.Run(stream.Split(edges, opts.Ranks))
	if err != nil {
		panic(err)
	}
	return stats
}

// Table1 regenerates Table I: the graph inventory, with each multi-terabyte
// real-world dataset replaced by its synthetic stand-in (plus the RMAT row).
func Table1(cfg Config) *Table {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:  "Table I: Graphs used in experiments (synthetic stand-ins)",
		Header: []string{"Name", "StandsFor", "#Vertices", "#Edges", "~Bytes", "Structure"},
	}
	for _, d := range Datasets(cfg) {
		edges := d.Edges()
		verts := map[graph.VertexID]bool{}
		for _, e := range edges {
			verts[e.Src] = true
			verts[e.Dst] = true
		}
		// On-disk size in the binary stream format.
		bytes := uint64(len(edges)) * 21
		t.AddRow(d.Name, d.PaperName,
			metrics.HumanCount(uint64(len(verts))),
			metrics.HumanCount(uint64(len(edges))),
			metrics.HumanBytes(bytes),
			d.StructureClass)
	}
	rc := rmat.Config{Scale: cfg.Scale, EdgeFactor: cfg.EdgeFactor}
	t.AddRow(fmt.Sprintf("RMAT(%d)", cfg.Scale), "RMAT(SCALE), Graph500 params",
		metrics.HumanCount(rc.NumVertices()),
		metrics.HumanCount(rc.NumEdges()),
		metrics.HumanBytes(rc.NumEdges()*21),
		"recursive matrix, 16x edge factor")
	t.AddNote("paper scales: 2^25..2^31 vertices; stand-ins use scale %d (see DESIGN.md substitutions)", cfg.Scale)
	return t
}

// Fig3 regenerates Figure 3: static vs dynamic construction, static BFS on
// each structure, and dynamic construction overlapped with a live BFS —
// one node (all local ranks), Twitter-like dataset.
func Fig3(cfg Config) *Table {
	cfg = cfg.withDefaults()
	ranks := cfg.Ranks[len(cfg.Ranks)-1]
	edges := TwitterSim(cfg).Edges()
	src := static.LargestComponentVertex(edges)

	// Bar 1: static construction (CSR compression) + static BFS on CSR.
	t1 := metrics.StartTimer()
	g := csr.Build(edges, true)
	staticBuild := t1.Elapsed()
	t2 := metrics.StartTimer()
	staticLevels := static.BFS(g, src)
	staticAlgo := t2.Elapsed()

	// Bar 2: dynamic construction, then static BFS over the dynamic
	// structure.
	e2 := core.New(core.Options{Ranks: ranks, Undirected: true})
	t3 := metrics.StartTimer()
	if _, err := e2.Run(stream.Split(edges, ranks)); err != nil {
		panic(err)
	}
	dynBuild := t3.Elapsed()
	t4 := metrics.StartTimer()
	dynLevels := static.BFS(e2.Topology(), src)
	staticOnDyn := t4.Elapsed()

	// Bar 3: dynamic construction overlapped with the live BFS.
	e3 := core.New(core.Options{Ranks: ranks, Undirected: true}, algo.BFS{})
	e3.InitVertex(0, src)
	t5 := metrics.StartTimer()
	if _, err := e3.Run(stream.Split(edges, ranks)); err != nil {
		panic(err)
	}
	overlap := t5.Elapsed()

	// Sanity: all three strategies agree (checked here so the harness
	// doubles as an integration test).
	liveBFS := e3.CollectMap(0)
	for id, val := range liveBFS {
		if staticLevels[id] != val || dynLevels[id] != val {
			panic(fmt.Sprintf("fig3: BFS mismatch at %d: static=%d static-on-dyn=%d live=%d",
				id, staticLevels[id], dynLevels[id], val))
		}
	}

	t := &Table{
		Title:  fmt.Sprintf("Figure 3: static vs dynamic strategies (twitter-sim, %d ranks)", ranks),
		Header: []string{"Strategy", "Construct", "Algorithm", "Total"},
	}
	t.AddRow("static build + static BFS", fmtDur(staticBuild), fmtDur(staticAlgo), fmtDur(staticBuild+staticAlgo))
	t.AddRow("dynamic build + static BFS", fmtDur(dynBuild), fmtDur(staticOnDyn), fmtDur(dynBuild+staticOnDyn))
	t.AddRow("dynamic build + live BFS (overlapped)", fmtDur(overlap), "(overlapped)", fmtDur(overlap))
	t.AddNote("paper shape: static construction ~2x faster than dynamic; static algo slower on dynamic structure; overlapped live BFS ~= dynamic construction alone")
	t.AddNote("dynamic/static construction ratio: %.2fx; overlap overhead vs CON: %.2fx",
		dynBuild.Seconds()/staticBuild.Seconds(), overlap.Seconds()/dynBuild.Seconds())
	return t
}

// Fig4 regenerates Figure 4: the latency of collecting global BFS state
// on-the-fly at intervals during RMAT ingestion, against the cost of
// computing the same state from scratch with a static BFS.
func Fig4(cfg Config) *Table {
	cfg = cfg.withDefaults()
	ranks := cfg.Ranks[len(cfg.Ranks)-1]
	rc := rmat.Config{Scale: cfg.Scale, EdgeFactor: cfg.EdgeFactor, Seed: 7}
	edges := rmat.GenerateParallel(rc, 0)
	const intervals = 4
	chunk := len(edges) / intervals

	e := core.New(core.Options{Ranks: ranks, Undirected: true}, algo.BFS{})
	e.InitVertex(0, 0) // vertex 0 is in the dense R-MAT core
	live := stream.NewChan()
	if err := e.Start([]stream.Stream{live}); err != nil {
		panic(err)
	}

	t := &Table{
		Title:  fmt.Sprintf("Figure 4: global state collection vs static recompute (RMAT(%d), %d ranks)", cfg.Scale, ranks),
		Header: []string{"Interval", "EdgesIngested", "SnapshotLatency", "StaticBFS", "Speedup"},
	}
	for i := 0; i < intervals; i++ {
		lo, hi := i*chunk, (i+1)*chunk
		if i == intervals-1 {
			hi = len(edges)
		}
		for _, ed := range edges[lo:hi] {
			live.Push(graph.EdgeEvent{Edge: ed})
		}
		// The paper requests collection at wall-clock intervals during
		// saturation; we discretize by edge count so the cut is a known
		// prefix and the static reference can run on the same topology.
		e.WaitDrained(func() uint64 { return uint64(hi) })
		snap := e.SnapshotAsync(0)
		got := snap.Wait()
		latency := snap.Latency()

		// Static reference: full BFS from scratch on the same topology
		// (pre-loaded in memory, as in the paper).
		g := csr.Build(edges[:hi], true)
		ts := metrics.StartTimer()
		want := static.BFS(g, 0)
		staticTime := ts.Elapsed()

		for _, p := range got {
			if want[p.ID] != p.Val {
				panic(fmt.Sprintf("fig4: snapshot mismatch at %d: %d vs %d", p.ID, p.Val, want[p.ID]))
			}
		}
		speedup := staticTime.Seconds() / latency.Seconds()
		t.AddRow(fmt.Sprintf("%d", i+1), metrics.HumanCount(uint64(hi)),
			fmtDur(latency), fmtDur(staticTime), fmt.Sprintf("%.1fx", speedup))
	}
	live.Close()
	e.Wait()
	t.AddNote("paper shape: collection latency is 'hundreds of milliseconds, in stark contrast to the high overhead of computing a static algorithm from scratch'")
	return t
}

// Algorithms returns the Fig. 5 algorithm sweep: CON (construction only)
// plus the four REMO algorithms.
func Algorithms() []AlgoSpec {
	return []AlgoSpec{
		{Name: "CON", Build: func([]graph.Edge) (core.Program, []graph.VertexID) { return nil, nil }},
		{Name: "BFS", Build: func(edges []graph.Edge) (core.Program, []graph.VertexID) {
			return algo.BFS{}, []graph.VertexID{static.LargestComponentVertex(edges)}
		}},
		{Name: "SSSP", Build: func(edges []graph.Edge) (core.Program, []graph.VertexID) {
			return algo.SSSP{}, []graph.VertexID{static.LargestComponentVertex(edges)}
		}},
		{Name: "CC", Build: func([]graph.Edge) (core.Program, []graph.VertexID) {
			return algo.CC{}, nil
		}},
		{Name: "ST", Build: func(edges []graph.Edge) (core.Program, []graph.VertexID) {
			src := static.LargestComponentVertex(edges)
			return algo.NewMultiST([]graph.VertexID{src}), []graph.VertexID{src}
		}},
	}
}

// Fig5 regenerates Figure 5: events/sec for each algorithm on each
// real-world stand-in, across the rank sweep.
func Fig5(cfg Config) *Table {
	cfg = cfg.withDefaults()
	header := []string{"Graph/Algo"}
	for _, r := range cfg.Ranks {
		header = append(header, fmt.Sprintf("%d ranks", r))
	}
	t := &Table{Title: "Figure 5: dynamic algorithm query rates on real-graph stand-ins", Header: header}
	for _, d := range Datasets(cfg) {
		edges := d.Edges()
		for _, spec := range Algorithms() {
			// One build per (dataset, algorithm): programs are stateless
			// configuration (state lives in the engine), and the source
			// selection (a full CC computation) is the expensive part.
			prog, inits := spec.Build(edges)
			row := []string{d.Name + "/" + spec.Name}
			for _, ranks := range cfg.Ranks {
				var programs []core.Program
				initMap := map[int][]graph.VertexID{}
				if prog != nil {
					programs = append(programs, prog)
					initMap[0] = inits
				}
				stats := runDynamic(edges, ranks, programs, initMap)
				row = append(row, metrics.HumanRate(stats.EventsPerSec))
			}
			t.AddRow(row...)
		}
	}
	t.AddNote("paper shape: CON fastest; each algorithm costs modestly over CON; per-dataset structure shifts the pattern; rates scale with rank count")
	return t
}

// Fig6 regenerates Figure 6: weak and strong scaling of live-BFS ingestion
// over RMAT, sweeping graph scale and rank count.
func Fig6(cfg Config) *Table {
	cfg = cfg.withDefaults()
	scales := []int{cfg.Scale - 2, cfg.Scale - 1, cfg.Scale}
	header := []string{"RMAT scale", "#Edges"}
	for _, r := range cfg.Ranks {
		header = append(header, fmt.Sprintf("%d ranks", r))
	}
	t := &Table{Title: "Figure 6: strong/weak scaling, RMAT with live BFS", Header: header}
	for _, sc := range scales {
		rc := rmat.Config{Scale: sc, EdgeFactor: cfg.EdgeFactor, Seed: 7}
		edges := rmat.GenerateParallel(rc, 0)
		row := []string{fmt.Sprintf("%d", sc), metrics.HumanCount(uint64(len(edges)))}
		for _, ranks := range cfg.Ranks {
			stats := runDynamic(edges, ranks, []core.Program{algo.BFS{}},
				map[int][]graph.VertexID{0: {0}})
			row = append(row, metrics.HumanRate(stats.EventsPerSec))
		}
		t.AddRow(row...)
	}
	t.AddNote("paper shape: near-linear speedup in rank count; graph size does not materially change the event rate (good weak scaling)")
	return t
}

// Scaling runs the PR 8 rank-count scaling study: CON and live BFS over a
// scale >= 20 RMAT stream, sweeping rank count against the storage
// variants (hybrid on/off × auto-tune on/off). It is deliberately not part
// of `paperbench all` — at 2^20 vertices × 16 edge factor each cell
// ingests ~16.8M topology events, so the full matrix takes minutes.
// cfg.Quick drops to scale 12 for a shape-only smoke run.
func Scaling(cfg Config) *Table {
	cfg = cfg.withDefaults()
	scale := cfg.Scale
	if scale < 20 {
		scale = 20
	}
	if cfg.Quick {
		scale = 12
	}
	rc := rmat.Config{Scale: scale, EdgeFactor: cfg.EdgeFactor, Seed: 7}
	edges := rmat.GenerateParallel(rc, 0)
	variants := []struct {
		name       string
		noHybrid   bool
		autoTune   bool
		compactCap int
	}{
		{"pure-dynamic", true, false, 0},
		{"pure-dynamic+tune", true, true, 0},
		{"hybrid cap16", false, false, 16},
		{"hybrid cap128", false, false, 128},
		{"hybrid+tune", false, true, 0},
	}
	header := []string{"Algo/Storage"}
	for _, r := range cfg.Ranks {
		header = append(header, fmt.Sprintf("%d ranks", r))
	}
	header = append(header, "compact@max", "scan@max")
	t := &Table{
		Title:  fmt.Sprintf("Rank scaling, RMAT(%d) ef %d: hybrid and auto-tune A/B", scale, cfg.EdgeFactor),
		Header: header,
	}
	for _, algoName := range []string{"CON", "BFS"} {
		var programs []core.Program
		initMap := map[int][]graph.VertexID{}
		if algoName == "BFS" {
			programs = []core.Program{algo.BFS{}}
			initMap[0] = []graph.VertexID{0}
		}
		for _, v := range variants {
			row := []string{algoName + "/" + v.name}
			var lastCompactions uint64
			var lastEngine *core.Engine
			for _, ranks := range cfg.Ranks {
				e := core.New(core.Options{
					Ranks: ranks, Undirected: true,
					NoHybrid: v.noHybrid, AutoTune: v.autoTune,
					CompactCap: v.compactCap,
				}, programs...)
				for a, vs := range initMap {
					for _, src := range vs {
						e.InitVertex(a, src)
					}
				}
				stats, err := e.Run(stream.Split(edges, ranks))
				if err != nil {
					panic(err)
				}
				lastCompactions = e.EngineStats().Storage.Compactions
				lastEngine = e
				row = append(row, metrics.HumanRate(stats.EventsPerSec))
			}
			row = append(row, metrics.HumanCount(lastCompactions))
			// Scan side of the locality trade: full-graph adjacency sweeps
			// over the terminated engine (CON variants only — the topology
			// is identical across algorithms). This is what the segments
			// buy; ingest rate alone only shows what they cost.
			if algoName == "CON" {
				row = append(row, metrics.HumanRate(scanRate(lastEngine)))
			} else {
				row = append(row, "-")
			}
			t.AddRow(row...)
		}
	}
	t.AddNote("tracked target: >=10M ev/s aggregate ingest at the widest rank count (paper runs on a 3,072-core cluster; on hosts with fewer cores than ranks, extra ranks are concurrency, not parallelism)")
	t.AddNote("scan@max: best-of-3 full adjacency sweep (edges/s) over the widest-rank run's final graph")
	return t
}

// scanRate measures full-graph adjacency scan throughput (directed entries
// per second, best of 3 sweeps) over a terminated engine.
func scanRate(e *core.Engine) float64 {
	topo := e.Topology()
	best := 0.0
	for trial := 0; trial < 3; trial++ {
		var n uint64
		start := time.Now()
		topo.ForEachVertex(func(v graph.VertexID) bool {
			topo.Neighbors(v, func(graph.VertexID, graph.Weight) bool {
				n++
				return true
			})
			return true
		})
		if r := float64(n) / time.Since(start).Seconds(); r > best {
			best = r
		}
	}
	return best
}

// Fig7 regenerates Figure 7: multi-source S-T connectivity on the
// Twitter-like dataset, sweeping the source count from 0 (CON) to 64.
func Fig7(cfg Config) *Table {
	cfg = cfg.withDefaults()
	sourceCounts := []int{0, 1, 2, 4, 8, 16, 32, 64}
	if cfg.Quick {
		sourceCounts = []int{0, 1, 4, 16, 64}
	}
	edges := TwitterSim(cfg).Edges()
	// Deterministic spread of sources over the vertex space.
	pick := func(k int) []graph.VertexID {
		out := make([]graph.VertexID, k)
		n := uint64(1) << uint(cfg.Scale)
		for i := range out {
			out[i] = graph.VertexID((uint64(i)*2654435761 + 12345) % n)
		}
		return out
	}
	header := []string{"Sources"}
	for _, r := range cfg.Ranks {
		header = append(header, fmt.Sprintf("%d ranks", r))
	}
	t := &Table{Title: "Figure 7: multi-source S-T connectivity scaling (twitter-sim)", Header: header}
	for _, k := range sourceCounts {
		row := []string{fmt.Sprintf("%d", k)}
		for _, ranks := range cfg.Ranks {
			var programs []core.Program
			initMap := map[int][]graph.VertexID{}
			if k > 0 {
				srcs := pick(k)
				programs = append(programs, algo.NewMultiST(srcs))
				initMap[0] = srcs
			}
			stats := runDynamic(edges, ranks, programs, initMap)
			row = append(row, metrics.HumanRate(stats.EventsPerSec))
		}
		t.AddRow(row...)
	}
	t.AddNote("paper shape: first sources cost little (1->2 under 10%%); large source sets roughly halve throughput per doubling; rank scaling stays near-linear")
	return t
}

func fmtDur(d time.Duration) string {
	return d.Round(time.Millisecond / 10).String()
}
