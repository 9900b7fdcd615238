package main

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"incregraph"
	"incregraph/bench/input"
	"incregraph/bench/stat"
)

// workload is one sized input and the configuration it is run under. The
// names are cited by later issues; BENCHMARK.json repeats name and why.
type workload struct {
	name        string
	why         string
	scale       int // R-MAT scale of a full run
	smokeScale  int // scale under -smoke
	communities int // disjoint R-MAT graphs the input is made of
	ranks       int // ranks per node
	nodes       int // in-process TCP nodes; 1 is a plain graph
	algo        string
	churn       float64 // deletes per base add; 0 is add-only
	live        bool    // open-loop ticks over a LiveStream
}

var workloads = []workload{
	{name: "con-r1", scale: 17, smokeScale: 10, communities: 1, ranks: 1, nodes: 1,
		why: "construction only on 1 rank: adjacency insert, duplicate probe and slice pull are all the work; the single-threaded baseline"},
	{name: "sssp-r2", scale: 17, smokeScale: 10, communities: 1, ranks: 2, nodes: 1, algo: "sssp",
		why: "SSSP on 2 ranks: ~4.5 processed events per edge, so rank apply, scans, mailbox lanes and coalescer dominate and store insert is a small share"},
	{name: "sssp-tcp2", scale: 17, smokeScale: 10, communities: 1, ranks: 1, nodes: 2, algo: "sssp",
		why: "same input and program as sssp-r2 over two 1-rank TCP nodes on 127.0.0.1: only the transport differs, so the gap is wire, framing and quiescence"},
	{name: "churn-cc-r1", scale: 6, smokeScale: 6, communities: 512, ranks: 1, nodes: 1, algo: "cc", churn: 0.05,
		why: "CC with 5% deletes and re-adds over 512 disjoint communities on 1 rank: DeleteEdge, witness invalidation and community-sized floods, exact repeating counts"},
	{name: "live-bfs-r1", scale: 17, smokeScale: 10, communities: 1, ranks: 1, nodes: 1, algo: "bfs", live: true,
		why: "open loop, 500 events every 5 ms into a served BFS graph with a 512-id read per tick: update latency at a sustained rate, the on-line use"},
}

// exact reports whether every count the engine keeps repeats exactly from
// run to run: one rank pulling pre-materialised streams does its work in a
// fixed order. Two ranks interleave differently each time, and a live rank
// drains batches whose edges fall where timing puts them (one live window
// in twelve processed 3 events of 1.48M fewer).
func (w workload) exact() bool { return w.ranks*w.nodes == 1 && !w.live }

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// e2eMetric is one end-to-end metric with the share of the parent's median
// by which it may worsen. BENCHMARK.json repeats the table; a test keeps
// the two in step.
type e2eMetric struct {
	name, unit string
	higher     bool
	bound      float64
}

// BENCHMARK.json takes one bound per metric, so each is set by the workload
// on which the metric is noisiest: two to three times the widest quartile
// spread ten differently seeded runs showed on this box (bench/README.md has
// the table), and never above the 0.25 the driver allows.
var endToEnd = []e2eMetric{
	{"setup_s", "s", false, 0.25},
	{"ingest_ev_s", "ev/s", true, 0.20},
	{"update_p50_ms", "ms", false, 0.25},
	{"update_p90_ms", "ms", false, 0.25},
	{"read_p50_us", "us", false, 0.25},
	{"heap_b_per_edge", "B/edge", false, 0.15},
	{"peak_rss_mb", "MB", false, 0.15},
}

// Open-loop shape of live-bfs-r1 and the read issued beside every tick.
const (
	tickEvery  = 5 * time.Millisecond
	tickEvents = 500
	readIDs    = 512
	sloMS      = 20.0
)

// chunksPerRun is how many equal chunks a saturated run's events are cut
// into; the time the engine takes to pull one chunk off its streams is one
// update sample, so a stall shows as a long chunk.
const chunksPerRun = 128

// minChunk keeps a chunk several times the engine's 256-event pull burst;
// below that a chunk boundary measures where the burst fell, not the work.
const minChunk = 1024

// params are the knobs a run is given; everything else is fixed by the
// workload.
type params struct {
	seed    uint64
	seconds int
	smoke   bool
}

// minReps is the least number of repetitions a pass makes of a workload,
// each in a process of its own, however short --seconds is; a smoke run
// makes one. liveWindows is how many live windows share --seconds: the
// repetitions of the untraced pass, and the warm-up, reference and traced
// windows of the traced one.
const (
	minReps     = 3
	liveWindows = minReps
)

func (w workload) communitiesFor(p params) int {
	if p.smoke && w.communities > 8 {
		return 8
	}
	return w.communities
}

// idSpace is the range reads draw vertex IDs from.
func (w workload) idSpace(p params) uint64 {
	return uint64(w.communitiesFor(p)) << uint(w.scaleFor(p))
}

func (w workload) scaleFor(p params) int {
	if p.smoke {
		return w.smokeScale
	}
	return w.scale
}

// ticks is the number of open-loop ticks of one live window. A pass makes
// liveWindows windows over the same events, so each takes its share of
// --seconds at one tick per tickEvery, capped by the events the graph has.
func (w workload) ticks(p params) int {
	n := p.seconds * int(time.Second/tickEvery) / liveWindows
	if most := (input.EdgeFactor << uint(w.scaleFor(p))) / tickEvents; n > most {
		n = most
	}
	return n
}

func (w workload) programs() []incregraph.Program {
	switch w.algo {
	case "sssp":
		return []incregraph.Program{incregraph.SSSP()}
	case "cc":
		return []incregraph.Program{incregraph.CC()}
	case "bfs":
		return []incregraph.Program{incregraph.BFS()}
	}
	return nil
}

// tally counts attempted and failed operations. Every offered event and
// every checked output is an operation.
type tally struct {
	ops, failed uint64
	msgs        []string
}

func (t *tally) expect(ops, bad uint64, format string, args ...any) {
	t.ops += ops
	if bad == 0 {
		return
	}
	t.failed += bad
	if len(t.msgs) < 8 {
		t.msgs = append(t.msgs, fmt.Sprintf(format, args...))
	}
}

// progress notes the time whenever the streams of one run, taken together,
// have had another chunk of events pulled from them, and when the last of
// them runs dry. It is how a saturated run, which has no ticks, still yields
// update samples from outside the program. Streams report in strides so that
// two ranks do not fight over the counter on every event.
type progress struct {
	chunk  int64
	pulled atomic.Int64
	left   atomic.Int32 // streams not yet exhausted
	mu     sync.Mutex
	stamps []time.Time
}

const progressStride = 64

func (p *progress) stamp() {
	now := time.Now()
	p.mu.Lock()
	p.stamps = append(p.stamps, now)
	p.mu.Unlock()
}

// stamped is one stream of a run reporting to the run's progress.
type stamped struct {
	inner incregraph.Stream
	p     *progress
	n     int
	done  bool
}

func (s *stamped) Next() (incregraph.EdgeEvent, bool) {
	ev, ok := s.inner.Next()
	switch {
	case ok:
		if s.n%progressStride == 0 {
			after := s.p.pulled.Add(progressStride)
			before := after - progressStride
			if before == 0 || (before/s.p.chunk != after/s.p.chunk && after/s.p.chunk < chunksPerRun) {
				s.p.stamp()
			}
		}
		s.n++
	case !s.done:
		s.done = true
		if s.p.left.Add(-1) == 0 {
			s.p.stamp()
		}
	}
	return ev, ok
}

// segments cuts the run from began to ended at the stamps: the time to the
// first pull, each chunk, and the tail from the last pull to convergence,
// in milliseconds. They add up to the run.
func (p *progress) segments(began, ended time.Time) []float64 {
	sort.Slice(p.stamps, func(i, j int) bool { return p.stamps[i].Before(p.stamps[j]) })
	out := make([]float64, 0, len(p.stamps)+1)
	last := began
	for _, t := range p.stamps {
		out = append(out, ms(t.Sub(last)))
		last = t
	}
	return append(out, ms(ended.Sub(last)))
}

// expected is what a workload's event stream must leave behind, computed
// once per pass by the benchmark's own process (not the workload's, so that
// neither its time nor its memory is in any metric) over the benchmark's own
// topology with the static algorithms, and handed to each workload process
// as a file.
type expected struct {
	InputEvents int
	InputFNV64  uint64
	Source      incregraph.VertexID // where SSSP and BFS start
	Present     []bool              // by vertex ID: an event named it
	Degree      []uint32            // by vertex ID: distinct surviving neighbours
	Want        []uint64            // by vertex ID; nil when no program runs
	Vertices    int
	HalfEdges   int
	OracleMS    float64
}

// expect generates the workload's input as a workload process will and
// solves it statically.
func (w workload) expect(p params) *expected {
	edges, events := w.generate(p, nil, -1)
	if events == nil {
		events = input.Adds(edges)
	}
	t0 := time.Now()
	topo := input.Survivors(events)
	exp := &expected{
		InputEvents: len(events),
		InputFNV64:  input.FNV64(events),
		Present:     make([]bool, topo.MaxVertexID()+1),
		Degree:      make([]uint32, topo.MaxVertexID()+1),
		Vertices:    topo.NumVertices(),
		HalfEdges:   topo.HalfEdges(),
	}
	topo.ForEachVertex(func(v incregraph.VertexID) bool {
		exp.Present[v] = true
		exp.Degree[v] = uint32(topo.Degree(v))
		return true
	})
	switch w.algo {
	case "sssp":
		exp.Source = topo.Hub()
		exp.Want = incregraph.StaticSSSP(topo, exp.Source)
	case "bfs":
		exp.Source = topo.Hub()
		exp.Want = incregraph.StaticBFS(topo, exp.Source)
	case "cc":
		exp.Want = incregraph.StaticCC(topo)
	}
	exp.OracleMS = ms(time.Since(t0))
	return exp
}

func (e *expected) degree(v incregraph.VertexID) int {
	if int(v) >= len(e.Degree) {
		return 0
	}
	return int(e.Degree[v])
}

func (e *expected) write(path string) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(e); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

func readExpected(path string) (*expected, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	e := new(expected)
	if err := gob.NewDecoder(f).Decode(e); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return e, nil
}

// generate makes the workload's input from the seed. An add-only saturated
// workload is returned as its edge list alone (the repo's split copies it
// into the streams; the events are made from it when they are needed); a
// churn or live workload as its events.
func (w workload) generate(p params, rec *stat.Recorder, parent int) ([]incregraph.Edge, []incregraph.EdgeEvent) {
	sp := rec.Begin("input.rmat", parent, 0)
	edges := input.Communities(w.communitiesFor(p), w.scaleFor(p), p.seed)
	rec.End(sp)
	switch {
	case w.churn > 0:
		sp = rec.Begin("input.churn", parent, 0)
		events := input.Churn(edges, w.churn, p.seed)
		rec.End(sp)
		return nil, events
	case w.live:
		return nil, input.Adds(edges[:w.ticks(p)*tickEvents])
	}
	return edges, nil
}

// prepared is a workload set up and ready to start: generated inputs,
// split streams and constructed graphs. Making one is what setup_s times.
// It holds one copy of the input beside the one in the streams, so that the
// process's peak memory is mostly the program's.
type prepared struct {
	w        workload
	edges    []incregraph.Edge      // add-only saturated workloads
	events   []incregraph.EdgeEvent // churn and live; otherwise made by offeredEvents
	offered  int                    // events the run offers
	streams  []incregraph.Stream
	progress *progress
	live     *incregraph.LiveStream
	graphs   []*incregraph.Graph
	setupS   float64
}

// offeredEvents returns every event the run offers, in order.
func (pr *prepared) offeredEvents() []incregraph.EdgeEvent {
	if pr.events == nil {
		pr.events = input.Adds(pr.edges)
	}
	return pr.events
}

// addedEdges returns the edge of every add the run offers.
func (pr *prepared) addedEdges() []incregraph.Edge {
	if pr.edges == nil {
		for _, ev := range pr.events {
			if !ev.Delete {
				pr.edges = append(pr.edges, ev.Edge)
			}
		}
	}
	return pr.edges
}

// prepare generates the inputs from the seed, splits them and constructs
// the graphs. tune, when set, alters the configuration (the tax ledger).
func (w workload) prepare(p params, tune func(*incregraph.Config), rec *stat.Recorder, parent int) (*prepared, error) {
	t0 := time.Now()
	pr := &prepared{w: w}
	pr.edges, pr.events = w.generate(p, rec, parent)
	pr.offered = len(pr.edges) + len(pr.events)
	total := w.ranks * w.nodes
	switch {
	case w.live:
		pr.live = incregraph.NewLiveStream()
	default:
		sp := rec.Begin("stream.split", parent, 0)
		if w.churn > 0 {
			pr.streams = incregraph.SplitEventsByPair(pr.events, total)
		} else {
			pr.streams = incregraph.SplitEdges(pr.edges, total)
		}
		rec.End(sp)
		chunk := (pr.offered/chunksPerRun/progressStride + 1) * progressStride
		if chunk < minChunk {
			chunk = minChunk
		}
		pr.progress = &progress{chunk: int64(chunk)}
		pr.progress.left.Store(int32(len(pr.streams)))
		for i, s := range pr.streams {
			pr.streams[i] = &stamped{inner: s, p: pr.progress}
		}
	}

	sp := rec.Begin("core.new", parent, 0)
	defer rec.End(sp)
	cfg := incregraph.Config{Ranks: w.ranks}
	if w.live {
		cfg.Serve = true
		cfg.ServeEvery = tickEvery
	}
	if tune != nil {
		tune(&cfg)
	}
	if w.nodes == 1 {
		pr.graphs = []*incregraph.Graph{incregraph.New(cfg, w.programs()...)}
	} else {
		join := ""
		for n := 0; n < w.nodes; n++ {
			cfg.Cluster = &incregraph.ClusterConfig{Proc: n, Procs: w.nodes, Join: join}
			if n < w.nodes-1 {
				cfg.Cluster.Listen = "127.0.0.1:0"
			}
			g, err := incregraph.NewCluster(cfg, w.programs()...)
			if err != nil {
				return nil, fmt.Errorf("node %d: %w", n, err)
			}
			if n == 0 {
				join = g.ClusterAddr()
			}
			pr.graphs = append(pr.graphs, g)
		}
	}
	pr.setupS = time.Since(t0).Seconds()
	return pr, nil
}

// rep is what one run of a prepared workload measured. A saturated run
// fills updateMS from chunk times and readUS from adjacency reads of the
// converged graph; a live run fills them per tick, and the fields below
// them as well.
type rep struct {
	wallS     float64   // Start on the first node to Wait returned on the last; the window, live
	startMS   float64   // longest Start call: mesh bootstrap on a cluster
	updateMS  []float64 // live: per tick; saturated: per chunk
	readUS    []float64 // per tick, or per read batch of the converged graph
	rssMB     float64   // the process's peak resident set when the run converged
	heapB     float64   // live heap the graphs added, after a forced GC
	halfEdges uint64
	stats     []incregraph.EngineStats // one per node

	pushUS     []float64 // the tick's Push calls
	drainUS    []float64 // the Drain call alone
	lateUS     []float64 // how long after its due time the tick began
	lagMS      []float64 // Drain returned → last pushed vertex readable (probed ticks)
	backlogMax int       // most ticks the generator was behind
}

// run runs the prepared workload once, its own way.
func (pr *prepared) run(exp *expected, p params, rec *stat.Recorder, parent int, t *tally) rep {
	if pr.w.live {
		return pr.runLive(exp, p, rec, parent, t)
	}
	return pr.ingest(exp, p, rec, parent, t)
}

// evPerS is the run's ingest rate. A saturated run offers everything at
// once, so it is events over the time to convergence. A live run is offered
// events on a schedule, which fixes events over the window whatever the
// program does; its rate is events over the time the generator spent inside
// Push and Drain, the rate the engine applied batches at while it had any.
func (pr *prepared) evPerS(r rep) float64 {
	if !pr.w.live {
		return float64(pr.offered) / r.wallS
	}
	busyUS := 0.0
	for i := range r.pushUS {
		busyUS += r.pushUS[i] + r.drainUS[i]
	}
	return float64(pr.offered) / (busyUS / 1e6)
}

// idGen draws the seeded vertex IDs that reads ask for.
type idGen struct{ st, space uint64 }

func (w workload) idGen(p params) *idGen {
	return &idGen{st: p.seed ^ 0x2545f4914f6cdd1d, space: w.idSpace(p)}
}

func (g *idGen) next() incregraph.VertexID {
	g.st = g.st*6364136223846793005 + 1442695040888963407
	return incregraph.VertexID((g.st >> 33) % g.space)
}

func (g *idGen) fill(ids []incregraph.VertexID) {
	for i := range ids {
		ids[i] = g.next()
	}
}

// liveHeap forces a collection and returns the bytes still allocated.
func liveHeap() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

// peakRSSMB reads this process's peak resident set (VmHWM) so far; 0 where
// /proc does not give it, and the parent falls back on the process's
// lifetime peak.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	_, rest, ok := bytes.Cut(b, []byte("VmHWM:"))
	if !ok {
		return 0
	}
	fields := bytes.Fields(rest)
	if len(fields) < 2 || string(fields[1]) != "kB" {
		return 0
	}
	kb, _ := strconv.ParseFloat(string(fields[0]), 64)
	return kb / 1024
}

// ingest runs the prepared saturated workload to convergence, then reads
// adjacency back from the converged graph. Spans, when recorded, wrap each
// call into the program; with several nodes each node runs on its own
// track beside the main one.
func (pr *prepared) ingest(exp *expected, p params, rec *stat.Recorder, parent int, t *tally) rep {
	var rep rep
	heap0 := liveHeap()
	if exp.Want != nil && pr.w.algo != "cc" {
		sp := rec.Begin("core.init", parent, 0)
		pr.graphs[0].InitVertex(0, exp.Source)
		rec.End(sp)
	}

	starts := make([]float64, len(pr.graphs))
	startErrs := make([]error, len(pr.graphs))
	runErrs := make([]error, len(pr.graphs))
	node := func(i, span, track int) {
		g := pr.graphs[i]
		sp := rec.Begin("core.start", span, track)
		ts := time.Now()
		startErrs[i] = g.Start(pr.streams...)
		starts[i] = ms(time.Since(ts))
		rec.End(sp)
		if startErrs[i] != nil {
			return
		}
		sp = rec.Begin("core.wait", span, track)
		g.Wait()
		rec.End(sp)
		runErrs[i] = g.Err()
	}
	run := rec.Begin("ingest", parent, 0)
	t0 := time.Now()
	if len(pr.graphs) == 1 {
		node(0, run, 0)
	} else {
		var wg sync.WaitGroup
		for i := range pr.graphs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				node(i, run, 1+i)
			}()
		}
		wg.Wait()
	}
	ended := time.Now()
	rep.rssMB = peakRSSMB()
	rep.wallS = ended.Sub(t0).Seconds()
	rec.End(run)
	for i := range pr.graphs {
		t.expect(1, b2u(startErrs[i] != nil), "node %d: start: %v", i, startErrs[i])
		// An error the engine or its transport met during the run is a failed
		// operation, with one exception. TCPTransport.detect stores `decided`
		// before it has queued TERMINATE, so about once in fifteen sssp-tcp2
		// runs the coordinator tears down first and a follower reads a bare
		// EOF from it. Termination had been decided, so the state is
		// converged (verify still checks every vertex); that one report is
		// passed on, not counted.
		err := runErrs[i]
		racedEOF := len(pr.graphs) > 1 && i > 0 && errors.Is(err, io.EOF)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: node %d after Wait: %v\n", pr.w.name, i, err)
		}
		t.expect(1, b2u(err != nil && !racedEOF), "node %d after Wait: %v", i, err)
		if starts[i] > rep.startMS {
			rep.startMS = starts[i]
		}
	}
	segs := pr.progress.segments(t0, ended)
	rep.updateMS = segs[1 : len(segs)-1]

	sp := rec.Begin("core.stats", parent, 0)
	for _, g := range pr.graphs {
		rep.stats = append(rep.stats, g.Stats())
	}
	rec.End(sp)

	// Reads: the adjacency of readIDs seeded vertices per batch, from every
	// node (a caller does not know the owner), checked against the oracle.
	sp = rec.Begin("core.topology.read", parent, 0)
	topos := make([]incregraph.Topology, len(pr.graphs))
	for i, g := range pr.graphs {
		topos[i] = g.Topology()
	}
	batches := 200
	if p.smoke {
		batches = 20
	}
	gen := pr.w.idGen(p)
	ids := make([]incregraph.VertexID, readIDs)
	for b := 0; b < batches; b++ {
		gen.fill(ids)
		want, got := 0, 0
		for _, id := range ids {
			want += exp.degree(id)
		}
		tr := time.Now()
		for _, id := range ids {
			for _, tp := range topos {
				tp.Neighbors(id, func(incregraph.VertexID, incregraph.Weight) bool {
					got++
					return true
				})
			}
		}
		rep.readUS = append(rep.readUS, us(time.Since(tr)))
		t.expect(1, b2u(got != want), "read batch %d: %d half-edges, want %d", b, got, want)
	}
	rec.End(sp)

	for _, tp := range topos {
		rep.halfEdges += countHalfEdges(tp)
	}
	rep.heapB = liveHeap() - heap0
	runtime.KeepAlive(pr.streams)
	return rep
}

// verify checks the converged graphs against the oracle: the events offered
// are the ones the oracle was solved for, every one of them was ingested,
// the stored half-edges are the benchmark's own count, and every vertex's
// value is the static algorithm's, each vertex on exactly one node.
func (pr *prepared) verify(exp *expected, halfEdges uint64, t *tally) {
	fnv := input.FNV64(pr.offeredEvents())
	t.expect(1, b2u(pr.offered != exp.InputEvents || fnv != exp.InputFNV64),
		"offered %d events with fnv64 %016x, the oracle solved %d with %016x", pr.offered, fnv, exp.InputEvents, exp.InputFNV64)
	var ingested uint64
	for _, g := range pr.graphs {
		ingested += g.Ingested()
	}
	offered := uint64(pr.offered)
	t.expect(offered, absDiff(ingested, offered), "ingested %d of %d offered events", ingested, offered)
	t.expect(1, b2u(halfEdges != uint64(exp.HalfEdges)), "topology holds %d half-edges, want %d", halfEdges, exp.HalfEdges)

	verts := uint64(exp.Vertices)
	if exp.Want == nil {
		var got uint64
		for _, g := range pr.graphs {
			got += uint64(g.Topology().NumVertices())
		}
		t.expect(1, b2u(got != verts), "topology holds %d vertices, want %d", got, verts)
		return
	}
	seen := make([]bool, len(exp.Present))
	var distinct, bad uint64
	first := ""
	for n, g := range pr.graphs {
		for _, vv := range g.Collect(0) {
			switch {
			case int(vv.ID) >= len(seen) || int(vv.ID) >= len(exp.Want) || !exp.Present[vv.ID]:
				bad++
				if first == "" {
					first = fmt.Sprintf("node %d holds vertex %d, which no event named", n, vv.ID)
				}
			case seen[vv.ID]:
				bad++
				if first == "" {
					first = fmt.Sprintf("vertex %d on two nodes", vv.ID)
				}
			default:
				seen[vv.ID] = true
				distinct++
				if vv.Val != exp.Want[vv.ID] {
					bad++
					if first == "" {
						first = fmt.Sprintf("node %d vertex %d = %d, oracle %d", n, vv.ID, vv.Val, exp.Want[vv.ID])
					}
				}
			}
		}
	}
	bad += absDiff(distinct, verts)
	if first == "" {
		first = fmt.Sprintf("%d vertices collected, want %d", distinct, verts)
	}
	t.expect(verts, bad, "%s", first)
}

// countHalfEdges walks a topology and counts its adjacency entries.
func countHalfEdges(tp incregraph.Topology) (n uint64) {
	tp.ForEachVertex(func(v incregraph.VertexID) bool {
		tp.Neighbors(v, func(incregraph.VertexID, incregraph.Weight) bool {
			n++
			return true
		})
		return true
	})
	return n
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}
