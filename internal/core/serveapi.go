package core

// The engine side of the MVCC read plane (internal/serve): rank-side
// publication chores live in rank.go; this file holds the read API that
// query goroutines call concurrently with ingestion, plus its latency and
// volume accounting. The serve package itself is engine-free — all timing
// and counters happen here so the read plane stays a pure data structure.

import (
	"sync/atomic"
	"time"

	"incregraph/internal/graph"
	"incregraph/internal/serve"
)

// serveStats is the engine-level read-side accounting block: one counter
// and one latency histogram per verb, shared by every reader goroutine
// (reads are far rarer than events — a batched verb costs one atomic add
// per call, not per vertex). Padded against neighbouring engine fields.
type serveStats struct {
	_ [64]byte

	pointReads   atomic.Uint64
	batchReads   atomic.Uint64
	topkReads    atomic.Uint64
	nbhdReads    atomic.Uint64
	readVertices atomic.Uint64 // vertices returned across all verbs

	point latHist
	batch latHist
	topk  latHist
	nbhd  latHist

	_ [64]byte
}

// totalEvents sums the per-kind processed-event counters — the mutation
// clock of the serve plane: if it hasn't moved, the rank's values and
// adjacency provably haven't either (every mutation is an event), so a
// publish may restamp instead of rebuild.
func (c *rankCounters) totalEvents() uint64 {
	var n uint64
	for i := range c.events {
		n += c.events[i].Load()
	}
	return n
}

// ServeStats is the read plane's slice of EngineStats.
type ServeStats struct {
	// Enabled mirrors Options.Serve.
	Enabled bool `json:"enabled"`
	// Epoch is the current global epoch; PublishedEpoch the minimum epoch
	// across local ranks' published segments (the staleness floor of every
	// read; 0 until every local rank published once).
	Epoch          uint64 `json:"epoch"`
	PublishedEpoch uint64 `json:"published_epoch"`
	// Publishes counts segment publications with new content; Restamps
	// counts publications elided because the rank processed nothing since
	// its last segment; CopiedSlots counts the vertex slots publications
	// copied (only the changed ones when a spare segment is rewritten).
	Publishes   uint64 `json:"publishes"`
	Restamps    uint64 `json:"restamps"`
	CopiedSlots uint64 `json:"copied_slots"`
	// Per-verb read counts, and the total vertices returned across them.
	PointReads   uint64 `json:"point_reads"`
	BatchReads   uint64 `json:"batch_reads"`
	TopKReads    uint64 `json:"topk_reads"`
	NbhdReads    uint64 `json:"nbhd_reads"`
	ReadVertices uint64 `json:"read_vertices"`
}

// ServeEnabled reports whether the MVCC read plane is on (Options.Serve).
func (e *Engine) ServeEnabled() bool { return e.plane != nil }

// ServeEpoch returns the read plane's current global epoch (0 when the
// plane is disabled).
func (e *Engine) ServeEpoch() uint64 {
	if e.plane == nil {
		return 0
	}
	return e.plane.Epoch()
}

// ReadPoint serves one vertex's published value for algo, lock-free
// against live ingestion, with the epoch it was current at (0 = owner
// never published / remote / plane disabled). Legal in every lifecycle
// state and from any goroutine.
func (e *Engine) ReadPoint(algo int, v graph.VertexID) (serve.Value, uint64) {
	e.checkAlgo(algo)
	if e.plane == nil {
		return serve.Value{Vertex: v}, 0
	}
	t0 := time.Now()
	val, epoch := e.plane.Get(algo, v)
	e.srv.point.record(time.Since(t0).Nanoseconds())
	e.srv.pointReads.Add(1)
	e.srv.readVertices.Add(1)
	return val, epoch
}

// ReadBatch serves many point lookups against per-rank-consistent views
// (each touched rank's segment is loaded once for the whole batch),
// appending to out — pass a reused buffer to avoid allocation. The epoch
// is the minimum over the touched owners: every answer is at least that
// fresh.
func (e *Engine) ReadBatch(algo int, ids []graph.VertexID, out []serve.Value) ([]serve.Value, uint64) {
	e.checkAlgo(algo)
	if e.plane == nil {
		for _, v := range ids {
			out = append(out, serve.Value{Vertex: v})
		}
		return out, 0
	}
	t0 := time.Now()
	out, epoch := e.plane.GetBatch(algo, ids, out)
	e.srv.batch.record(time.Since(t0).Nanoseconds())
	e.srv.batchReads.Add(1)
	e.srv.readVertices.Add(uint64(len(ids)))
	return out, epoch
}

// ReadTopK serves the k best published values for algo across local
// ranks, best-first (see serve.Plane.TopK for ordering and the zero-value
// exclusion).
func (e *Engine) ReadTopK(algo, k int, dir serve.Dir) ([]serve.Entry, uint64) {
	e.checkAlgo(algo)
	if e.plane == nil {
		return nil, 0
	}
	t0 := time.Now()
	entries, epoch := e.plane.TopK(algo, k, dir)
	e.srv.topk.record(time.Since(t0).Nanoseconds())
	e.srv.topkReads.Add(1)
	e.srv.readVertices.Add(uint64(len(entries)))
	return entries, epoch
}

// ReadNeighborhood serves a breadth-first k-hop read over the published
// adjacency rooted at root, at most limit nodes.
func (e *Engine) ReadNeighborhood(algo int, root graph.VertexID, depth, limit int) ([]serve.NbhdNode, uint64) {
	e.checkAlgo(algo)
	if e.plane == nil {
		return nil, 0
	}
	t0 := time.Now()
	nodes, epoch := e.plane.Neighborhood(algo, root, depth, limit)
	e.srv.nbhd.record(time.Since(t0).Nanoseconds())
	e.srv.nbhdReads.Add(1)
	e.srv.readVertices.Add(uint64(len(nodes)))
	return nodes, epoch
}
