package incregraph

import (
	"context"
	"fmt"
	"io"
	"time"

	"incregraph/internal/core"
	"incregraph/internal/graph"
	"incregraph/internal/serve"
	"incregraph/internal/static"
	"incregraph/internal/stream"
)

// Core types, re-exported so applications only import this package.
type (
	// VertexID identifies a vertex globally.
	VertexID = graph.VertexID
	// Weight is an edge weight.
	Weight = graph.Weight
	// Edge is a weighted directed edge, the unit of topology evolution.
	Edge = graph.Edge
	// EdgeEvent is an edge add (or, with Delete set, removal) on a stream.
	EdgeEvent = graph.EdgeEvent
	// Program is a REMO vertex program (user-defined event callbacks).
	Program = core.Program
	// Ctx is a callback's window onto the visited vertex.
	Ctx = core.Ctx
	// Stats summarizes a run.
	Stats = core.Stats
	// EngineStats is an on-demand aggregate of the engine's live counters
	// (see Graph.Stats).
	EngineStats = core.EngineStats
	// RankEngineStats is one rank's share of an EngineStats snapshot.
	RankEngineStats = core.RankEngineStats
	// EventCounts breaks processed events down by kind.
	EventCounts = core.EventCounts
	// Lineage is the completed causal tree of one sampled edge event's
	// cascade (see Graph.Lineage).
	Lineage = core.Lineage
	// LineageNode is one event of a traced cascade.
	LineageNode = core.LineageNode
	// LatencyStats is the aggregated latency view of EngineStats: the
	// log-bucketed histograms plus the cascade sampler's accounting.
	LatencyStats = core.LatencyStats
	// HistogramSnapshot is a point-in-time copy of one latency histogram,
	// with Quantile and Mean estimators.
	HistogramSnapshot = core.HistogramSnapshot
	// VertexValue pairs a vertex with its algorithm state.
	VertexValue = core.VertexValue
	// QueryResult is the answer to a local-state observation.
	QueryResult = core.QueryResult
	// Snapshot is an asynchronous global-state collection.
	Snapshot = core.Snapshot
	// Stream is an ordered source of edge events.
	Stream = stream.Stream
	// LiveStream is an unbounded stream fed by Push from other goroutines.
	LiveStream = stream.Chan
	// Topology is a read-only whole-graph adjacency view.
	Topology = static.Topology
	// State is the engine lifecycle phase: Idle → Running ⇄ Paused →
	// Stopped.
	State = core.State
	// CheckpointMeta is the run metadata recorded in a checkpoint.
	CheckpointMeta = core.CheckpointMeta
	// Transport is the engine's update plane: what moves flushed event
	// batches between ranks (in-process mailboxes by default; TCP for
	// multi-process graphs, see ClusterConfig).
	Transport = core.Transport
	// TransportStats describes the active transport in a Stats() snapshot:
	// its kind, this process's place in the cluster, and per-peer counters.
	TransportStats = core.TransportStats
	// PeerTransportStats is one peer channel's live counter block:
	// sent/received/acknowledged events and byte counts, frame/reconnect/
	// backoff counts, and the frame-size and ack-round-trip histograms.
	PeerTransportStats = core.PeerTransportStats
	// NodeEngineStats pairs one process's EngineStats with its node index —
	// the unit of the federated Graph.ClusterStats view.
	NodeEngineStats = core.NodeEngineStats
	// FlightEntry is one recorded protocol-level event of the always-on
	// flight recorder (see Graph.FlightRecord).
	FlightEntry = core.FlightEntry
	// FlightStats summarizes the flight recorder and stall watchdog inside
	// an EngineStats snapshot.
	FlightStats = core.FlightStats
	// ReadValue is one served vertex value of the MVCC read plane (see
	// Config.Serve and Graph.ReadPoint/ReadBatch).
	ReadValue = serve.Value
	// TopKEntry is one best-first result of Graph.ReadTopK.
	TopKEntry = serve.Entry
	// NbhdNode is one vertex of a Graph.ReadNeighborhood traversal.
	NbhdNode = serve.NbhdNode
	// ReadDir orders a top-K read (ReadMin / ReadMax).
	ReadDir = serve.Dir
	// ServeStats is the read plane's slice of an EngineStats snapshot.
	ServeStats = core.ServeStats
)

// Top-K read directions (see Graph.ReadTopK).
const (
	ReadMin = serve.DirMin
	ReadMax = serve.DirMax
)

// Lifecycle states (see Graph.State).
const (
	StateIdle    = core.StateIdle
	StateRunning = core.StateRunning
	StatePaused  = core.StatePaused
	StateStopped = core.StateStopped
)

// ErrStopped is returned by lifecycle transitions attempted on a graph
// whose engine has already terminated.
var ErrStopped = core.ErrStopped

// Unset is the state of a vertex no event has touched; Infinity is the
// "no path yet" distance value.
const (
	Unset    = core.Unset
	Infinity = core.Infinity
)

// Config configures a Graph.
type Config struct {
	// Ranks is the number of shared-nothing event-loop goroutines
	// (0 selects 1; negative is rejected). Scaling figures in the paper
	// scale this.
	Ranks int
	// Directed disables the undirected-edge protocol. The default
	// (false) matches the paper: every edge insertion also creates the
	// reverse edge via a serialized REVERSE_ADD notification.
	Directed bool
	// WeightPolicy selects how a re-inserted edge's weight merges with
	// the stored one (default KeepMinWeight). Choose the policy that is
	// monotone-compatible with the hooked algorithms: KeepMinWeight for
	// SSSP, KeepMaxWeight for WidestPath.
	WeightPolicy WeightPolicy
	// NoCoalesce disables monotone update coalescing (the Pregel-style
	// combiner the engine applies to programs that support it). Converged
	// results are identical either way; the knob exists for ablation and
	// debugging.
	NoCoalesce bool
	// SampleEvery is the cascade-latency sampling stride: each rank traces
	// one ingested edge event per SampleEvery from stream pull to cascade
	// quiescence, feeding Stats().Latency and Lineage(). 0 selects the
	// default of 1024; negative disables sampling.
	SampleEvery int
	// LineageKeep is how many completed cascade lineage trees the graph
	// retains for Lineage() (0 selects the default of 16; negative keeps
	// none while the latency histograms still fill).
	LineageKeep int
	// Serve enables the MVCC read plane: every rank publishes an
	// immutable epoch-stamped segment of its vertex values and adjacency
	// at each epoch boundary, and ReadPoint/ReadBatch/ReadTopK/
	// ReadNeighborhood serve from the published segments lock-free —
	// concurrent high-QPS reads while ingestion never pauses. Answers
	// are stale by at most one epoch but always a consistent committed
	// prefix; every read reports the epoch it was current at.
	Serve bool
	// ServeEvery is the read plane's epoch cadence (0 selects 50ms;
	// negative is rejected). Ignored unless Serve is set.
	ServeEvery time.Duration
	// NoHybrid disables the hybrid CSR-delta storage tier, leaving the
	// pure dynamic adjacency. The hybrid tier — immutable per-vertex
	// sorted segments compacted in the background from the mutable delta —
	// is on by default; results are identical either way (differentially
	// tested). Ablation knob.
	NoHybrid bool
	// AutoTune enables the per-rank feedback controller that watches the
	// mailbox-residency and flush-interval histograms and adjusts the
	// effective batch size and compaction threshold online. Off by
	// default.
	AutoTune bool
	// Cluster, when non-nil, spans the graph across Cluster.Procs OS
	// processes over TCP. Ranks then counts the ranks hosted by EACH
	// process (the global rank space is Ranks × Procs), and this process
	// runs only its own share. Prefer NewCluster, which surfaces
	// listen/dial errors instead of panicking.
	Cluster *ClusterConfig
}

// ClusterConfig places one process of a multi-process graph. All processes
// must agree on Procs, per-process Ranks, the program set, and every other
// Config knob; they form a full TCP mesh at Start, which blocks until the
// mesh is up.
//
// Process 0 is the coordinator: it must Listen, every other process must
// Join it, and it runs the distributed termination detector. Processes
// 1..Procs-2 must also Listen (higher-numbered processes dial them to
// complete the mesh); the highest-numbered process may omit Listen.
//
// Start accepts the GLOBAL stream slice, indexed by global rank — pass the
// same slice layout to every process; each ingests only the streams of its
// own ranks. InitVertex and Signal work from any process (events whose
// owning rank is remote ride the wire). Collect and Topology stay local:
// they observe this process's shard, so a global answer is the union of
// every process's Collect (shards are disjoint).
//
// Cascade lineage sampling works across processes (since wire v3): a
// sampled cascade's remote fragments are stitched back to the originating
// process, so Lineage() returns trees spanning the whole cluster.
//
// Not supported across processes (they error or panic, see DESIGN.md):
// Pause/Resume, Snapshot, checkpoints of a cluster run, and the
// deterministic simulator.
type ClusterConfig struct {
	// Proc is this process's index in [0, Procs).
	Proc int
	// Procs is the total process count.
	Procs int
	// Listen is the address this process accepts peer connections on
	// (":0" picks an ephemeral port — read it back with ClusterAddr).
	Listen string
	// Join is the coordinator's address (required when Proc > 0).
	Join string
	// ProbeTimeout bounds one termination-probe round's wait for all peer
	// reports (default 1s); a round that times out is retried.
	ProbeTimeout time.Duration
	// ShutdownWait bounds each of shutdown's two goroutine drains —
	// writers before the connections close, readers after (default 2s
	// each).
	ShutdownWait time.Duration
	// StallTimeout arms the per-process stall watchdog: when this process
	// makes no protocol-level progress for this long while it should be
	// making some, the flight recorder and per-peer transport state are
	// dumped to stderr and retained for StallDump. Default 30s; negative
	// disables. Firing is pure observability — the run is never killed.
	StallTimeout time.Duration
}

// WeightPolicy re-exports the duplicate-weight merge rules.
type WeightPolicy = graph.WeightPolicy

// Duplicate-weight merge rules (see Config.WeightPolicy).
const (
	KeepMinWeight   = graph.WeightMin
	KeepMaxWeight   = graph.WeightMax
	KeepFirstWeight = graph.WeightFirst
)

// Graph is a dynamic graph with live algorithm state: the user-facing
// handle over the event-centric engine, designed as a long-lived service.
// Construct with New (or NewCluster / LoadCheckpoint), register
// triggers, Start ingestion, interact (Query / Snapshot / InitVertex),
// and either Wait for the streams to end or drive the lifecycle
// explicitly: Pause/Resume for consistent mid-run reads and checkpoints,
// Stop for graceful shutdown of an unbounded live run.
type Graph struct {
	eng *core.Engine
	// clusterAddr is the transport's bound listen address for a
	// multi-process graph ("" otherwise).
	clusterAddr string
}

// validate rejects the Config values no default can stand in for.
func validate(cfg Config) error {
	if cfg.Ranks < 0 {
		return fmt.Errorf("invalid Config: Ranks = %d, want >= 0", cfg.Ranks)
	}
	if cfg.ServeEvery < 0 {
		return fmt.Errorf("invalid Config: ServeEvery = %v, want >= 0", cfg.ServeEvery)
	}
	return nil
}

// coreOptions maps a Config onto the engine's option struct (Ranks and
// Transport are filled by the caller).
func coreOptions(cfg Config) core.Options {
	return core.Options{
		Undirected:   !cfg.Directed,
		WeightPolicy: cfg.WeightPolicy,
		NoCoalesce:   cfg.NoCoalesce,
		SampleEvery:  cfg.SampleEvery,
		LineageKeep:  cfg.LineageKeep,
		Serve:        cfg.Serve,
		ServeEvery:   cfg.ServeEvery,
		NoHybrid:     cfg.NoHybrid,
		AutoTune:     cfg.AutoTune,
	}
}

// New builds a dynamic graph hosting the given programs. All programs
// maintain their state concurrently over the same topology. With
// cfg.Cluster set it builds this process's share of a multi-process graph
// and panics if the cluster transport cannot be constructed (use
// NewCluster to handle that error).
func New(cfg Config, programs ...Program) *Graph {
	g, err := NewCluster(cfg, programs...)
	if err != nil {
		panic("incregraph: " + err.Error())
	}
	return g
}

// NewCluster is New with the errors surfaced: it rejects an invalid
// Config (negative Ranks or ServeEvery), and for a Config with Cluster set
// it binds this process's listener and returns any listen/validation
// failure instead of panicking. With a valid Config and a nil Cluster (or
// Procs <= 1) it builds the ordinary in-process graph and never fails.
func NewCluster(cfg Config, programs ...Program) (*Graph, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	if cfg.Ranks == 0 {
		cfg.Ranks = 1
	}
	opts := coreOptions(cfg)
	if cc := cfg.Cluster; cc != nil && cc.Procs > 1 {
		tr, err := core.NewTCPTransport(core.TCPConfig{
			Node:         cc.Proc,
			Nodes:        cc.Procs,
			RanksPerNode: cfg.Ranks,
			Listen:       cc.Listen,
			Join:         cc.Join,
			ProbeTimeout: cc.ProbeTimeout,
			ShutdownWait: cc.ShutdownWait,
			StallTimeout: cc.StallTimeout,
		})
		if err != nil {
			return nil, err
		}
		opts.Ranks = cfg.Ranks * cc.Procs
		opts.Transport = tr
		return &Graph{eng: core.New(opts, programs...), clusterAddr: tr.ListenAddr()}, nil
	}
	opts.Ranks = cfg.Ranks
	return &Graph{eng: core.New(opts, programs...)}, nil
}

// Start launches ingestion over the given streams, at most one per rank.
// It returns immediately.
func (g *Graph) Start(streams ...Stream) error { return g.eng.Start(streams) }

// Wait blocks until every stream is exhausted and all cascades have
// converged, then returns run statistics.
func (g *Graph) Wait() Stats { return g.eng.Wait() }

// Run is Start followed by Wait.
func (g *Graph) Run(streams ...Stream) (Stats, error) { return g.eng.Run(streams) }

// Pause halts ingestion, drains every in-flight cascade to a quiescent
// point, and parks the engine's rank goroutines at an event boundary.
// While paused, Collect, Topology, and WriteCheckpoint are legal and
// observe a consistent global state; Query and Snapshot keep working.
// InitVertex/Signal calls made while paused are delivered on Resume;
// topology events stay buffered in their streams. Idempotent; returns
// ErrStopped if the engine terminated first.
func (g *Graph) Pause() error { return g.eng.Pause() }

// Resume continues a paused run: parked ranks pull their streams again and
// events held during the pause are delivered. Idempotent on a running
// graph; returns ErrStopped after termination.
func (g *Graph) Resume() error { return g.eng.Resume() }

// Stop gracefully shuts the graph down from any state: it halts ingestion,
// drains in-flight cascades to a consistent quiescent point, and releases
// every engine goroutine — the way to end a run over live streams that
// never close. It returns nil once termination is complete (Wait will not
// block), or ctx.Err() if the context expires first, in which case the
// shutdown continues in the background. Stopping a stopped graph is an
// idempotent wait.
func (g *Graph) Stop(ctx context.Context) error { return g.eng.Stop(ctx) }

// State returns the engine's lifecycle state.
func (g *Graph) State() State { return g.eng.State() }

// InitVertex instantiates program algo at vertex v (e.g. chooses a BFS or
// S-T source). It may be called before Start or at any time during a run.
func (g *Graph) InitVertex(algo int, v VertexID) { g.eng.InitVertex(algo, v) }

// Signal delivers a user-generated value to program algo at vertex v (the
// paper's attribute-update events). The program must implement
// core.SignalAware; others ignore signals.
func (g *Graph) Signal(algo int, v VertexID, val uint64) { g.eng.Signal(algo, v, val) }

// Query observes vertex v's local state for program algo in constant time,
// causally consistent with the vertex's event history (§III-E of the
// paper). Valid before, during, and after a run.
func (g *Graph) Query(algo int, v VertexID) QueryResult { return g.eng.QueryLocal(algo, v) }

// When registers a dynamic trigger: action fires the first time any
// vertex's state for program algo satisfies pred. For monotone REMO state
// there are no false positives and the action fires at most once per
// vertex. Must be called before Start; action runs on an engine goroutine
// and must be fast.
func (g *Graph) When(algo int, pred func(v VertexID, val uint64) bool, action func(v VertexID, val uint64)) {
	g.eng.When(algo, pred, action)
}

// WhenVertex is When scoped to a single vertex — the paper's "When is
// vertex A connected to vertex B?" query shape.
func (g *Graph) WhenVertex(algo int, v VertexID, pred func(val uint64) bool, action func(val uint64)) {
	g.eng.WhenVertex(algo, v, pred, action)
}

// Snapshot requests an asynchronous, globally consistent collection of
// program algo's state at the current discrete time point, without pausing
// ingestion. Call Wait (or AsMap) on the result.
func (g *Graph) Snapshot(algo int) *Snapshot { return g.eng.SnapshotAsync(algo) }

// Collect gathers program algo's complete state once the graph is paused
// or finished, sorted by vertex ID.
func (g *Graph) Collect(algo int) []VertexValue { return g.eng.Collect(algo) }

// CollectMap is Collect keyed by vertex.
func (g *Graph) CollectMap(algo int) map[VertexID]uint64 { return g.eng.CollectMap(algo) }

// Topology returns a read-only whole-graph view usable with any static
// algorithm. Valid before Start, while the graph is Paused, or after Wait
// ("any known static algorithm can be applied on the dynamic graph whose
// evolution is paused or concluded").
func (g *Graph) Topology() Topology { return g.eng.Topology() }

// Quiescent reports whether no event is buffered, queued, or being
// processed anywhere in the engine. Events still sitting inside a live
// stream are not covered — pair with Ingested to know a pushed workload
// has fully drained.
func (g *Graph) Quiescent() bool { return g.eng.Quiescent() }

// Ingested returns the number of topology events pulled from streams so
// far. Ingested()==pushed && Quiescent() means every pushed event has been
// fully processed.
func (g *Graph) Ingested() uint64 { return g.eng.Ingested() }

// Drain blocks until every event pushed so far to the given live streams
// has been ingested and fully processed (including all recursive update
// cascades). It is the synchronization point between "I pushed these
// events" and "queries now reflect them"; pushes that happen concurrently
// with Drain may or may not be covered. The wait is condition-signalled —
// the caller parks and is woken by the engine's quiescence transitions,
// not a spin loop — and returns early if the graph stops.
func (g *Graph) Drain(streams ...*LiveStream) {
	var pushed uint64
	for _, s := range streams {
		pushed += s.Pushed()
	}
	g.eng.WaitDrained(func() uint64 { return pushed })
}

// ServeEnabled reports whether the MVCC read plane is on (Config.Serve).
func (g *Graph) ServeEnabled() bool { return g.eng.ServeEnabled() }

// ServeEpoch returns the read plane's current global epoch (0 when
// disabled). Epochs advance every Config.ServeEvery; every Read* answer
// reports the epoch it was current at, which is at most one behind.
func (g *Graph) ServeEpoch() uint64 { return g.eng.ServeEpoch() }

// Programs returns the number of hooked programs (algo arguments range
// over [0, Programs())).
func (g *Graph) Programs() int { return g.eng.Programs() }

// ReadPoint serves vertex v's published value for program algo from the
// MVCC read plane: lock-free, legal from any goroutine in any lifecycle
// state, never blocking ingestion. The answer is the value at the
// returned epoch — stale by at most one epoch interval, but always a
// consistent committed prefix (never a torn mid-event view). Found is
// false when v doesn't exist at that epoch (or its owner is a remote
// process — the plane serves the local shard, like Collect). Requires
// Config.Serve; otherwise every read is not-found at epoch 0.
func (g *Graph) ReadPoint(algo int, v VertexID) (ReadValue, uint64) {
	return g.eng.ReadPoint(algo, v)
}

// ReadBatch serves many point lookups in one call against
// per-rank-consistent views, appending to out (pass a reused buffer to
// avoid allocation; nil is fine). The epoch is the minimum over the
// owners touched — every answer is at least that fresh.
func (g *Graph) ReadBatch(algo int, ids []VertexID, out []ReadValue) ([]ReadValue, uint64) {
	return g.eng.ReadBatch(algo, ids, out)
}

// ReadTopK serves the k best published values for program algo,
// best-first (ReadMin: smallest, e.g. distances; ReadMax: largest, e.g.
// widest capacities). Vertices whose value is still Unset are excluded.
func (g *Graph) ReadTopK(algo, k int, dir ReadDir) ([]TopKEntry, uint64) {
	return g.eng.ReadTopK(algo, k, dir)
}

// ReadNeighborhood serves a breadth-first k-hop traversal of the
// published adjacency rooted at root (at most limit nodes, BFS order,
// root first), each node carrying its published value for algo.
func (g *Graph) ReadNeighborhood(algo int, root VertexID, depth, limit int) ([]NbhdNode, uint64) {
	return g.eng.ReadNeighborhood(algo, root, depth, limit)
}

// Stats aggregates the engine's live per-rank counters into a point-in-time
// EngineStats snapshot: events processed by kind, inter-rank traffic,
// mailbox high-water marks, cascade emissions, control-plane service
// counts, and pause-barrier time. It is legal in every lifecycle state —
// Idle, Running, mid-Pause, Paused, Stopped — and never blocks event
// processing; each counter is individually exact, but the set is only a
// consistent cut when the graph is quiescent. (Wait's Stats remains the
// end-of-run summary; this is the live view.)
func (g *Graph) Stats() EngineStats { return g.eng.EngineStats() }

// Lineage returns the completed causal trees of the most recently sampled
// edge-event cascades, oldest first: every event each sampled ingest
// generated — including UPDATEs coalesced away before delivery — with
// parent links, ranks, and the cascade's ingest-to-quiescence latency.
// Retention is bounded by Config.LineageKeep; sampling frequency by
// Config.SampleEvery. Legal in every lifecycle state (lineages are
// immutable copies); nil when sampling is disabled.
func (g *Graph) Lineage() []Lineage { return g.eng.Lineages() }

// ClusterStats federates Stats() across the whole job: every process's
// EngineStats snapshot, labeled by its node index and sorted, the local one
// included. Each remote snapshot is one stats-frame round trip bounded by
// timeout (<= 0 selects 1s); peers that miss the deadline are absent. For
// an in-process graph it returns just the local snapshot as node 0.
func (g *Graph) ClusterStats(timeout time.Duration) []NodeEngineStats {
	return g.eng.ClusterStats(timeout)
}

// FlightRecord returns the always-on flight recorder's retained
// protocol-level events (frames, credits, quiescence votes, lifecycle
// transitions), oldest first. Cheap; legal in every lifecycle state.
func (g *Graph) FlightRecord() []FlightEntry { return g.eng.FlightRecord() }

// StallDump returns the most recent stall-watchdog dump ("" if the
// watchdog never fired): engine state, per-peer transport counters with
// the suspected stalled peer marked, and the flight recorder. The same
// text is written to stderr at fire time. See ClusterConfig.StallTimeout.
func (g *Graph) StallDump() string { return g.eng.StallDump() }

// Ranks returns the configured rank count (the GLOBAL count for a
// multi-process graph).
func (g *Graph) Ranks() int { return g.eng.Ranks() }

// ClusterAddr returns the address this process's cluster transport is
// listening on ("" for an in-process graph or a non-listening process).
// With ClusterConfig.Listen ":0" this is how peers learn the actual port.
func (g *Graph) ClusterAddr() string { return g.clusterAddr }

// Err returns the first transport failure of a multi-process run (a peer
// process dropped mid-run), or nil. After a non-nil Err the local state is
// a consistent prefix of the run, not the converged answer. Always nil for
// in-process graphs.
func (g *Graph) Err() error { return g.eng.Err() }

// WriteCheckpoint serializes the graph's full state — topology plus every
// program's per-vertex values — so analysis can resume in a later process.
// Valid before Start, while Paused (checkpointing a live run at its
// quiescent pause point), or after Wait.
func (g *Graph) WriteCheckpoint(w io.Writer) error { return g.eng.WriteCheckpoint(w) }

// CheckpointMeta returns the metadata block of the checkpoint this graph
// was loaded from: how many topology events the writing run had ingested
// and whether it was a paused live run. Zero for a graph built fresh.
func (g *Graph) CheckpointMeta() CheckpointMeta { return g.eng.CheckpointMeta() }

// LoadCheckpoint builds a fresh, not-yet-started Graph from a checkpoint
// written by WriteCheckpoint. programs must match the writer's program set
// in count and order; the checkpoint's rank count, directedness and weight
// policy override cfg's, and every other engine knob is taken from cfg,
// which is validated as by NewCluster.
// For a checkpoint taken from a paused live run, re-attach the interrupted
// streams from the offset CheckpointMeta reports and Start: the run
// continues exactly where it paused.
func LoadCheckpoint(r io.Reader, cfg Config, programs ...Program) (*Graph, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	eng, err := core.ReadCheckpoint(r, coreOptions(cfg), programs...)
	if err != nil {
		return nil, err
	}
	return &Graph{eng: eng}, nil
}
