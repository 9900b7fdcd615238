package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"incregraph/internal/graph"
	"incregraph/internal/partition"
	"incregraph/internal/serve"
	"incregraph/internal/stream"
)

// Options configures an Engine.
type Options struct {
	// Ranks is the number of shared-nothing event-loop goroutines — the
	// reproduction's analogue of the paper's MPI process count. Must be
	// >= 1.
	Ranks int
	// Undirected selects the paper's undirected-edge protocol: every ADD
	// at the edge source triggers a REVERSE_ADD at the destination, which
	// inserts the reverse edge (§III-A, §III-C). When false, edges are
	// directed and no reverse events are generated.
	Undirected bool
	// SmallCap is the degree-aware promotion threshold of the graph store
	// (0 selects the default).
	SmallCap int
	// WeightPolicy selects how duplicate-edge weights merge (default
	// WeightMin). Pick the policy monotone-compatible with the hooked
	// algorithms: WeightMin for SSSP, WeightMax for widest-path.
	WeightPolicy graph.WeightPolicy
	// BatchSize is the outbound message batching granularity (0 selects
	// 256). Batching amortizes mailbox synchronization without breaking
	// per-sender FIFO order.
	BatchSize int
	// Partitioner overrides the default consistent-hash partitioner.
	Partitioner partition.Partitioner
	// IngestFirst makes ranks pull a topology event from their stream
	// before draining the mailbox, inverting the default prioritization of
	// algorithmic events over ingestion (the latency/ingest-rate tradeoff
	// of §V-C). Kept as an ablation knob.
	IngestFirst bool
	// NoCoalesce disables monotone update coalescing (see coalesce.go)
	// even for programs that implement Combiner. Converged results are
	// identical either way (that equivalence is property-tested); the knob
	// exists for ablation and debugging.
	NoCoalesce bool
	// SampleEvery is the cascade-latency sampling stride: each rank traces
	// one ingested topology event per SampleEvery to cascade quiescence
	// (see lineage.go), feeding the ingest-to-quiescence histogram and the
	// lineage API. 0 selects the default of 1024; negative disables
	// sampling entirely (untraced events cost only nil/zero checks either
	// way).
	SampleEvery int
	// LineageKeep is how many completed lineage trees the engine retains
	// for Lineages() (0 selects the default of 16; negative keeps none,
	// histograms still fill).
	LineageKeep int
	// Transport is the update plane moving flushed batches between ranks
	// (see transport.go). Nil selects the in-process SPSC mailbox
	// transport — the default and the only behavior before the seam
	// existed. A multi-process transport (NewTCPTransport) makes Ranks the
	// GLOBAL rank count: this engine runs goroutines only for the ranks
	// Transport.Local reports, and the others exist as inert shards owned
	// by peer processes.
	Transport Transport
	// Serve enables the MVCC read plane (internal/serve): each local rank
	// publishes an immutable epoch-stamped segment of its vertex values
	// and adjacency at every epoch boundary, and ReadPoint/ReadBatch/
	// ReadTopK/ReadNeighborhood serve lock-free from the published
	// segments while ingestion keeps running. Off by default.
	Serve bool
	// ServeEvery is the epoch cadence of the read plane's ticker (0
	// selects 50ms). Ignored unless Serve is set; sim-driven engines
	// advance epochs via SimDriver.ServeAdvance instead of a ticker.
	ServeEvery time.Duration
	// AutoTune enables the per-rank feedback controller that reads the
	// mailbox-residency and flush-interval histograms and adjusts the
	// effective batch size online (see tune.go). Off by default: the fixed
	// BatchSize then applies verbatim.
	// Implies histogram sampling stays enabled on the tuned ranks.
	AutoTune bool
}

func (o Options) withDefaults() Options {
	if o.Ranks == 0 {
		o.Ranks = 1
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 256
	}
	if o.Partitioner == nil {
		o.Partitioner = partition.NewHashed(o.Ranks)
	}
	if o.SampleEvery == 0 {
		o.SampleEvery = 1024
	}
	if o.LineageKeep == 0 {
		o.LineageKeep = 16
	}
	if o.ServeEvery == 0 {
		o.ServeEvery = 50 * time.Millisecond
	}
	return o
}

// Engine hosts the dynamic graph and the live state of every hooked
// program, processing topology and algorithmic events asynchronously,
// concurrently, and without shared state (§II-A). An Engine runs one
// ingestion pass: construct it, register triggers, Start it with one
// stream per rank, interact (queries, snapshots, inits), then Wait.
type Engine struct {
	opts     Options
	part     partition.Partitioner
	programs []Program
	// tr is the update plane (transport.go); remote is true when any
	// global rank lives in another process, i.e. tr spans processes.
	tr     Transport
	remote bool
	// runErr is the first transport failure (peer dropped mid-run); it
	// makes Err non-nil and force-finishes the engine.
	runErrMu sync.Mutex
	runErr   error
	// combine[algo] is that program's Combine hook (nil when the program
	// does not implement Combiner or Options.NoCoalesce is set).
	combine []combineFunc
	// witness[algo] is that program's WitnessProgram view (nil when the
	// program does not implement it, or in directed mode — the deletion
	// protocol's live-edge guard requires the undirected reverse edge). A
	// rank runs that guard only once it has removed an edge (rank.removedEdge).
	witness []WitnessProgram
	// genCounter mints witness generations (see nextGen). Like the
	// in-flight ring it is a deliberate shared-atomic deviation from
	// shared-nothing: a reset's generation must be strictly above every
	// generation any in-flight event anywhere can carry, which a per-rank
	// counter cannot guarantee. One uncontended CAS per *unsafe deletion*
	// — never on the add/update hot path.
	genCounter atomic.Uint32
	triggers   []trigger
	ranks      []*rank

	// genNode/genNodes split generations between cluster nodes: this node
	// mints only g ≡ genNode (mod genNodes), so no two nodes mint the same
	// one. They stay 0/1 unless a TCP transport binds them.
	genNode, genNodes uint32

	// traces is the cascade-lineage table (nil when Options.SampleEvery is
	// negative — the only check the untraced hot path ever makes is
	// Event.Trace == 0).
	traces *traceTable
	// plane is the MVCC read plane (nil unless Options.Serve): local ranks
	// publish immutable epoch-stamped segments into it, Read* serve from
	// it lock-free. srv holds the engine-side read counters and latency
	// histograms (serve itself is engine-free).
	plane *serve.Plane
	srv   *serveStats
	// flight is the always-on protocol-level flight recorder (flight.go);
	// the stall watchdog's dumps are retained here too.
	flight *flightRec

	// inflight counts unprocessed events per snapshot-sequence ring slot
	// (ring size 4 > the 2 sequences that can coexist). The engine is
	// quiescent iff every slot is zero.
	inflight [4]atomic.Int64
	// snapSeq is the current snapshot sequence; bumping it is the marker
	// of §III-D.
	snapSeq atomic.Uint32
	// activeSnap is the single in-flight snapshot, if any.
	activeSnap atomic.Pointer[Snapshot]
	snapMu     sync.Mutex

	streamsLeft atomic.Int32
	ingested    atomic.Uint64
	done        chan struct{}
	finishOnce  sync.Once
	finished    atomic.Bool
	started     atomic.Bool
	wg          sync.WaitGroup

	// Lifecycle state machine (Idle → Running ⇄ Paused → Stopped); the
	// control protocol lives in lifecycle.go.
	state    atomic.Int32
	lifeMu   sync.Mutex // serializes Pause/Resume/Stop transitions
	pauseReq atomic.Bool
	stopReq  atomic.Bool
	parked   atomic.Int32 // ranks currently parked at the pause barrier
	gateMu   sync.Mutex
	resumeCh chan struct{} // armed per pause cycle; closed to release parked ranks
	extMu    sync.Mutex    // fences external emissions against a pause
	deferred []Event       // external events held while paused; replayed on Resume

	// Quiescence signalling: qCond is broadcast on every in-flight zero
	// crossing, rank parking, and termination, so waiters (Pause,
	// WaitDrained) park instead of spinning.
	qMu      sync.Mutex
	qCond    *sync.Cond
	qWaiters atomic.Int32

	// loadedMeta carries the metadata block of the checkpoint this engine
	// was built from (zero if built fresh).
	loadedMeta CheckpointMeta

	// Deterministic-simulation seam (see sim.go and internal/sim). All of
	// these are nil/false in production: simManual marks an engine driven
	// one micro-step at a time by a SimDriver instead of rank goroutines;
	// the hooks let a checker observe flushed batches and coalescer merges;
	// simMutateBatch is the mutation-testing seam that may corrupt a batch
	// after the observer saw the true order.
	simManual      bool
	simFlushHook   func(from, dest int, batch []Event)
	simMutateBatch func(batch []Event)
	simMergeHook   func(algo uint8, to graph.VertexID, old, offered, merged uint64)
	// simSkipInvalidate (mutation testing only) makes witnessDelete skip
	// the witness classification entirely — deletions remove the edge but
	// never invalidate dependent values. The sim's post-delete
	// differential oracle must catch the resulting stale state.
	simSkipInvalidate bool
	// simUncertified (mutation testing only) makes rank.rewitness accept
	// any local neighbour whose offer reproduces the doomed lane, without
	// checking its generation or walking its witness chain.
	simUncertified bool

	// snapRequests counts SnapshotAsync calls (EngineStats.SnapshotsTaken).
	snapRequests atomic.Uint64
	// startNanos and finishNanos are Start's and finish's wall-clock times
	// in UnixNano (0 until they happen); atomic so EngineStats can read them
	// concurrently. A set finishNanos freezes EngineStats.Uptime.
	startNanos  atomic.Int64
	finishNanos atomic.Int64
}

// New builds an engine hosting the given programs. Multiple programs
// maintain their state concurrently over the same dynamic topology
// (the multi-algorithm design goal of §I; the paper's prototype supported
// one, this implementation lifts that limitation).
func New(opts Options, programs ...Program) *Engine {
	opts = opts.withDefaults()
	if opts.Ranks < 1 {
		panic("core: Ranks must be >= 1")
	}
	if opts.Partitioner.Ranks() != opts.Ranks {
		panic(fmt.Sprintf("core: partitioner covers %d ranks, engine has %d",
			opts.Partitioner.Ranks(), opts.Ranks))
	}
	if len(programs) >= int(NoAlgo) {
		panic("core: too many programs")
	}
	if opts.Transport == nil {
		opts.Transport = NewInProcTransport()
	}
	e := &Engine{
		opts:     opts,
		part:     opts.Partitioner,
		programs: programs,
		tr:       opts.Transport,
		done:     make(chan struct{}),
		flight:   &flightRec{},
		genNodes: 1,
	}
	if err := e.tr.bind(e); err != nil {
		panic(fmt.Sprintf("core: transport: %v", err))
	}
	for g := 0; g < opts.Ranks; g++ {
		if !e.tr.Local(g) {
			e.remote = true
			break
		}
	}
	e.combine = make([]combineFunc, len(programs))
	if !opts.NoCoalesce {
		for i, p := range programs {
			if c, ok := p.(Combiner); ok {
				e.combine[i] = c.Combine
			}
		}
	}
	e.witness = make([]WitnessProgram, len(programs))
	if opts.Undirected {
		for i, p := range programs {
			if wp, ok := p.(WitnessProgram); ok {
				if wp.WitnessLanes() < 1 || wp.WitnessLanes() > 64 {
					panic(fmt.Sprintf("core: program %d has %d witness lanes (want 1..64)",
						i, wp.WitnessLanes()))
				}
				e.witness[i] = wp
			}
		}
	}
	e.qCond = sync.NewCond(&e.qMu)
	if opts.SampleEvery > 0 {
		// Since wire v3 the sampler runs in distributed mode too: Trace tags
		// ride EVENTS frames and remote fragments report back to the origin
		// (see lineage.go), so a cascade that crosses nodes still retires.
		e.traces = newTraceTable(max(opts.LineageKeep, 0))
	}
	if opts.Serve {
		e.plane = serve.NewPlane(e.part, len(programs), e.tr.Local)
		e.srv = &serveStats{}
	}
	e.ranks = make([]*rank, opts.Ranks)
	for i := range e.ranks {
		e.ranks[i] = newRank(e, i)
		if e.plane != nil && e.tr.Local(i) {
			e.ranks[i].pub = e.plane.Publisher(i)
		}
	}
	if e.traces != nil {
		// Lineages finalized from a remote report (no retiring rank at hand)
		// record their latency into the first local rank's histogram.
		for g := 0; g < opts.Ranks; g++ {
			if e.tr.Local(g) {
				e.traces.record = e.ranks[g].lat.ingest.record
				break
			}
		}
	}
	return e
}

// Programs returns the number of hooked programs.
func (e *Engine) Programs() int { return len(e.programs) }

// Ranks returns the rank count.
func (e *Engine) Ranks() int { return e.opts.Ranks }

// Start launches the rank loops over the given streams (at most one per
// rank; missing ones idle). It returns immediately; use Wait to block
// until every stream is exhausted and the engine is quiescent.
func (e *Engine) Start(streams []stream.Stream) error {
	if len(streams) > len(e.ranks) {
		return fmt.Errorf("core: %d streams for %d ranks", len(streams), len(e.ranks))
	}
	if e.finished.Load() {
		return fmt.Errorf("core: engine already stopped")
	}
	if e.started.Swap(true) {
		return fmt.Errorf("core: engine already started")
	}
	// Count every local stream before the transport starts or any rank
	// runs: a rank whose stream is empty finishes the engine as soon as it
	// sees streamsLeft at zero with nothing in flight, and a TCP peer may
	// probe StreamsDone as soon as the mesh is up.
	for i, r := range e.ranks {
		if !e.tr.Local(i) || i >= len(streams) || streams[i] == nil {
			// No stream here. A rank a peer process owns is an inert local
			// shard: no goroutine, a mailbox that only buffers if a bug
			// ever routes to it, and Collect reads it as empty.
			r.streamDone = true
			continue
		}
		r.stream = streams[i]
		if live, ok := r.stream.(stream.Live); ok {
			live.SetNotify(r.inbox.poke)
		}
		e.streamsLeft.Add(1)
	}
	// Bring the update plane up next: a multi-process transport blocks
	// here until the full mesh is connected, so by the time any rank loop
	// runs, Send can reach every peer.
	if err := e.tr.start(); err != nil {
		e.stopReq.Store(true)
		e.finish()
		return fmt.Errorf("core: transport start: %w", err)
	}
	e.state.Store(int32(StateRunning))
	e.flight.note("state", -1, "Running", 0, 0)
	e.startNanos.Store(time.Now().UnixNano())
	if e.plane != nil {
		// Epoch ticker: bump the plane's epoch and wake every rank so each
		// publishes at its next event boundary. Exits when the engine
		// finishes; sim-driven engines never reach here (StartSim).
		go func() {
			t := time.NewTicker(e.opts.ServeEvery)
			defer t.Stop()
			for {
				select {
				case <-e.done:
					return
				case <-t.C:
					e.plane.Advance()
					e.wakeAll()
				}
			}
		}()
	}
	for i, r := range e.ranks {
		if e.tr.Local(i) {
			e.wg.Add(1)
			go r.loop()
		}
	}
	return nil
}

// Ingested returns the number of topology events pulled from streams so
// far. Combined with Quiescent it gives a sound "everything pushed has
// been fully processed" check for live streams: by the time an event is
// counted here it is already tracked by the in-flight counters.
func (e *Engine) Ingested() uint64 { return e.ingested.Load() }

// Quiescent reports whether no event is currently buffered, queued, or
// mid-processing. With idle live streams this is the moment a collected
// global state equals the state after "a defined set of events have been
// ingested and processed" (§II-C).
func (e *Engine) Quiescent() bool {
	for i := range e.inflight {
		if e.inflight[i].Load() != 0 {
			return false
		}
	}
	return true
}

// Wait blocks until the engine terminates — all streams exhausted and all
// cascades quiescent, or a Stop completed — and returns the final
// EngineStats: the run report, frozen at termination (Uptime is Start to
// finish, EventRate the run's topology-event rate).
func (e *Engine) Wait() EngineStats {
	<-e.done
	e.wg.Wait()
	e.tr.stop()
	return e.EngineStats()
}

// Run is Start followed by Wait.
func (e *Engine) Run(streams []stream.Stream) (EngineStats, error) {
	if err := e.Start(streams); err != nil {
		return EngineStats{}, err
	}
	return e.Wait(), nil
}

// InitVertex instantiates program algo at vertex v (e.g. chooses the BFS
// source). Per §VI-A it may be called before Start (the event is queued),
// or at any point during the run.
func (e *Engine) InitVertex(algo int, v graph.VertexID) {
	e.checkAlgo(algo)
	e.emitExternal(Event{Kind: KindInit, Algo: uint8(algo), To: v})
}

// Signal delivers a user-generated value to program algo at vertex v —
// the attribute-update event of §III-A's footnote. The program must
// implement SignalAware (otherwise the event is ignored at delivery).
// Like InitVertex it may be called before Start or at any time during a
// run; the vertex is created if absent.
func (e *Engine) Signal(algo int, v graph.VertexID, val uint64) {
	e.checkAlgo(algo)
	e.emitExternal(Event{Kind: KindSignal, Algo: uint8(algo), To: v, Val: val})
}

// emitExternal labels an event with the current snapshot sequence and
// routes it. The increment-then-verify loop guarantees the event is
// counted in the ring slot matching its label even when it races a
// snapshot marker, so a snapshot can never be declared drained while an
// event claiming the old version is still unprocessed.
//
// Emission is fenced against the lifecycle: while a pause is in progress
// or the engine is paused, the event is held in the deferred queue and
// replayed on Resume (so a paused engine's state stays frozen); once a
// stop is requested the event is discarded. The fence mutex guarantees a
// pause observes either the fully-registered event (and waits for it to
// drain) or none of it.
func (e *Engine) emitExternal(ev Event) {
	e.extMu.Lock()
	defer e.extMu.Unlock()
	if e.stopReq.Load() || e.finished.Load() && e.started.Load() {
		return
	}
	if e.pauseReq.Load() {
		e.deferred = append(e.deferred, ev)
		return
	}
	owner := e.part.Owner(ev.To)
	if !e.tr.Local(owner) {
		// The owning rank lives in a peer process: ship the event
		// unlabeled and let the owner stamp it with ITS snapshot sequence
		// (sequences are process-local; distributed runs never bump them).
		// Before Start the transport buffers it until the mesh is up.
		e.tr.SendExternal(ev)
		return
	}
	e.labelSeq(&ev)
	// The external lane is SPSC like every other: extMu (held here) is
	// what serializes its producer side. pushExternal buffers into the
	// lane's current chunk, so injection allocates nothing per event.
	e.ranks[owner].inbox.pushExternal(ev)
}

// injectExternal is the receiving half of Transport.SendExternal: a peer
// process routed an engine-external event here because this process owns
// the target vertex. It runs on a transport goroutine and mirrors
// emitExternal's tail — extMu serializes it with local external producers
// (the external mailbox lane stays SPSC) and fences it against a stop.
func (e *Engine) injectExternal(ev Event) {
	e.extMu.Lock()
	defer e.extMu.Unlock()
	if e.stopReq.Load() || e.finished.Load() && e.started.Load() {
		return
	}
	e.labelSeq(&ev)
	e.ranks[e.part.Owner(ev.To)].inbox.pushExternal(ev)
}

// labelSeq stamps ev with the current snapshot sequence and registers it
// in the matching in-flight ring slot. The increment-then-verify loop is
// the one place this race is solved (see emitExternal's contract): if a
// snapshot marker lands between the load and the increment, the increment
// is rolled back and retried under the new sequence.
func (e *Engine) labelSeq(ev *Event) {
	for {
		s := e.snapSeq.Load()
		e.inflight[s&3].Add(1)
		if e.snapSeq.Load() == s {
			ev.Seq = s
			return
		}
		e.inflight[s&3].Add(-1)
	}
}

// nextGen mints a globally fresh witness generation, strictly above every
// generation this node has emitted or received. An unsafe deletion's
// reset takes one per affected vertex; the fresh generation is what breaks
// count-to-infinity — a value that looped through the doomed region
// carries an older generation and is rejected at delivery. Across a
// cluster, "fresh" rests on two rules: each node mints in its own residue
// class, and observeGen raises the counter past every generation that
// arrives over the wire (a Lamport clock).
func (e *Engine) nextGen() uint32 {
	for {
		cur := e.genCounter.Load()
		g := cur + 1
		g += (e.genNode + e.genNodes - g%e.genNodes) % e.genNodes
		if e.genCounter.CompareAndSwap(cur, g) {
			return g
		}
	}
}

// observeGen raises the generation counter to g, so that every later
// mint on this node is above it. The transport calls it for each
// generation an inbound EVENTS frame carries.
func (e *Engine) observeGen(g uint32) {
	for cur := e.genCounter.Load(); g > cur; cur = e.genCounter.Load() {
		if e.genCounter.CompareAndSwap(cur, g) {
			return
		}
	}
}

// tryFinish detects global termination: every stream exhausted (or a stop
// requested) and no event buffered, queued, or mid-processing anywhere.
// A pause in progress wins over natural termination — ranks park at the
// barrier instead, and termination is re-detected after Resume. Callable
// from any rank; closes done exactly once.
func (e *Engine) tryFinish() bool {
	if e.pauseReq.Load() {
		return false
	}
	if e.streamsLeft.Load() != 0 && !e.stopReq.Load() {
		return false
	}
	for i := range e.inflight {
		if e.inflight[i].Load() != 0 {
			return false
		}
	}
	// Local quiescence established; the transport decides whether that is
	// global termination. inproc: always. TCP: only after the Mattern
	// counter protocol agrees (the call also kicks the coordinator's
	// detector, and a follower returns true only once TERMINATE arrived).
	if !e.tr.readyToFinish() {
		return false
	}
	e.finish()
	e.signalQuiesce()
	return true
}

// finish terminates the engine, exactly once, whichever path got there:
// it records the finish instant (freezing EngineStats.Uptime), moves the
// state to Stopped with its flight-recorder note, and closes done.
func (e *Engine) finish() {
	e.finishOnce.Do(func() {
		e.stampFinish()
		e.finished.Store(true)
		e.state.Store(int32(StateStopped))
		e.flight.note("state", -1, "Stopped", 0, 0)
		close(e.done)
	})
}

// stampFinish records the finish instant unless one is already set. The
// TCP transport stamps it at the termination decision, ahead of finish, so
// the parting stats snapshot it sends peers carries this node's final
// Uptime.
func (e *Engine) stampFinish() {
	e.finishNanos.CompareAndSwap(0, time.Now().UnixNano())
}

// finishFromTransport closes the engine on the transport's authority: the
// distributed termination protocol decided (TERMINATE received, or this
// node's detector concluded), so no further events can arrive. Parked
// ranks wake, observe finished, and exit.
func (e *Engine) finishFromTransport() {
	e.finish()
	e.signalQuiesce()
	e.wakeAll()
}

// failFromTransport surfaces a transport failure (peer connection dropped
// mid-run): it records the first error for Err, halts ingestion, and
// force-finishes the engine. The local state remains a consistent prefix,
// but the distributed run did not converge.
func (e *Engine) failFromTransport(err error) {
	e.runErrMu.Lock()
	if e.runErr == nil {
		e.runErr = err
	}
	e.runErrMu.Unlock()
	e.stopReq.Store(true)
	e.finishFromTransport()
}

// Err returns the transport failure that aborted the run, or nil. A
// non-nil Err means Wait returned without global convergence (a peer
// process died or its connection dropped).
func (e *Engine) Err() error {
	e.runErrMu.Lock()
	defer e.runErrMu.Unlock()
	return e.runErr
}

// ClusterStats federates EngineStats across the whole job: it polls every
// peer process over the transport's stats verb (bounded by timeout per
// round trip) and returns one node-labeled snapshot per process, this one
// included. Single-process transports return just the local snapshot.
// Peers that fail to answer within the timeout are simply absent from the
// result — the caller can tell by the node labels present.
func (e *Engine) ClusterStats(timeout time.Duration) []NodeEngineStats {
	return e.tr.clusterStats(timeout)
}

// wakeAll nudges every rank to re-examine snapshot duty / termination.
func (e *Engine) wakeAll() {
	for _, r := range e.ranks {
		r.inbox.poke()
	}
}

func (e *Engine) checkAlgo(algo int) {
	if algo < 0 || algo >= len(e.programs) {
		panic(fmt.Sprintf("core: algo %d out of range (have %d programs)", algo, len(e.programs)))
	}
}

// QueryResult is the answer to a local-state observation.
type QueryResult struct {
	// Value is the vertex's state for the queried program (Unset if the
	// vertex does not exist yet).
	Value uint64
	// Exists reports whether the vertex has materialized.
	Exists bool
}

// QueryLocal observes the local state of vertex v for program algo
// (§III-E): during a run the request is served by the owning rank between
// events, in constant time and causally consistent with that vertex's
// history; before Start or after termination it reads the state directly.
func (e *Engine) QueryLocal(algo int, v graph.VertexID) QueryResult {
	e.checkAlgo(algo)
	if !e.started.Load() || e.finished.Load() || e.simManual {
		// Under SimDriver control there are no rank goroutines to serve the
		// request; the single driving goroutine reads the state directly,
		// which is exactly as consistent (every instant is an event
		// boundary).
		return e.directQuery(algo, v)
	}
	r := e.ranks[e.part.Owner(v)]
	req := queryReq{algo: uint8(algo), v: v, reply: make(chan QueryResult, 1)}
	r.pushQuery(req)
	select {
	case res := <-req.reply:
		return res
	case <-e.done:
		// The rank may have answered while it drained on exit.
		select {
		case res := <-req.reply:
			return res
		default:
			return e.directQuery(algo, v)
		}
	}
}

func (e *Engine) directQuery(algo int, v graph.VertexID) QueryResult {
	r := e.ranks[e.part.Owner(v)]
	slot, ok := r.store.SlotOf(v)
	if !ok {
		return QueryResult{}
	}
	vals := r.values[algo]
	if int(slot) >= len(vals) {
		return QueryResult{Exists: true}
	}
	return QueryResult{Value: vals[slot], Exists: true}
}

// VertexValue pairs a vertex with its algorithm state.
type VertexValue struct {
	ID  graph.VertexID
	Val uint64
}

// Collect gathers the complete state of program algo once the engine's
// evolution is paused or concluded (before Start, while Paused, or after
// termination), sorted by vertex ID. For collection while the engine runs,
// use SnapshotAsync.
func (e *Engine) Collect(algo int) []VertexValue {
	e.checkAlgo(algo)
	if !e.mayInspect() {
		panic("core: Collect during a run; Pause first or use SnapshotAsync")
	}
	var out []VertexValue
	for _, r := range e.ranks {
		vals := r.values[algo]
		r.store.ForEachVertex(func(slot graph.Slot, id graph.VertexID) bool {
			var v uint64
			if int(slot) < len(vals) {
				v = vals[slot]
			}
			out = append(out, VertexValue{ID: id, Val: v})
			return true
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// CollectMap is Collect as a map.
func (e *Engine) CollectMap(algo int) map[graph.VertexID]uint64 {
	pairs := e.Collect(algo)
	m := make(map[graph.VertexID]uint64, len(pairs))
	for _, p := range pairs {
		m[p.ID] = p.Val
	}
	return m
}
