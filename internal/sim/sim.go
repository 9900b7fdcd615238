// Package sim is a deterministic single-goroutine simulation of the
// engine: a seeded PRNG scheduler owns every scheduling choice the
// concurrent engine leaves to the Go runtime — which rank ingests next,
// which mailbox lane drains, when outbound buffers flush, when snapshot
// duties run, and when control-plane operations (init, snapshot, pause,
// resume, checkpoint) interleave. A run is exactly reproducible from its
// (graph seed, schedule seed) pair, which makes three things possible
// that the concurrent engine cannot offer: exploring adversarial
// schedules far outside what the Go scheduler produces, replaying any
// failure from two integers, and checking internal invariants
// (per-sender FIFO, monotone state descent, in-flight-ring conservation,
// snapshot-version consistency) at every single step.
//
// The differential part compares the converged state of every run
// against a from-scratch static recomputation — exactly the REMO claim
// of the paper (§III-A): a recursive, monotone program converges to the
// same result under any fully-asynchronous schedule with pairwise-FIFO
// delivery. Mid-run snapshots are checked against the two recomputations
// that bound them (see compareSnapshot), and mid-run checkpoints must
// round-trip bit-for-bit.
package sim

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"

	"incregraph/internal/core"
	"incregraph/internal/graph"
	"incregraph/internal/stream"
)

// Mutation selects a deliberate engine defect, injected to prove the
// harness detects the failure class (mutation testing of the checker).
type Mutation uint8

const (
	// MutateNone runs the engine unmodified.
	MutateNone Mutation = iota
	// MutateFIFO reorders flushed batches after the FIFO observer records
	// the true order — per-sender FIFO delivery is silently broken.
	MutateFIFO
	// MutateCombine replaces the coalescer's combine with a keep-worse
	// merge — coalescing silently discards algorithmic progress.
	MutateCombine
	// MutateSkipInvalidate disables the witness classification on deletes:
	// edges leave the topology but the values they supported are never
	// invalidated. The post-delete differential oracle must catch the
	// stale state this leaves behind (requires Config.Deletes > 0).
	MutateSkipInvalidate
	// MutateUncertifiedRewitness lets an unsafe delete re-point its doomed
	// witness at any local neighbour whose offer reproduces the lane,
	// skipping the generation check and the witness-chain walk. Mutually
	// supporting neighbours then keep a value nothing grounds; the
	// post-delete differential oracle must catch it (requires
	// Config.Deletes > 0 and a witness program).
	MutateUncertifiedRewitness
)

// Config parameterizes one simulated run.
type Config struct {
	Algo         Algo
	GraphSeed    int64
	ScheduleSeed int64
	// Ranks is the simulated rank count (default 2).
	Ranks int
	// NoCoalesce disables update coalescing, exercising the raw path.
	NoCoalesce bool
	// Vertices and Events bound the generated world (defaults 28 / 160);
	// MaxWeight bounds edge weights (default 4).
	Vertices  int
	Events    int
	MaxWeight int
	// BatchSize overrides the engine's outbound batch threshold (0 =
	// engine default).
	BatchSize int
	// Snapshots is how many asynchronous snapshots the scheduler requests
	// and differentially checks (default 1; forced to 0 when Deletes > 0 —
	// the snapshot sandwich assumes an add-only prefix order).
	Snapshots int
	// Deletes is the churn budget: how many scheduler actions may mutate
	// the live stream with an edge deletion (or, occasionally, a re-add of
	// a previously deleted pair). 0 keeps the classic add-only run. With
	// deletes the base adds move to per-pair-keyed appendable streams, the
	// final differential oracle becomes a static recompute over the
	// surviving edge multiset, and the mid-run regression checks that
	// assume monotone-only progress are relaxed (see checker.churn).
	Deletes int
	// Edges, when non-empty, replaces the generated edge stream (used by
	// the fuzz target to let the fuzzer shape the graph directly).
	Edges []graph.Edge
	// Mutation injects a deliberate defect (mutation testing).
	Mutation Mutation
	// SampleEvery and LineageKeep pass through to the engine's cascade
	// sampler (0 = engine defaults, negative SampleEvery disables). The
	// checker validates every completed lineage tree against the events it
	// actually observed being processed.
	SampleEvery int
	LineageKeep int
	// LoopbackNodes splits the rank space over this many simulated
	// processes connected by the deterministic loopback transport: every
	// cross-"process" batch round-trips through the real wire codec
	// (current wireVersion, trace tags included) and the lineage
	// completion protocol runs its cross-process stitching path — all
	// inside the single scheduler goroutine, so runs stay exactly
	// replayable. Ranks must divide evenly. 0 or 1 keeps the in-process
	// transport.
	LoopbackNodes int
	// Serve enables the MVCC read plane: the scheduler gains epoch-advance
	// and per-rank publish actions (StartSim never runs the production
	// ticker, so epoch timing is fully schedule-controlled), samples
	// lock-free reads between steps, and the checker sandwiches every
	// served value between its owner's publish-time quiescent-prefix
	// fixpoint and the full-stream fixpoint. After Finish, a forced
	// publish must make the plane agree with Collect exactly.
	Serve bool
}

func (c Config) withDefaults() Config {
	if c.Ranks <= 0 {
		c.Ranks = 2
	}
	if c.Vertices <= 0 {
		c.Vertices = 28
	}
	if c.Events <= 0 {
		c.Events = 160
	}
	if c.MaxWeight <= 0 {
		c.MaxWeight = 4
	}
	if c.Snapshots == 0 {
		c.Snapshots = 1
	}
	if c.Snapshots < 0 || c.Deletes > 0 {
		c.Snapshots = 0
	}
	// A loopback run simulates a multi-process cluster, where snapshots are
	// not supported (their REVERSE_ADD_PREV dual-run events never cross the
	// wire — the codec rejects them, by design).
	if c.LoopbackNodes > 1 {
		c.Snapshots = 0
	}
	return c
}

// Result is the deterministic outcome of one run: identical for identical
// (GraphSeed, ScheduleSeed, Config).
type Result struct {
	// Violations lists every invariant or differential failure (empty for
	// a clean run).
	Violations []string
	// Steps is how many scheduler choices the run made.
	Steps int
	// EventsProcessed counts events delivered through rank processing.
	EventsProcessed int
	// Merges counts coalescer combines observed.
	Merges int
	// SnapshotsChecked and CheckpointsChecked count the mid-run
	// consistency points that were differentially verified.
	SnapshotsChecked   int
	CheckpointsChecked int
	// Lineages holds the completed cascade lineage trees the engine
	// retained, each validated against the checker's processing record.
	// The wall-clock fields (Latency, StartUnixNanos) are zeroed so the
	// whole Result keeps its exact-replay contract.
	// LatencySamples is the ingest-to-quiescence histogram's sample count.
	Lineages       []core.Lineage
	LatencySamples uint64
	// ServeReads and ServePublishes count the read-plane observations the
	// scheduler sampled and the publish steps it drove (zero when
	// Config.Serve is off) — the vacuity guards for the serve checker.
	ServeReads     int
	ServePublishes int
	// Deletes counts the edge deletions the scheduler streamed (the
	// vacuity guard for the churn oracle — zero on add-only runs).
	Deletes int
	// Rewitnessed counts the unsafe deletions the engine resolved by
	// re-pointing witnesses instead of flooding (the vacuity guard for
	// the certificate — zero on add-only runs).
	Rewitnessed uint64
	// Final is the converged state of the single program.
	Final map[graph.VertexID]uint64
}

// Failed reports whether the run recorded any violation.
func (r Result) Failed() bool { return len(r.Violations) > 0 }

// The scheduler's action alphabet. Every step, all currently-enabled
// actions are enumerated in a fixed order and the schedule PRNG picks one.
type actKind uint8

const (
	actPull       actKind = iota // rank ingests one topology event
	actDrain                     // rank drains one mailbox lane
	actSelf                      // rank processes one self-ring event
	actFlush                     // rank flushes one outbound buffer
	actChores                    // rank advances its snapshot duties
	actInit                      // issue the next InitVertex
	actSnap                      // request an asynchronous snapshot
	actPause                     // halt ingestion (simulated pause)
	actResume                    // resume ingestion
	actCkpt                      // checkpoint round-trip at a paused quiescent cut
	actServeEpoch                // advance the read plane's epoch (bounded budget)
	actServePub                  // rank publishes its due serve segment
	actDelete                    // stream one churn event (delete or re-add)
)

type action struct {
	kind actKind
	rank int
	arg  int // lane for actDrain, dest for actFlush
}

// Run executes one simulated run and returns its deterministic Result. An
// engine panic (an invariants-build assertion, or a plain bug) ends the run
// with a "panic:" violation instead of taking the test binary down.
// simSmallCap is the degree past which a simulated vertex's adjacency is
// indexed: far below the engine default, so the small simulated worlds
// build, grow and drop position indexes between scheduler steps.
const simSmallCap = 4

func Run(cfg Config) (res Result) {
	cfg = cfg.withDefaults()
	sp := specFor(cfg.Algo)
	w := genWorld(cfg, rand.New(rand.NewSource(cfg.GraphSeed)))
	srng := rand.New(rand.NewSource(cfg.ScheduleSeed))

	chk := newChecker(sp.ord, cfg.Ranks)
	defer func() {
		if p := recover(); p != nil {
			chk.violatef("panic: %v", p)
			res = Result{Violations: chk.violations, EventsProcessed: chk.processed}
		}
	}()
	chk.churn = cfg.Deletes > 0
	chk.multiProc = cfg.LoopbackNodes > 1
	opts := core.Options{
		Ranks:        cfg.Ranks,
		Undirected:   true,
		WeightPolicy: sp.weight,
		BatchSize:    cfg.BatchSize,
		NoCoalesce:   cfg.NoCoalesce,
		SampleEvery:  cfg.SampleEvery,
		LineageKeep:  cfg.LineageKeep,
		Serve:        cfg.Serve,
		SmallCap:     simSmallCap,
	}
	if cfg.LoopbackNodes > 1 {
		opts.Transport = core.NewLoopbackTransport(cfg.LoopbackNodes)
	}
	e := core.New(opts, monitor(sp.prog(w), chk))
	// With churn the base adds move onto appendable streams keyed by pair,
	// so a pair's delete rides the same totally-ordered stream as the add
	// it revokes (the engine's delete ordering obligation).
	var ch *churnState
	srcStreams := stream.Split(w.edges, cfg.Ranks)
	if cfg.Deletes > 0 {
		ch = newChurnState(w.edges, cfg.Ranks, cfg.Deletes)
		srcStreams = ch.churnStreams()
	}
	d, err := e.StartSim(srcStreams)
	if err != nil {
		chk.violatef("start: %v", err)
		return Result{Violations: chk.violations}
	}
	chk.d = d
	chk.owner = d.Owner
	d.SetFlushHook(chk.onFlush)
	d.SetMergeHook(chk.onMerge)
	switch cfg.Mutation {
	case MutateFIFO:
		d.SetBatchMutation(func(batch []core.Event) {
			if len(batch) > 1 {
				batch[0], batch[len(batch)-1] = batch[len(batch)-1], batch[0]
			}
		})
	case MutateCombine:
		d.SetCombine(0, worseCombine(sp.ord))
	case MutateSkipInvalidate:
		d.SetSkipInvalidate(true)
	case MutateUncertifiedRewitness:
		d.SetUncertifiedRewitness(true)
	}

	// Query sampling space: every endpoint and source, plus one fresh ID.
	span := 2
	for _, ed := range w.edges {
		if int(ed.Src)+2 > span {
			span = int(ed.Src) + 2
		}
		if int(ed.Dst)+2 > span {
			span = int(ed.Dst) + 2
		}
	}
	for _, s := range w.sources {
		if int(s)+2 > span {
			span = int(s) + 2
		}
	}

	var (
		pulled    []graph.EdgeEvent // topology events pulled so far, in pull order
		initQueue = sp.inits(w)     // InitVertex calls still to issue
		initsDone []graph.VertexID  // InitVertex calls issued
		curSnap   *core.Snapshot
		snapEdges []graph.Edge // ingestion prefix at the snapshot request
		snapInits []graph.VertexID
		snapsLeft = cfg.Snapshots
		paused    = false
		pauseLeft = 2
		ckptLeft  = 1
		acts      []action
		// Read-plane scheduling state: a bounded epoch budget (so the
		// action set eventually drains), the ingestion-prefix lengths at
		// the last globally-quiescent cut, and a memoized fixpoint of that
		// prefix for publish-time floors.
		epochsLeft             = 0
		quietEdges, quietInits = 0, 0
		floorEdges, floorInits = -1, -1
		floorOracle            map[graph.VertexID]uint64
	)
	if cfg.Serve {
		epochsLeft = 4
	}

	enumerate := func() []action {
		acts = acts[:0]
		if len(initQueue) > 0 && !paused {
			acts = append(acts, action{kind: actInit})
		}
		if snapsLeft > 0 && curSnap == nil {
			acts = append(acts, action{kind: actSnap})
		}
		// The first half of the churn budget races the adds ahead of it;
		// the rest is offered only at a quiescent cut, so deletes also
		// meet settled witnesses.
		if ch != nil && ch.budget > 0 && !paused && (ch.budget > cfg.Deletes/2 || d.Idle()) {
			acts = append(acts, action{kind: actDelete})
		}
		if epochsLeft > 0 {
			acts = append(acts, action{kind: actServeEpoch})
		}
		if paused {
			acts = append(acts, action{kind: actResume})
			if ckptLeft > 0 && curSnap == nil && d.Idle() {
				acts = append(acts, action{kind: actCkpt})
			}
		} else if pauseLeft > 0 {
			acts = append(acts, action{kind: actPause})
		}
		for r := 0; r < cfg.Ranks; r++ {
			if !paused && !d.StreamDone(r) {
				acts = append(acts, action{kind: actPull, rank: r})
			}
			for lane := 0; lane < d.Lanes(); lane++ {
				if d.LanePending(r, lane) > 0 {
					acts = append(acts, action{kind: actDrain, rank: r, arg: lane})
				}
			}
			if d.SelfPending(r) > 0 {
				acts = append(acts, action{kind: actSelf, rank: r})
			}
			for dest := 0; dest < cfg.Ranks; dest++ {
				if d.OutboundLen(r, dest) > 0 {
					acts = append(acts, action{kind: actFlush, rank: r, arg: dest})
				}
			}
			if d.SnapshotChoresPending(r) {
				acts = append(acts, action{kind: actChores, rank: r})
			}
			if d.ServePublishDue(r) {
				acts = append(acts, action{kind: actServePub, rank: r})
			}
		}
		return acts
	}

	// Upper bound for snapshot and serve checks: the fully-converged state
	// over the whole stream and every init the run will issue. Sound under
	// churn too: deletions only take progress away, and churn re-adds reuse
	// weights the base stream already offered, so no reachable state is
	// ever more converged than the all-adds fixpoint.
	var fullOracle map[graph.VertexID]uint64
	if cfg.Serve {
		if !d.ServeEnabled() {
			chk.violatef("serve: Options.Serve set but the driver reports the plane disabled")
		}
		fullOracle = sp.oracle(w, w.edges, sp.inits(w))
		chk.fullOracle = fullOracle
	}
	stepLimit := 1000*len(w.edges) + 10000
	for {
		if curSnap != nil && curSnap.Ready() {
			if fullOracle == nil {
				fullOracle = sp.oracle(w, w.edges, sp.inits(w))
			}
			compareSnapshot(chk, fmt.Sprintf("snapshot@%d", curSnap.Marker()),
				curSnap.AsMap(), sp.oracle(w, snapEdges, snapInits), fullOracle, sp)
			res.SnapshotsChecked++
			curSnap = nil
		}
		enabled := enumerate()
		if len(enabled) == 0 {
			if curSnap != nil {
				chk.violatef("schedule: snapshot at marker %d can make no further progress", curSnap.Marker())
			}
			break
		}
		if res.Steps >= stepLimit {
			chk.violatef("schedule: step limit %d exceeded with %d actions still enabled (livelock?)",
				stepLimit, len(enabled))
			break
		}
		// A lane drain processes a whole batch, so steps alone do not bound
		// event volume: an engine bug that amplifies cascades without limit
		// (a delete-protocol ping-pong, say) would explode inside a bounded
		// number of steps. Cap total processed events too.
		if chk.processed > 200*stepLimit {
			chk.violatef("schedule: %d events processed within %d steps (cascade amplification?)",
				chk.processed, res.Steps)
			break
		}
		res.Steps++
		act := enabled[srng.Intn(len(enabled))]
		switch act.kind {
		case actPull:
			if ev, ok := d.PullStream(act.rank); ok {
				pulled = append(pulled, graph.EdgeEvent{
					Edge:   graph.Edge{Src: ev.To, Dst: ev.From, W: ev.W},
					Delete: ev.Kind == core.KindDelete,
				})
			}
		case actDelete:
			ch.step(srng.Intn)
		case actDrain:
			rank, lane := act.rank, act.arg
			d.DrainLane(rank, lane, func(ev core.Event) { chk.onProcess(rank, lane, ev) })
		case actSelf:
			rank := act.rank
			d.StepSelf(rank, func(ev core.Event) { chk.onProcess(rank, -1, ev) })
		case actFlush:
			d.Flush(act.rank, act.arg)
		case actChores:
			d.SnapshotChores(act.rank)
		case actInit:
			v := initQueue[0]
			initQueue = initQueue[1:]
			e.InitVertex(0, v)
			initsDone = append(initsDone, v)
		case actSnap:
			snapEdges = edgesOf(pulled)
			snapInits = append([]graph.VertexID(nil), initsDone...)
			curSnap = e.SnapshotAsync(0)
			snapsLeft--
		case actPause:
			paused = true
			pauseLeft--
		case actResume:
			paused = false
		case actCkpt:
			ckptLeft--
			if checkpointRoundTrip(chk, "paused", e, sp, w, uint64(len(pulled))) {
				res.CheckpointsChecked++
			}
		case actServeEpoch:
			epochsLeft--
			d.ServeAdvance()
		case actServePub:
			// The published segment is the rank's live values, which
			// monotonically subsume the fixpoint of the last quiescent
			// prefix — record that fixpoint as the rank's serving floor.
			// (Sound for restamps too: a restamp means the rank processed
			// nothing since its last publish, so segment == live values.)
			// Churn runs record no floor: a delete after the quiescent cut
			// legitimately pushes served values back below its fixpoint.
			if err := d.ServePublish(act.rank); err != nil {
				chk.violatef("%v", err)
			}
			if ch == nil {
				if quietEdges != floorEdges || quietInits != floorInits {
					floorEdges, floorInits = quietEdges, quietInits
					floorOracle = sp.oracle(w, edgesOf(pulled[:floorEdges]), initsDone[:floorInits])
				}
				chk.serveFloor[act.rank] = floorOracle
			}
			res.ServePublishes++
		}
		chk.afterStep()
		// At each quiescent cut every store's position indexes must agree
		// with its arrays (checked in invariants builds only).
		idle := d.Idle()
		if idle {
			if err := d.CheckStores(); err != nil {
				chk.violatef("%v", err)
			}
		}
		if srng.Intn(16) == 0 {
			v := graph.VertexID(srng.Intn(span))
			chk.observeQuery(v, e.QueryLocal(0, v))
		}
		if cfg.Serve {
			if idle {
				quietEdges, quietInits = len(pulled), len(initsDone)
			}
			if srng.Intn(8) == 0 {
				v := graph.VertexID(srng.Intn(span))
				val, epoch := e.ReadPoint(0, v)
				chk.observeServe(v, val, epoch)
			}
		}
	}

	if err := d.Finish(); err != nil {
		chk.violatef("finish: %v", err)
	}
	expected := len(w.edges)
	if ch != nil {
		expected += ch.appended
		res.Deletes = ch.deletes
		res.Rewitnessed = e.EngineStats().Rewitnessed
	}
	if len(pulled) != expected {
		chk.violatef("ingest: pulled %d of %d stream events", len(pulled), expected)
	}
	if got := e.Ingested(); got != uint64(len(pulled)) {
		chk.violatef("ingest: engine counted %d ingested events, scheduler saw %d", got, len(pulled))
	}
	final := e.CollectMap(0)
	finalOracle := sp.oracle(w, edgesOf(pulled), initsDone)
	if ch != nil {
		finalOracle = churnFinalOracle(sp, w, pulled, initsDone)
	}
	compareStates(chk, "final", final, finalOracle, sp.omitZero)
	chk.finalChecks(final)
	if cfg.Serve {
		// A forced publish at termination (what the concurrent engine's
		// exit() does) must make the read plane agree with Collect exactly
		// — no staleness left once ingestion has quiesced for good.
		for r := 0; r < cfg.Ranks; r++ {
			if err := d.ServePublish(r); err != nil {
				chk.violatef("serve-final: %v", err)
			}
			res.ServePublishes++
		}
		servedFinal := make(map[graph.VertexID]uint64, len(final))
		for v := range final {
			if val, epoch := e.ReadPoint(0, v); val.Found {
				servedFinal[v] = val.Val
				if epoch == 0 {
					chk.violatef("serve-final: vertex %d served at epoch 0 after the final publish", v)
				}
			}
		}
		compareStates(chk, "serve-final", servedFinal, final, false)
		phantom := graph.VertexID(span) + 1000
		if val, _ := e.ReadPoint(0, phantom); val.Found {
			chk.violatef("serve-final: never-created vertex %d is served as found", phantom)
		}
		res.ServeReads = chk.serveReads
	}
	res.Lineages = e.Lineages()
	for i := range res.Lineages {
		res.Lineages[i].Latency = 0
		res.Lineages[i].StartUnixNanos = 0
	}
	res.LatencySamples = e.EngineStats().Latency.IngestToQuiesce.Count
	chk.checkLineages(res.Lineages)
	if checkpointRoundTrip(chk, "end", e, sp, w, uint64(len(pulled))) {
		res.CheckpointsChecked++
	}

	res.Violations = chk.violations
	res.EventsProcessed = chk.processed
	res.Merges = chk.merges
	res.Final = final
	return res
}

// worseCombine is the MutateCombine defect: a merge that keeps the less
// converged of its inputs for the given monotone direction.
func worseCombine(ord order) func(old, new uint64) uint64 {
	switch ord {
	case orderDescend:
		return func(a, b uint64) uint64 {
			if normInf(a) >= normInf(b) {
				return a
			}
			return b
		}
	case orderAscend:
		return func(a, b uint64) uint64 {
			if a <= b {
				return a
			}
			return b
		}
	default: // orderBits: intersection instead of union
		return func(a, b uint64) uint64 { return a & b }
	}
}

// bottom returns the least-converged value of a monotone direction.
func bottom(ord order) uint64 {
	if ord == orderDescend {
		return core.Infinity
	}
	return 0
}

// compareSnapshot checks an asynchronous snapshot against the two static
// recomputations that bound it. The snapshot protocol tags every child
// event with its parent's sequence while payload values are read from
// live state, so a pre-marker event processed late can carry post-marker
// progress into the previous version: the collected cut is therefore not
// the exact prefix fixpoint, but it is always sandwiched — at least as
// converged as the prefix recompute (the dual-run replays the whole
// prefix cascade against previous-version state and edges) and no more
// converged than the full-stream recompute (every transported value is
// derived from real edges). Vertices must come from the full vertex set,
// and every prefix vertex must be present (zero-valued ones may be
// omitted for programs whose snapshots skip never-reached vertices).
func compareSnapshot(chk *checker, tag string, snap, prefix, full map[graph.VertexID]uint64, sp spec) {
	keys := make([]graph.VertexID, 0, len(snap)+len(prefix))
	for v := range snap {
		keys = append(keys, v)
	}
	for v := range prefix {
		if _, ok := snap[v]; !ok {
			keys = append(keys, v)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, v := range keys {
		sv, inSnap := snap[v]
		pv, inPrefix := prefix[v]
		if !inPrefix {
			pv = bottom(sp.ord)
		}
		if !inSnap {
			if sp.omitZero && pv == 0 {
				continue
			}
			chk.violatef("%s: vertex %d missing (prefix recompute has %d)", tag, v, pv)
			continue
		}
		fv, inFull := full[v]
		if !inFull {
			chk.violatef("%s: vertex %d (value %d) does not exist in the full-stream state", tag, v, sv)
			continue
		}
		if !sp.ord.subsumes(fv, sv) {
			chk.violatef("%s: vertex %d at %d is ahead of the full-stream fixpoint %d", tag, v, sv, fv)
		}
		if !sp.ord.subsumes(sv, pv) {
			chk.violatef("%s: vertex %d at %d is behind the prefix fixpoint %d", tag, v, sv, pv)
		}
	}
}

// compareStates differentially compares an engine-produced state against
// an oracle. With omitZero, a vertex absent on one side and zero-valued
// (Unset) on the other is not a divergence — the engine legitimately
// omits never-reached vertices from snapshots for such programs.
func compareStates(chk *checker, tag string, got, want map[graph.VertexID]uint64, omitZero bool) {
	keys := make([]graph.VertexID, 0, len(want)+len(got))
	for v := range want {
		keys = append(keys, v)
	}
	for v := range got {
		if _, ok := want[v]; !ok {
			keys = append(keys, v)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, v := range keys {
		gv, inGot := got[v]
		wv, inWant := want[v]
		switch {
		case inGot && inWant:
			if gv != wv {
				chk.violatef("%s: vertex %d diverged: engine %d, oracle %d", tag, v, gv, wv)
			}
		case inWant:
			if omitZero && wv == 0 {
				continue
			}
			chk.violatef("%s: vertex %d missing from engine state (oracle %d)", tag, v, wv)
		default:
			if omitZero && gv == 0 {
				continue
			}
			chk.violatef("%s: vertex %d (value %d) should not exist per oracle", tag, v, gv)
		}
	}
}

// checkpointRoundTrip serializes the engine at the current cut, loads it
// into a fresh engine, and verifies the metadata and the reloaded state
// match exactly. Legal whenever the simulated engine is between steps.
func checkpointRoundTrip(chk *checker, tag string, e *core.Engine, sp spec, w *world, ingested uint64) bool {
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		chk.violatef("checkpoint(%s): write: %v", tag, err)
		return false
	}
	loaded, err := core.ReadCheckpoint(&buf, core.Options{}, sp.prog(w))
	if err != nil {
		chk.violatef("checkpoint(%s): read back: %v", tag, err)
		return false
	}
	if got := loaded.CheckpointMeta().Ingested; got != ingested {
		chk.violatef("checkpoint(%s): metadata records %d ingested, run had %d", tag, got, ingested)
	}
	compareStates(chk, "checkpoint("+tag+")", loaded.CollectMap(0), e.CollectMap(0), false)
	return true
}
