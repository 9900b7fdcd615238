package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"incregraph/internal/graph"
)

// Engine instrumentation: every rank owns one padded rankCounters block and
// is the only writer of it, so the hot path pays a single uncontended
// atomic add per event. Aggregation (Engine.EngineStats) reads the counters
// with atomic loads from any goroutine, in any lifecycle state, including
// mid-Pause — the result is a racy-by-design snapshot: each counter is
// individually exact, but the set is not a consistent cut unless the engine
// is quiescent (see DESIGN.md "Observability").

// numKinds is the number of event kinds counted per rank (KindAdd through
// KindInvalidate).
const numKinds = int(KindInvalidate) + 1

// rankCounters is one rank's always-on counter block. The leading and
// trailing padding keeps adjacent ranks' counters on distinct cache lines
// so the per-event adds never false-share.
type rankCounters struct {
	_ [64]byte // padding: isolate from the previous rank's block

	// eventCounts is the rank's share of the termination count: events it
	// created (pulls and emits) and finished, and its stream pulls.
	eventCounts
	// events counts processed events by kind.
	events [numKinds]atomic.Uint64
	// cascadeEmits counts events generated by program callbacks and the
	// undirected-edge protocol (everything routed through rank.emit).
	cascadeEmits atomic.Uint64
	// batchesDrained counts non-empty mailbox drains.
	batchesDrained atomic.Uint64
	// queriesServed counts local-state observations answered.
	queriesServed atomic.Uint64
	// snapshotParts counts snapshot shard contributions.
	snapshotParts atomic.Uint64
	// parkedNanos accumulates time spent parked at the pause barrier.
	parkedNanos atomic.Int64
	// selfDelivered counts events routed through the self-delivery ring
	// (bypassing the mailbox); combinedAway counts UPDATE events merged
	// into an already-buffered one by monotone coalescing (emitted but
	// never delivered).
	selfDelivered atomic.Uint64
	combinedAway  atomic.Uint64
	// sentTo[dest] counts events handed to dest's mailbox; flushesTo[dest]
	// counts the push calls that carried them (sentTo/flushesTo is the
	// achieved batching factor).
	sentTo    []atomic.Uint64
	flushesTo []atomic.Uint64
	// tuneAdjusts counts auto-tune controller decisions that changed a
	// knob; effBatch mirrors the rank's current effective batch size for
	// cross-goroutine stats reads (the rank itself reads its plain field).
	tuneAdjusts atomic.Uint64
	effBatch    atomic.Uint64
	// rewitnessed counts unsafe deletion endpoints resolved without a
	// cascade: every doomed lane re-pointed at a certified parent or held
	// its own seed.
	rewitnessed atomic.Uint64

	_ [64]byte // padding: isolate from whatever is allocated next
}

func newRankCounters(ranks int) *rankCounters {
	return &rankCounters{
		sentTo:    make([]atomic.Uint64, ranks),
		flushesTo: make([]atomic.Uint64, ranks),
	}
}

// EventCounts breaks processed events down by kind.
type EventCounts struct {
	Adds           uint64
	ReverseAdds    uint64
	Updates        uint64
	Inits          uint64
	Deletes        uint64
	ReverseDeletes uint64
	Signals        uint64
	Invalidates    uint64
}

// Topo returns the topology-event share (ADD + DELETE — the paper's "edge
// events", the denominator of its headline rate).
func (c EventCounts) Topo() uint64 { return c.Adds + c.Deletes }

// Algo returns the algorithmic-event share.
func (c EventCounts) Algo() uint64 {
	return c.ReverseAdds + c.Updates + c.Inits + c.ReverseDeletes + c.Signals +
		c.Invalidates
}

// Total returns all processed events.
func (c EventCounts) Total() uint64 { return c.Topo() + c.Algo() }

func (c *EventCounts) add(o EventCounts) {
	c.Adds += o.Adds
	c.ReverseAdds += o.ReverseAdds
	c.Updates += o.Updates
	c.Inits += o.Inits
	c.Deletes += o.Deletes
	c.ReverseDeletes += o.ReverseDeletes
	c.Signals += o.Signals
	c.Invalidates += o.Invalidates
}

// RankEngineStats is one rank's share of an EngineStats snapshot.
type RankEngineStats struct {
	Rank   int
	Events EventCounts
	// CascadeEmits is the number of events this rank's processing generated
	// (reverse notifications and recursive updates).
	CascadeEmits uint64
	// BatchesDrained counts non-empty mailbox drains; MailboxHWM is the
	// deepest the inbound queue has ever been; MailboxDepth is its current
	// approximate depth (a lag gauge, not a counter).
	BatchesDrained uint64
	MailboxHWM     uint64
	MailboxDepth   int64
	// QueriesServed / SnapshotParts count control-plane work.
	QueriesServed uint64
	SnapshotParts uint64
	// ParkedTime is cumulative time spent at the pause barrier.
	ParkedTime time.Duration
	// SelfDelivered counts events this rank delivered to itself through
	// the mailbox-bypassing fast path; CombinedAway counts UPDATE events
	// coalesced into an already-buffered one (never delivered at all).
	SelfDelivered uint64
	CombinedAway  uint64
	// SentTo[d] / FlushesTo[d] count outbound events and mailbox pushes per
	// destination rank.
	SentTo    []uint64
	FlushesTo []uint64
	// EffBatch is the rank's current effective batch size (== the
	// configured BatchSize unless auto-tune moved it); TuneAdjusts counts
	// auto-tune decisions that changed a knob on this rank.
	EffBatch    uint64
	TuneAdjusts uint64
	// Rewitnessed counts the rank's unsafe deletion endpoints that kept
	// their value by re-pointing the doomed witness instead of flooding.
	Rewitnessed uint64
	// Storage is the rank's adjacency-store counters.
	Storage StorageStats
}

// StorageStats is the adjacency store's counter view (see
// graph.StorageStats for the per-counter semantics).
type StorageStats = graph.StorageStats

// EngineStats is an on-demand aggregate of the engine's live counters. It
// is legal to take in every lifecycle state — Idle, Running, mid-Pause,
// Paused, Stopped — and never blocks event processing. Taken after
// termination it is the run report Wait returns.
type EngineStats struct {
	// State is the lifecycle state at aggregation time.
	State State
	// Uptime is the time since Start (0 before Start); once the engine has
	// stopped it is frozen at Start to finish, the run's duration.
	Uptime time.Duration
	// Ranks is the configured rank count.
	Ranks int
	// Ingested is the number of topology events pulled from streams.
	Ingested uint64
	// Events sums per-kind processed-event counts over all ranks.
	Events EventCounts
	// MessagesSent / Flushes total the inter-rank traffic; CascadeEmits
	// totals callback-generated events. SelfDelivered counts events that
	// skipped the mailbox via the self-delivery fast path (they are not in
	// MessagesSent); CombinedAway counts UPDATEs eliminated by monotone
	// coalescing before any delivery.
	MessagesSent  uint64
	Flushes       uint64
	CascadeEmits  uint64
	SelfDelivered uint64
	CombinedAway  uint64
	// BatchesDrained totals non-empty mailbox drains; MailboxHWM is the
	// max high-water mark over all ranks' inbound queues; MailboxDepth is
	// the current total inbound queue depth (approximate).
	BatchesDrained uint64
	MailboxHWM     uint64
	MailboxDepth   int64
	// Rewitnessed counts unsafe deletions resolved without an invalidation
	// cascade, one per endpoint (DELETE or REVERSE_DELETE) that had a
	// doomed witness lane: each doomed lane re-pointed at a certified
	// parent on the same rank, or already held its own seed.
	Rewitnessed uint64
	// InFlight is the events buffered, queued, or mid-processing right now
	// (created minus done, with a TCP node's received minus sent events).
	// Together with IngestLag it is the engine's lag gauge.
	InFlight int64
	// QueriesServed and SnapshotParts total control-plane work;
	// SnapshotsTaken counts SnapshotAsync requests.
	QueriesServed  uint64
	SnapshotParts  uint64
	SnapshotsTaken uint64
	// ParkedTime sums every rank's time at the pause barrier.
	ParkedTime time.Duration
	// Latency aggregates the per-rank latency histograms and the cascade
	// sampler's accounting (see hist.go and lineage.go).
	Latency LatencyStats
	// Transport describes the active update plane: its kind, this
	// process's place in the cluster, and per-peer sent/received/acked
	// event counters (see transport.go).
	Transport TransportStats
	// Flight summarizes the protocol-level flight recorder and the stall
	// watchdog (see flight.go).
	Flight FlightStats
	// Serve describes the MVCC read plane: epochs, publications, and
	// per-verb read counts (zero value when Options.Serve is off; the
	// query latency histograms live in Latency.Query*).
	Serve ServeStats
	// Storage totals the adjacency stores' counters over all ranks;
	// AutoTune reports whether the feedback controller is on and
	// TuneAdjusts totals its knob changes.
	Storage     StorageStats
	AutoTune    bool
	TuneAdjusts uint64
	// PerRank breaks the totals down by rank.
	PerRank []RankEngineStats
}

// EventRate returns topology events per second of uptime (0 before Start)
// — after termination, the run's rate: the paper's headline metric.
func (s EngineStats) EventRate() float64 {
	if s.Uptime <= 0 {
		return 0
	}
	return float64(s.Events.Topo()) / s.Uptime.Seconds()
}

// EventSkew returns max/mean of per-rank processed events (1.0 = perfectly
// balanced; 0 if no events were processed) — the load-balance view of the
// paper's partitioning discussion (§III-C): consistent hashing balances
// vertices, but power-law degree skew can still unbalance events.
func (s EngineStats) EventSkew() float64 {
	var hi, sum uint64
	for _, r := range s.PerRank {
		n := r.Events.Total()
		sum += n
		hi = max(hi, n)
	}
	if sum == 0 {
		return 0
	}
	return float64(hi) / (float64(sum) / float64(len(s.PerRank)))
}

// IngestLag returns the topology events pulled from streams but not yet
// applied: Ingested minus Events.Topo(), clamped at 0 because the two
// counters are read at slightly different moments.
func (s EngineStats) IngestLag() uint64 {
	return s.Ingested - min(s.Ingested, s.Events.Topo())
}

// BatchingFactor returns the achieved events-per-push ratio of inter-rank
// traffic (0 if nothing was flushed yet).
func (s EngineStats) BatchingFactor() float64 {
	if s.Flushes == 0 {
		return 0
	}
	return float64(s.MessagesSent) / float64(s.Flushes)
}

func (s EngineStats) String() string {
	return fmt.Sprintf("state=%s uptime=%s ingested=%d topo=%d algo=%d sent=%d self=%d combined=%d hwm=%d queries=%d snaps=%d",
		s.State, s.Uptime.Round(time.Millisecond), s.Ingested,
		s.Events.Topo(), s.Events.Algo(), s.MessagesSent, s.SelfDelivered,
		s.CombinedAway, s.MailboxHWM, s.QueriesServed, s.SnapshotsTaken)
}

// snapshot reads one rank's counter block with atomic loads. Safe from any
// goroutine at any time; the result is a point-in-time view, not a cut.
func (c *rankCounters) snapshot(rank int, hwm uint64) RankEngineStats {
	rs := RankEngineStats{
		Rank: rank,
		Events: EventCounts{
			Adds:           c.events[KindAdd].Load(),
			ReverseAdds:    c.events[KindReverseAdd].Load() + c.events[KindReverseAddPrev].Load(),
			Updates:        c.events[KindUpdate].Load(),
			Inits:          c.events[KindInit].Load(),
			Deletes:        c.events[KindDelete].Load(),
			ReverseDeletes: c.events[KindReverseDelete].Load(),
			Signals:        c.events[KindSignal].Load(),
			Invalidates:    c.events[KindInvalidate].Load(),
		},
		CascadeEmits:   c.cascadeEmits.Load(),
		SelfDelivered:  c.selfDelivered.Load(),
		CombinedAway:   c.combinedAway.Load(),
		BatchesDrained: c.batchesDrained.Load(),
		MailboxHWM:     hwm,
		QueriesServed:  c.queriesServed.Load(),
		SnapshotParts:  c.snapshotParts.Load(),
		ParkedTime:     time.Duration(c.parkedNanos.Load()),
		SentTo:         make([]uint64, len(c.sentTo)),
		FlushesTo:      make([]uint64, len(c.flushesTo)),
		EffBatch:       c.effBatch.Load(),
		TuneAdjusts:    c.tuneAdjusts.Load(),
		Rewitnessed:    c.rewitnessed.Load(),
	}
	for d := range c.sentTo {
		rs.SentTo[d] = c.sentTo[d].Load()
		rs.FlushesTo[d] = c.flushesTo[d].Load()
	}
	return rs
}

// EngineStats aggregates the live per-rank counters into a snapshot. It is
// callable from any goroutine in every lifecycle state (including while a
// Pause is still draining) and never blocks the event loops: each counter
// is read with an atomic load, so the totals are exact per counter but only
// form a consistent cut when the engine is quiescent (Paused, Stopped, or
// idle live streams).
func (e *Engine) EngineStats() EngineStats {
	s := EngineStats{
		State:          e.State(),
		Ranks:          e.opts.Ranks,
		Ingested:       e.Ingested(),
		SnapshotsTaken: e.snapRequests.Load(),
		Transport:      e.tr.transportStats(),
		Flight:         e.flight.stats(),
	}
	if start := e.startNanos.Load(); start != 0 {
		end := e.finishNanos.Load()
		if end == 0 {
			end = time.Now().UnixNano()
		}
		s.Uptime = time.Duration(end - start)
	}
	if e.traces != nil {
		s.Latency.SampleEvery = e.opts.SampleEvery
		s.Latency.Sampled = e.traces.sampled.Load()
		s.Latency.Dropped = e.traces.dropped.Load()
		s.Latency.Active = e.traces.active.Load()
	}
	if e.plane != nil {
		ps := e.plane.StatsSnapshot()
		s.Serve = ServeStats{
			Enabled:        true,
			Epoch:          ps.Epoch,
			PublishedEpoch: ps.PublishedEpoch,
			Publishes:      ps.Publishes,
			Restamps:       ps.Restamps,
			CopiedSlots:    ps.CopiedSlots,
			PointReads:     e.srv.pointReads.Load(),
			BatchReads:     e.srv.batchReads.Load(),
			TopKReads:      e.srv.topkReads.Load(),
			NbhdReads:      e.srv.nbhdReads.Load(),
			ReadVertices:   e.srv.readVertices.Load(),
		}
		s.Latency.QueryPoint = e.srv.point.snapshot()
		s.Latency.QueryBatch = e.srv.batch.snapshot()
		s.Latency.QueryTopK = e.srv.topk.snapshot()
		s.Latency.QueryNbhd = e.srv.nbhd.snapshot()
	}
	for _, n := range e.pending() {
		s.InFlight += n
	}
	s.AutoTune = e.opts.AutoTune
	for i, r := range e.ranks {
		rs := r.counters.snapshot(i, r.inbox.highWater())
		rs.MailboxDepth = r.inbox.depth()
		rs.Storage = r.store.Storage()
		s.Storage.Add(rs.Storage)
		s.TuneAdjusts += rs.TuneAdjusts
		s.MailboxDepth += rs.MailboxDepth
		s.Latency.IngestToQuiesce.add(r.lat.ingest.snapshot())
		s.Latency.MailboxResidency.add(r.lat.mailbox.snapshot())
		s.Latency.BatchDrain.add(r.lat.drain.snapshot())
		s.Latency.FlushInterval.add(r.lat.flushGap.snapshot())
		s.PerRank = append(s.PerRank, rs)
		s.Events.add(rs.Events)
		s.CascadeEmits += rs.CascadeEmits
		s.SelfDelivered += rs.SelfDelivered
		s.CombinedAway += rs.CombinedAway
		s.Rewitnessed += rs.Rewitnessed
		s.BatchesDrained += rs.BatchesDrained
		s.QueriesServed += rs.QueriesServed
		s.SnapshotParts += rs.SnapshotParts
		s.ParkedTime += rs.ParkedTime
		if rs.MailboxHWM > s.MailboxHWM {
			s.MailboxHWM = rs.MailboxHWM
		}
		for d := range rs.SentTo {
			s.MessagesSent += rs.SentTo[d]
			s.Flushes += rs.FlushesTo[d]
		}
	}
	return s
}
