package core

import (
	"fmt"
	"sync/atomic"
	"time"
)

// loopbackTransport simulates a multi-process cluster inside one process:
// the global rank span is split into `procs` equal fake processes, and a
// Send that crosses a fake process boundary takes the real wire path — the
// batch is encoded with appendEventsPayload, decoded with
// parseEventsPayload at the current wire version, and the lineage table's
// wireSend/wireRecv channel accounting runs exactly as it would on a TCP
// node pair — before landing in the destination mailbox synchronously.
//
// Because every rank is Local and no goroutine or socket exists, the
// loopback transport is legal under StartSim: the deterministic scheduler
// keeps ownership of every scheduling decision while the codec and the
// cross-process lineage protocol still execute. That is its purpose — a
// deterministic test plane for cross-rank lineage stitching; it is not a
// performance configuration.
//
// The in-flight ring needs no handover (unlike TCP): sender and receiver
// share the ring, so the decrement-at-enqueue / increment-at-receive pair
// would cancel exactly. Lineage fragments for all fake processes coexist
// in the one traceTable, keyed by (id, proc); fragment reports ship by a
// synchronous handleReport call (frag.mu → slot.mu → table.mu is the legal
// lock chain).
type loopbackTransport struct {
	e        *Engine
	procs    int
	ranksPer int
	// seq numbers the fake wire frames (cheap parity with the TCP codec's
	// per-connection sequencing); frames/events count the crossings. All
	// three are atomic: under Start every rank calls Send concurrently.
	seq    atomic.Uint64
	frames atomic.Uint64
	events atomic.Uint64
}

// NewLoopbackTransport returns a transport that simulates `procs` cluster
// nodes inside one process; the engine's rank count must divide evenly.
// All ranks are local, so it composes with StartSim for deterministic
// replay of the cross-process lineage protocol.
func NewLoopbackTransport(procs int) Transport {
	return &loopbackTransport{procs: procs}
}

func (t *loopbackTransport) Kind() string   { return "loopback" }
func (t *loopbackTransport) Local(int) bool { return true }
func (t *loopbackTransport) procOf(g int) int {
	return g / t.ranksPer
}

func (t *loopbackTransport) bind(e *Engine) error {
	if t.procs < 1 {
		return fmt.Errorf("core: loopback transport needs at least 1 proc, got %d", t.procs)
	}
	if e.opts.Ranks%t.procs != 0 {
		return fmt.Errorf("core: loopback procs %d must divide ranks %d", t.procs, e.opts.Ranks)
	}
	t.e = e
	t.ranksPer = e.opts.Ranks / t.procs
	return nil
}

// start hooks fragment-report shipping into the lineage table. Called from
// Engine.Start, and from StartSim (which skips transports that would spawn
// goroutines — this one never does).
func (t *loopbackTransport) start() error {
	if tr := t.e.traces; tr != nil && t.procs > 1 {
		tr.ship = func(origin int, rep lineageReport) { tr.handleReport(rep) }
	}
	return nil
}

func (t *loopbackTransport) stop() {}

func (t *loopbackTransport) Send(from, dest int, batch []Event) {
	sp, dp := t.procOf(from), t.procOf(dest)
	if sp == dp {
		t.e.ranks[dest].inbox.push(from, batch)
		return
	}
	// Cross-"process" path: a genuine codec round trip, so whatever the
	// wire drops, the test plane drops too.
	payload := appendEventsPayload(nil, t.seq.Add(1), uint32(from), uint32(dest), batch)
	f, err := parseEventsPayload(payload)
	if err != nil {
		panic(fmt.Sprintf("core: loopback codec round trip failed: %v", err))
	}
	if tr := t.e.traces; tr != nil {
		for i := range f.Events {
			if f.Events[i].Trace != 0 {
				tr.wireSend(f.Events[i].Trace, sp, dp)
			}
		}
		for i := range f.Events {
			if f.Events[i].Trace != 0 {
				tr.wireRecv(f.Events[i].Trace, dp, sp)
			}
		}
	}
	t.frames.Add(1)
	t.events.Add(uint64(len(f.Events)))
	t.e.ranks[dest].inbox.push(from, f.Events)
}

// SendExternal is unreachable: every rank is local, so emitExternal always
// takes the direct pushExternal path.
func (t *loopbackTransport) SendExternal(Event) {
	panic("core: loopback transport has no remote ranks")
}

// readyToFinish: all ranks are local, so local quiescence is global.
func (t *loopbackTransport) readyToFinish() bool { return true }

func (t *loopbackTransport) transportStats() TransportStats {
	return TransportStats{Kind: t.Kind(), Nodes: t.procs, Peers: []PeerTransportStats{{
		Node:       0,
		SentEvents: t.events.Load(),
		RecvEvents: t.events.Load(),
		SentFrames: t.frames.Load(),
		RecvFrames: t.frames.Load(),
	}}}
}

// clusterStats: the process is (simulating) the whole cluster.
func (t *loopbackTransport) clusterStats(time.Duration) []NodeEngineStats {
	return []NodeEngineStats{{Node: 0, Stats: t.e.EngineStats()}}
}
