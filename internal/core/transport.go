package core

import "time"

// The transport seam: everything that moves a flushed event batch from one
// rank to another sits behind Transport, so the engine, rank loop,
// coalescer, and quiescence detector are written against an abstract
// update plane rather than concrete mailboxes. Two implementations ship:
//
//   - inprocTransport (the default): every rank is local and Send is a
//     direct push onto the destination's SPSC mailbox lane — byte-for-byte
//     the pre-seam behavior, bench-verified.
//   - TCPTransport (tcp.go): global ranks span OS processes; Send to a
//     remote rank encodes a length-prefixed EVENTS frame onto the one TCP
//     connection for that node pair (preserving per-sender FIFO), and
//     global termination is decided by a Mattern-style four-counter
//     protocol over every node's local balance.
//
// The seam's contract with termination: ranks count the events they
// create and finish (Engine.pending), and a transport counts only the
// events it ships out of and into this process (wireEvents) — TCP at
// frame enqueue and before the receiver's mailbox push; inproc and
// loopback ship nothing out of the process. A node is balanced when its
// created plus received events equal its done plus sent ones, which is
// the "locally quiescent" input to the distributed termination decision.
// Coalescing needs no special case: a merged UPDATE is dropped before it
// is counted created and before any Send.

// Transport is the engine's update plane. Exported methods are the data
// path; the unexported ones are the engine-lifecycle hooks (both shipped
// implementations live in this package).
type Transport interface {
	// Kind names the transport ("inproc", "tcp") for stats and metrics.
	Kind() string
	// Local reports whether global rank g runs in this process. Remote
	// ranks exist as inert shards: no goroutine, no stream, no state.
	Local(g int) bool
	// Send delivers one flushed batch from local rank from to global rank
	// dest, preserving per-sender FIFO order. It never blocks on the
	// destination (memory is the only backpressure, as with mailboxes).
	Send(from, dest int, batch []Event)
	// SendExternal routes an engine-external event (InitVertex / Signal)
	// whose owning rank is remote. The event is unlabeled; the owning node
	// stamps it with its own snapshot sequence on arrival. Legal before
	// start — such events are buffered and delivered once the mesh is up.
	SendExternal(ev Event)

	// bind attaches the transport to its engine at construction time
	// (before Start); it validates that the transport's rank span matches
	// the engine's.
	bind(e *Engine) error
	// start brings the data plane up (for TCP: listen/dial the full mesh);
	// it blocks until every peer is connected or fails. Called once from
	// Engine.Start.
	start() error
	// stop tears the data plane down after the engine has terminated,
	// flushing any control frames still queued (so a TERMINATE reaches
	// followers before the connections close).
	stop()
	// procOf maps a global rank to the process (cluster node) hosting it —
	// the proc byte of lineage IDs and node words. inproc: always 0; the
	// loopback transport simulates several procs inside one process.
	procOf(g int) int
	// readyToFinish gates tryFinish: with every local stream exhausted and
	// nothing pending locally, may this node declare global
	// termination? inproc: always (local quiescence is global). TCP
	// followers: only once the coordinator's TERMINATE arrived (or a local
	// Stop forces shutdown); the TCP coordinator kicks its detector and
	// waits for the counter protocol to decide.
	readyToFinish() bool
	// wireEvents returns the events this process shipped to and took from
	// peer processes (0, 0 when it ships none). pending reads sent with
	// the done counts and recv with the created ones.
	wireEvents() (sent, recv uint64)
	// transportStats snapshots the transport's live counters.
	transportStats() TransportStats
	// clusterStats federates EngineStats across the job: a multi-process
	// transport polls every peer over its stats verb (each bounded by
	// timeout) and returns node-labeled snapshots, the local one included;
	// single-process transports return just the local snapshot.
	clusterStats(timeout time.Duration) []NodeEngineStats
}

// NodeEngineStats pairs one process's EngineStats with its node index in
// the cluster — the unit of the federated /cluster/stats view.
type NodeEngineStats struct {
	Node  int         `json:"node"`
	Stats EngineStats `json:"stats"`
}

// PeerTransportStats is the live counter block of one peer channel.
type PeerTransportStats struct {
	// Node is the peer's process index.
	Node int
	// SentEvents / RecvEvents are cumulative engine events shipped to /
	// received from the peer (the counters the termination protocol
	// compares). AckedEvents is the peer's last acknowledged cumulative
	// receive count — the credit view: SentEvents - AckedEvents events are
	// still somewhere in the channel.
	SentEvents  uint64
	RecvEvents  uint64
	AckedEvents uint64
	// SentFrames / RecvFrames count wire frames (events and control).
	SentFrames uint64
	RecvFrames uint64
	// SentBytes / RecvBytes count wire bytes (frame headers included).
	SentBytes uint64
	RecvBytes uint64
	// Reconnects counts dial attempts beyond each connection's first
	// (the retry-with-backoff loop at work); Backoffs counts the sleeps
	// the dial-retry loop took before this channel connected.
	Reconnects uint64
	Backoffs   uint64
	// FrameBytes is the outbound frame-size histogram (bucket bounds are
	// bytes, power-of-2); AckRTT is the send-to-credit-acknowledgement
	// round-trip histogram (bounds are nanoseconds).
	FrameBytes HistogramSnapshot
	AckRTT     HistogramSnapshot
}

// Unacked returns the events still somewhere in the channel:
// SentEvents - AckedEvents, or 0 when the ack leads. It can: the send
// counter grows only after the frame is queued, so a fast peer's ack may
// be stored first.
func (p PeerTransportStats) Unacked() uint64 {
	return p.SentEvents - min(p.SentEvents, p.AckedEvents)
}

// TransportStats describes the active transport in an EngineStats
// snapshot.
type TransportStats struct {
	// Kind is the transport name ("inproc", "tcp").
	Kind string
	// Node / Nodes locate this process in the cluster (0 of 1 for
	// inproc).
	Node  int
	Nodes int
	// Peers holds one counter block per remote node (nil for inproc).
	Peers []PeerTransportStats
}

// inprocTransport is the default transport: all ranks share the process
// and Send is a direct SPSC mailbox push — the exact pre-seam hot path.
type inprocTransport struct {
	e *Engine
}

// NewInProcTransport returns the default in-process transport (Options
// with a nil Transport select it implicitly).
func NewInProcTransport() Transport { return &inprocTransport{} }

func (t *inprocTransport) Kind() string   { return "inproc" }
func (t *inprocTransport) Local(int) bool { return true }
func (t *inprocTransport) procOf(int) int { return 0 }
func (t *inprocTransport) bind(e *Engine) error {
	t.e = e
	return nil
}
func (t *inprocTransport) start() error                    { return nil }
func (t *inprocTransport) stop()                           {}
func (t *inprocTransport) wireEvents() (sent, recv uint64) { return 0, 0 }

func (t *inprocTransport) Send(from, dest int, batch []Event) {
	t.e.ranks[dest].inbox.push(from, batch)
}

// SendExternal is unreachable for inproc (and loopback): every rank is
// local, so emitExternal always takes the direct pushExternal path.
func (t *inprocTransport) SendExternal(Event) {
	panic("core: an in-process transport has no remote ranks")
}

// readyToFinish: every rank is local, so local quiescence (which tryFinish
// has already established) is global quiescence.
func (t *inprocTransport) readyToFinish() bool { return true }

func (t *inprocTransport) transportStats() TransportStats {
	return TransportStats{Kind: t.Kind(), Nodes: 1}
}

// clusterStats: the process is the whole cluster.
func (t *inprocTransport) clusterStats(time.Duration) []NodeEngineStats {
	return []NodeEngineStats{{Node: 0, Stats: t.e.EngineStats()}}
}
