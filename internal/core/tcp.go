package core

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TCPTransport shuttles event batches between the OS processes of one
// logical engine over plain TCP, using the wire codec in wire.go.
//
// Topology: Nodes processes, each hosting RanksPerNode consecutive global
// ranks (node n owns ranks [n*RanksPerNode, (n+1)*RanksPerNode)). Every
// node pair shares exactly one connection, so the per-sender FIFO order
// the engine's correctness argument needs (§III-C) is inherited from TCP's
// byte-stream ordering: batches from rank r to rank d travel in flush
// order, inside frames on the (node(r), node(d)) connection, and the
// receiving node's reader goroutine is the single producer of the sender's
// SPSC mailbox lane.
//
// Bootstrap: every node may listen; node 0 is the coordinator. Node i > 0
// dials the coordinator (with exponential-backoff retry) and introduces
// itself with a HELLO; once all Nodes-1 HELLOs arrived, the coordinator
// answers each with a ROSTER of advertised addresses, and node i then
// dials every node j in (0, i) so the mesh completes. start blocks until
// this node holds a live connection to every peer.
//
// Termination is Mattern's four-counter scheme generalizing the shared
// in-flight ring: each node keeps cumulative sent(i→j) / recv(i←j) event
// counters per channel. An event's in-flight registration is handed over
// at the channel boundary — decremented on the sender when the frame is
// enqueued, incremented on the receiver before the mailbox push — so each
// node's ring counts exactly its local load. The coordinator probes the
// world when it is locally quiet: a round succeeds when every node reports
// itself quiescent with all streams exhausted and sent(i→j) == recv(j←i)
// for every pair; two successive rounds with identical counter matrices
// prove no event was in flight between them, and the coordinator
// broadcasts TERMINATE. Monotone coalescing needs no special handling:
// merged UPDATEs die before the in-flight increment and before any Send,
// so neither side ever counts them.
//
// Failure model: dial-time retry with backoff, but no transparent mid-run
// reconnect — a dropped peer connection after start surfaces as
// Engine.Err and force-finishes the engine with the local state intact (a
// consistent prefix, not the converged answer). Stop on one node tears
// its connections down, which peers observe as exactly such a drop.
type TCPTransport struct {
	cfg TCPConfig
	e   *Engine
	ln  net.Listener
	// peers[n] is node n's channel state; the own-node slot is nil.
	peers []*tcpPeer

	// mu guards bootstrap state: per-peer conn attachment, the pre-start
	// external-event buffer, and bootErr.
	mu        sync.Mutex
	bootCond  *sync.Cond
	connected int
	started   bool
	bootErr   error
	preExt    []Event

	// terminating flips just before this node queues TERMINATE (as the
	// coordinator, or echoing one it received): from then on a peer's EOF
	// is the expected end of the run, not a failure. decided flips only
	// after those frames (and the parting stats) are queued, so no rank can
	// finish — and stop close the queues — underneath them. closing marks
	// teardown.
	terminating atomic.Bool
	decided     atomic.Bool
	closing     atomic.Bool
	// kick nudges the coordinator's detector when a local rank finds the
	// node quiescent; reports carries probe answers to it.
	kick     chan struct{}
	reports  chan reportFrame
	probeSeq uint64 // detector goroutine only
	stopCh   chan struct{}

	wg        sync.WaitGroup // accept loop, readers, detector, watchdog
	writersWg sync.WaitGroup // writers: drained before conns close on stop
	stopOnce  sync.Once

	// dropFrame, when set (fault-injection tests only), is consulted per
	// outbound frame; returning true silently drops it before the write.
	dropFrame atomic.Value // func(peerNode int, ft frameType) bool

	// statsWaiters routes STATS_RESP frames back to the clusterStats call
	// that minted the matching request ID (IDs start at 1; request ID 0 is
	// reserved for the unsolicited parting snapshot sent with TERMINATE).
	// finalStats caches those parting snapshots per peer so clusterStats
	// can answer a complete federation after the mesh is torn down;
	// finalsAll closes once every peer's snapshot arrived.
	statsMu      sync.Mutex
	statsWaiters map[uint64]chan statsRespFrame
	statsReqID   atomic.Uint64
	finalStats   map[int]EngineStats
	finalsSent   atomic.Bool
	finalsAll    chan struct{}
}

// TCPConfig shapes a TCPTransport.
type TCPConfig struct {
	// Node is this process's index; Nodes the world size; RanksPerNode
	// how many consecutive global ranks each process hosts (the engine's
	// Options.Ranks must equal Nodes*RanksPerNode).
	Node, Nodes, RanksPerNode int
	// Listen is the address to accept peer connections on (required for
	// the coordinator and any node a higher-numbered node must dial; use
	// an explicit host for multi-host meshes — an unspecified host is
	// advertised as 127.0.0.1). ":0" picks an ephemeral port; read it
	// back with ListenAddr.
	Listen string
	// Join is the coordinator's address (required when Node > 0).
	Join string
	// DialTimeout bounds each peer dial including retries (default 15s);
	// BootTimeout bounds the whole mesh bootstrap (default 30s).
	DialTimeout time.Duration
	BootTimeout time.Duration
	// ProbeInterval is the termination detector's fallback tick
	// (default 25ms; it is also kicked on every local-quiescence edge).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe round's wait for all peer reports
	// (default 1s); a round that times out is abandoned and retried.
	ProbeTimeout time.Duration
	// ShutdownWait bounds each of stop's two goroutine drains — writers
	// first (so a queued TERMINATE still flushes), then readers after the
	// connections close (default 2s each).
	ShutdownWait time.Duration
	// StallTimeout arms the stall watchdog: when the node makes no
	// protocol-level progress for this long while it should be making some
	// (events in flight, or every stream done but termination undecided),
	// the watchdog dumps the flight recorder and per-peer transport state
	// to stderr and retains it for Engine.StallDump / /debug/flightrec.
	// Default 30s; negative disables the watchdog. Firing is pure
	// observability — the run is never killed.
	StallTimeout time.Duration
}

func (c TCPConfig) withDefaults() TCPConfig {
	if c.Nodes == 0 {
		c.Nodes = 1
	}
	if c.RanksPerNode == 0 {
		c.RanksPerNode = 1
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 15 * time.Second
	}
	if c.BootTimeout <= 0 {
		c.BootTimeout = 30 * time.Second
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 25 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.ShutdownWait <= 0 {
		c.ShutdownWait = 2 * time.Second
	}
	if c.StallTimeout == 0 {
		c.StallTimeout = 30 * time.Second
	}
	return c
}

// tcpPeer is one remote node's channel state.
type tcpPeer struct {
	node int
	q    *frameQueue
	// conn is set exactly once, under the transport's mu, when the
	// handshake completes; addr is the peer's advertised listen address
	// from its HELLO (coordinator only).
	conn net.Conn
	addr string
	// The four-counter state and credit/observability counters.
	sentEvents  atomic.Uint64
	recvEvents  atomic.Uint64
	ackedEvents atomic.Uint64
	sentFrames  atomic.Uint64
	recvFrames  atomic.Uint64
	sentBytes   atomic.Uint64
	recvBytes   atomic.Uint64
	reconnects  atomic.Uint64
	backoffs    atomic.Uint64
	// lastReportNS is when this peer last answered a termination probe
	// (coordinator only; the watchdog's suspect heuristic reads it).
	lastReportNS atomic.Int64
	// frameBytes is the outbound frame-size histogram (bytes); ackRTT the
	// send-to-credit round-trip histogram (nanoseconds), fed by the small
	// rttQ sample ring below.
	frameBytes latHist
	ackRTT     latHist
	rttMu      sync.Mutex
	rttQ       []rttSample
	// lastFrameSeq is the reader's per-connection EVENTS/EXT sequence
	// check (reader goroutine only).
	lastFrameSeq uint64
}

// rttSample pairs the cumulative sent-event count a batch brought the
// channel to with its send instant; the first ACK whose credit reaches
// target closes the sample.
type rttSample struct {
	target uint64
	ns     int64
}

// rttRingCap bounds the in-flight RTT samples per peer. Sends beyond the
// cap are simply not sampled — the histogram wants representative round
// trips, not a complete ledger.
const rttRingCap = 8

// noteSendRTT remembers the send instant of the batch that brought the
// cumulative sent counter to cum.
func (p *tcpPeer) noteSendRTT(cum uint64) {
	p.rttMu.Lock()
	if len(p.rttQ) < rttRingCap {
		p.rttQ = append(p.rttQ, rttSample{target: cum, ns: time.Now().UnixNano()})
	}
	p.rttMu.Unlock()
}

// matchAckRTT closes every sample the newly acknowledged credit covers.
func (p *tcpPeer) matchAckRTT(cum uint64) {
	now := time.Now().UnixNano()
	p.rttMu.Lock()
	kept := p.rttQ[:0]
	for _, s := range p.rttQ {
		if s.target <= cum {
			p.ackRTT.record(now - s.ns)
		} else {
			kept = append(kept, s)
		}
	}
	p.rttQ = kept
	p.rttMu.Unlock()
}

// wireFrameMsg is one queued outbound frame.
type wireFrameMsg struct {
	ft      frameType
	payload []byte
	// stampSeq: the first 8 payload bytes receive the per-connection
	// frame sequence, assigned under the queue lock so sequence order
	// equals queue (and therefore wire) order.
	stampSeq bool
}

// frameQueue is an unbounded MPSC queue of outbound frames: any local rank
// (and the transport's own goroutines) produce, the peer's single writer
// goroutine consumes. Unbounded by design, like mailboxes — memory is the
// only backpressure, so no cycle of blocked sends can deadlock the engine.
type frameQueue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	frames  []wireFrameMsg
	nextSeq uint64
	closed  bool
}

func newFrameQueue() *frameQueue {
	q := &frameQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *frameQueue) push(ft frameType, payload []byte, stampSeq bool) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	if stampSeq {
		q.nextSeq++
		putU64(payload[:8], q.nextSeq)
	}
	q.frames = append(q.frames, wireFrameMsg{ft: ft, payload: payload, stampSeq: stampSeq})
	q.mu.Unlock()
	q.cond.Signal()
}

// popAll blocks until at least one frame is queued (returning the whole
// backlog, so the writer can coalesce syscalls) or the queue is closed and
// drained (ok false).
func (q *frameQueue) popAll() ([]wireFrameMsg, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.frames) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.frames) == 0 {
		return nil, false
	}
	out := q.frames
	q.frames = nil
	return out, true
}

func (q *frameQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// NewTCPTransport validates the configuration and, when Listen is set,
// binds the listener immediately — so ":0" works and ListenAddr can be
// handed to peers before Start.
func NewTCPTransport(cfg TCPConfig) (*TCPTransport, error) {
	cfg = cfg.withDefaults()
	if cfg.Nodes < 1 || cfg.Nodes > maxWireNodes {
		return nil, fmt.Errorf("core: tcp transport: Nodes %d out of range [1,%d]", cfg.Nodes, maxWireNodes)
	}
	if cfg.Node < 0 || cfg.Node >= cfg.Nodes {
		return nil, fmt.Errorf("core: tcp transport: Node %d out of range [0,%d)", cfg.Node, cfg.Nodes)
	}
	if cfg.RanksPerNode < 1 {
		return nil, errors.New("core: tcp transport: RanksPerNode must be >= 1")
	}
	if cfg.Nodes > 1 {
		if cfg.Node == 0 && cfg.Listen == "" {
			return nil, errors.New("core: tcp transport: the coordinator (node 0) requires Listen")
		}
		if cfg.Node > 0 && cfg.Join == "" {
			return nil, errors.New("core: tcp transport: Join (coordinator address) required for node > 0")
		}
		if cfg.Node > 0 && cfg.Node < cfg.Nodes-1 && cfg.Listen == "" {
			return nil, fmt.Errorf("core: tcp transport: node %d requires Listen (nodes %d..%d dial it)",
				cfg.Node, cfg.Node+1, cfg.Nodes-1)
		}
	}
	t := &TCPTransport{
		cfg:       cfg,
		kick:      make(chan struct{}, 1),
		reports:   make(chan reportFrame, 4*cfg.Nodes),
		stopCh:    make(chan struct{}),
		finalsAll: make(chan struct{}),
	}
	t.bootCond = sync.NewCond(&t.mu)
	t.peers = make([]*tcpPeer, cfg.Nodes)
	for n := range t.peers {
		if n != cfg.Node {
			t.peers[n] = &tcpPeer{node: n, q: newFrameQueue()}
		}
	}
	if cfg.Listen != "" {
		ln, err := net.Listen("tcp", cfg.Listen)
		if err != nil {
			return nil, fmt.Errorf("core: tcp transport: listen %s: %w", cfg.Listen, err)
		}
		t.ln = ln
	}
	return t, nil
}

// ListenAddr returns the bound listen address ("" when not listening) —
// with Listen ":0", the actual ephemeral address.
func (t *TCPTransport) ListenAddr() string {
	if t.ln == nil {
		return ""
	}
	return t.ln.Addr().String()
}

// advertiseAddr is ListenAddr with an unspecified host rewritten to
// loopback, so single-host meshes (tests, proc-smoke) can dial it.
func (t *TCPTransport) advertiseAddr() string {
	addr := t.ListenAddr()
	if addr == "" {
		return ""
	}
	if host, port, err := net.SplitHostPort(addr); err == nil {
		if ip := net.ParseIP(host); ip != nil && ip.IsUnspecified() {
			return net.JoinHostPort("127.0.0.1", port)
		}
	}
	return addr
}

func (t *TCPTransport) Kind() string { return "tcp" }

func (t *TCPTransport) Local(g int) bool {
	return g/t.cfg.RanksPerNode == t.cfg.Node
}

func (t *TCPTransport) procOf(g int) int { return g / t.cfg.RanksPerNode }

func (t *TCPTransport) bind(e *Engine) error {
	if t.e != nil {
		return errors.New("tcp transport is already bound to an engine")
	}
	if want := t.cfg.Nodes * t.cfg.RanksPerNode; e.opts.Ranks != want {
		return fmt.Errorf("engine has %d ranks; transport spans %d nodes × %d ranks = %d",
			e.opts.Ranks, t.cfg.Nodes, t.cfg.RanksPerNode, want)
	}
	t.e = e
	return nil
}

// Send implements the data path. A destination on this node is the same
// direct SPSC mailbox push as inproc (intra-node traffic never touches a
// socket); a remote destination becomes one EVENTS frame on the peer's
// queue, and the batch's in-flight registrations are released locally —
// the receiver re-registers them before its mailbox push, completing the
// handover the termination counters account for.
func (t *TCPTransport) Send(from, dest int, batch []Event) {
	if t.Local(dest) {
		t.e.ranks[dest].inbox.push(from, batch)
		return
	}
	destNode := dest / t.cfg.RanksPerNode
	p := t.peers[destNode]
	payload := appendEventsPayload(make([]byte, 0, 20+len(batch)*eventWireSize),
		0, uint32(from), uint32(dest), batch)
	p.q.push(frameEvents, payload, true)
	// Account traced events after the frame is enqueued: a lineage report
	// triggered by the last wireSend then always trails the events it
	// counts on the same FIFO connection, so the origin never reads a
	// report ahead of the sends it claims.
	if t.e.traces != nil {
		for i := range batch {
			if batch[i].Trace != 0 {
				t.e.traces.wireSend(batch[i].Trace, t.cfg.Node, destNode)
			}
		}
	}
	p.noteSendRTT(p.sentEvents.Add(uint64(len(batch))))
	t.releaseInflight(batch)
}

// releaseInflight hands a shipped batch's in-flight registrations over to
// the receiving node, mirroring rank.applyDecrements' zero-crossing duties
// (minus the snapshot branch — snapshots never run distributed).
func (t *TCPTransport) releaseInflight(batch []Event) {
	var dec [4]int64
	for i := range batch {
		dec[batch[i].Seq&3]++
	}
	for i, n := range dec {
		if n != 0 && t.e.inflight[i].Add(-n) == 0 {
			if t.e.streamsLeft.Load() == 0 || t.e.ingestHalted() {
				t.e.wakeAll()
			}
			t.e.signalQuiesce()
		}
	}
}

// SendExternal ships an engine-external event to the node owning its
// target vertex. Before start the event is buffered and delivered once the
// mesh is up (InitVertex before Start is part of the engine contract).
func (t *TCPTransport) SendExternal(ev Event) {
	t.mu.Lock()
	if !t.started {
		t.preExt = append(t.preExt, ev)
		t.mu.Unlock()
		return
	}
	t.mu.Unlock()
	t.sendExt(ev)
}

func (t *TCPTransport) sendExt(ev Event) {
	owner := t.e.part.Owner(ev.To)
	node := owner / t.cfg.RanksPerNode
	if node == t.cfg.Node {
		t.e.injectExternal(ev)
		return
	}
	p := t.peers[node]
	payload := appendEventsPayload(make([]byte, 0, 20+eventWireSize),
		0, extWireRank, extWireRank, []Event{ev})
	p.q.push(frameExt, payload, true)
	p.sentEvents.Add(1)
}

// start brings the mesh up; it blocks until this node is connected to
// every peer (or the bootstrap fails/times out).
func (t *TCPTransport) start() error {
	if t.e == nil {
		return errors.New("core: tcp transport not bound to an engine")
	}
	if t.e.traces != nil && t.cfg.Nodes > 1 {
		t.e.traces.ship = t.shipLineage
	}
	if t.cfg.Nodes > 1 {
		if t.ln != nil {
			t.wg.Add(1)
			go t.acceptLoop()
		}
		if t.cfg.Node > 0 {
			if err := t.joinCoordinator(); err != nil {
				return err
			}
		}
		if err := t.awaitMesh(); err != nil {
			return err
		}
		if t.cfg.Node == 0 {
			// Everyone has dialed in: answer each HELLO with the roster so
			// node i can complete its half of the mesh (dials to j < i).
			roster := rosterFrame{Addrs: make([]string, t.cfg.Nodes)}
			roster.Addrs[0] = t.advertiseAddr()
			t.mu.Lock()
			for n, p := range t.peers {
				if p != nil {
					roster.Addrs[n] = p.addr
				}
			}
			t.mu.Unlock()
			payload := appendRosterPayload(nil, roster)
			for _, p := range t.peers {
				if p != nil {
					p.q.push(frameRoster, append([]byte(nil), payload...), false)
				}
			}
			t.wg.Add(1)
			go t.detect()
		}
		if t.cfg.StallTimeout > 0 {
			t.wg.Add(1)
			go t.watchdog()
		}
	}
	t.mu.Lock()
	t.started = true
	pre := t.preExt
	t.preExt = nil
	t.mu.Unlock()
	for i := range pre {
		t.sendExt(pre[i])
	}
	return nil
}

// joinCoordinator dials node 0, introduces this node, and completes the
// lower half of the mesh from the returned roster.
func (t *TCPTransport) joinCoordinator() error {
	conn, err := t.dialRetry(t.cfg.Join, t.peers[0])
	if err != nil {
		return fmt.Errorf("core: tcp transport: join %s: %w", t.cfg.Join, err)
	}
	if err := t.sendHello(conn); err != nil {
		conn.Close()
		return fmt.Errorf("core: tcp transport: hello to coordinator: %w", err)
	}
	// The roster is the first and only frame the coordinator sends before
	// this node is attached, so a synchronous read here is safe.
	conn.SetReadDeadline(time.Now().Add(t.cfg.BootTimeout))
	ft, payload, _, err := readFrame(conn, nil)
	if err != nil {
		conn.Close()
		return fmt.Errorf("core: tcp transport: waiting for roster: %w", err)
	}
	if ft != frameRoster {
		conn.Close()
		return fmt.Errorf("core: tcp transport: expected ROSTER, got %s", ft)
	}
	roster, err := parseRosterPayload(payload)
	if err != nil {
		conn.Close()
		return fmt.Errorf("core: tcp transport: %w", err)
	}
	if len(roster.Addrs) != t.cfg.Nodes {
		conn.Close()
		return fmt.Errorf("core: tcp transport: roster lists %d nodes, want %d", len(roster.Addrs), t.cfg.Nodes)
	}
	conn.SetReadDeadline(time.Time{})
	t.attach(t.peers[0], conn)
	for j := 1; j < t.cfg.Node; j++ {
		pc, err := t.dialRetry(roster.Addrs[j], t.peers[j])
		if err != nil {
			return fmt.Errorf("core: tcp transport: dial node %d at %s: %w", j, roster.Addrs[j], err)
		}
		if err := t.sendHello(pc); err != nil {
			pc.Close()
			return fmt.Errorf("core: tcp transport: hello to node %d: %w", j, err)
		}
		t.attach(t.peers[j], pc)
	}
	return nil
}

func (t *TCPTransport) sendHello(conn net.Conn) error {
	h := helloFrame{
		Node:         uint32(t.cfg.Node),
		Nodes:        uint32(t.cfg.Nodes),
		RanksPerNode: uint32(t.cfg.RanksPerNode),
		Addr:         t.advertiseAddr(),
	}
	conn.SetWriteDeadline(time.Now().Add(t.cfg.BootTimeout))
	_, err := conn.Write(appendFrame(nil, frameHello, appendHelloPayload(nil, h)))
	conn.SetWriteDeadline(time.Time{})
	return err
}

// awaitMesh blocks until every peer connection is attached, the bootstrap
// records an error, or BootTimeout elapses.
func (t *TCPTransport) awaitMesh() error {
	deadline := time.Now().Add(t.cfg.BootTimeout)
	timer := time.AfterFunc(t.cfg.BootTimeout, func() { t.bootCond.Broadcast() })
	defer timer.Stop()
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		if t.bootErr != nil {
			return fmt.Errorf("core: tcp transport: bootstrap: %w", t.bootErr)
		}
		if t.connected == t.cfg.Nodes-1 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("core: tcp transport: bootstrap timed out with %d/%d peers connected",
				t.connected, t.cfg.Nodes-1)
		}
		t.bootCond.Wait()
	}
}

func (t *TCPTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			if !t.closing.Load() {
				t.bootFail(fmt.Errorf("accept: %w", err))
			}
			return
		}
		t.wg.Add(1)
		go t.handshake(conn)
	}
}

// handshake reads a dialing peer's HELLO and attaches the connection.
func (t *TCPTransport) handshake(conn net.Conn) {
	defer t.wg.Done()
	conn.SetReadDeadline(time.Now().Add(t.cfg.BootTimeout))
	ft, payload, _, err := readFrame(conn, nil)
	if err != nil || ft != frameHello {
		conn.Close()
		return
	}
	h, err := parseHelloPayload(payload)
	if err != nil {
		conn.Close()
		return
	}
	if int(h.Nodes) != t.cfg.Nodes || int(h.RanksPerNode) != t.cfg.RanksPerNode {
		t.bootFail(fmt.Errorf("node %d joined with world %d×%d, want %d×%d",
			h.Node, h.Nodes, h.RanksPerNode, t.cfg.Nodes, t.cfg.RanksPerNode))
		conn.Close()
		return
	}
	if int(h.Node) == t.cfg.Node {
		t.bootFail(fmt.Errorf("a peer joined claiming this process's node ID %d", h.Node))
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	p := t.peers[h.Node]
	t.mu.Lock()
	dup := p.conn != nil
	if !dup {
		p.addr = h.Addr
	}
	t.mu.Unlock()
	if dup {
		conn.Close()
		return
	}
	t.attach(p, conn)
}

// attach registers a completed connection and starts its reader and
// writer goroutines.
func (t *TCPTransport) attach(p *tcpPeer, conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	t.mu.Lock()
	p.conn = conn
	t.connected++
	t.mu.Unlock()
	t.bootCond.Broadcast()
	t.writersWg.Add(1)
	go t.writeLoop(p, conn)
	t.wg.Add(1)
	go t.readLoop(p, conn)
}

// dialRetry dials addr with exponential backoff (50ms doubling, capped at
// 1s) until it connects or DialTimeout is spent. Attempts beyond the first
// count as reconnects.
func (t *TCPTransport) dialRetry(addr string, p *tcpPeer) (net.Conn, error) {
	deadline := time.Now().Add(t.cfg.DialTimeout)
	backoff := 50 * time.Millisecond
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			p.reconnects.Add(1)
		}
		connTimeout := time.Until(deadline)
		if connTimeout > 2*time.Second {
			connTimeout = 2 * time.Second
		}
		if connTimeout <= 0 {
			return nil, fmt.Errorf("dial %s: timeout after %d attempts", addr, attempt)
		}
		conn, err := net.DialTimeout("tcp", addr, connTimeout)
		if err == nil {
			return conn, nil
		}
		if t.closing.Load() {
			return nil, err
		}
		if time.Now().Add(backoff).After(deadline) {
			return nil, fmt.Errorf("dial %s: %w (after %d attempts)", addr, err, attempt+1)
		}
		p.backoffs.Add(1)
		time.Sleep(backoff)
		backoff *= 2
		if backoff > time.Second {
			backoff = time.Second
		}
	}
}

// writeLoop drains the peer's frame queue onto the connection, coalescing
// the backlog into one write. After a write error the loop keeps draining
// and discarding so producers never block on a dead peer.
func (t *TCPTransport) writeLoop(p *tcpPeer, conn net.Conn) {
	defer t.writersWg.Done()
	var buf []byte
	dead := false
	for {
		frames, ok := p.q.popAll()
		if !ok {
			return
		}
		if dead {
			continue
		}
		drop, _ := t.dropFrame.Load().(func(int, frameType) bool)
		buf = buf[:0]
		sent := 0
		for i := range frames {
			if drop != nil && drop(p.node, frames[i].ft) {
				continue
			}
			pre := len(buf)
			buf = appendFrame(buf, frames[i].ft, frames[i].payload)
			p.frameBytes.record(int64(len(buf) - pre))
			t.e.flight.note("frame-sent", p.node, frames[i].ft.String(),
				uint64(len(buf)-pre), 0)
			sent++
		}
		if len(buf) == 0 {
			continue
		}
		if _, err := conn.Write(buf); err != nil {
			t.peerDropped(p, fmt.Errorf("write: %w", err))
			dead = true
			continue
		}
		p.sentFrames.Add(uint64(sent))
		p.sentBytes.Add(uint64(len(buf)))
	}
}

func (t *TCPTransport) readLoop(p *tcpPeer, conn net.Conn) {
	defer t.wg.Done()
	br := bufio.NewReaderSize(conn, 1<<16)
	var buf []byte
	for {
		ft, payload, nbuf, err := readFrame(br, buf)
		buf = nbuf
		if err != nil {
			t.peerDropped(p, fmt.Errorf("read: %w", err))
			return
		}
		p.recvFrames.Add(1)
		p.recvBytes.Add(uint64(frameHeaderSize + len(payload)))
		t.e.flight.note("frame-recv", p.node, ft.String(), uint64(len(payload)), 0)
		if err := t.handleFrame(p, ft, payload); err != nil {
			t.peerDropped(p, err)
			return
		}
	}
}

// handleFrame dispatches one inbound frame on the peer's reader
// goroutine. Every count, rank index, and program index read from the
// wire is validated before it touches engine state.
func (t *TCPTransport) handleFrame(p *tcpPeer, ft frameType, payload []byte) error {
	switch ft {
	case frameEvents:
		f, err := parseEventsPayload(payload)
		if err != nil {
			return err
		}
		if err := t.checkEventsFrame(p, &f, false); err != nil {
			return err
		}
		// Account traced arrivals BEFORE the mailbox push, so a lineage's
		// pending increment strictly precedes any possible retire of the
		// event (mirroring the in-flight handover below).
		if t.e.traces != nil {
			for i := range f.Events {
				if f.Events[i].Trace != 0 {
					t.e.traces.wireRecv(f.Events[i].Trace, t.cfg.Node, p.node)
				}
			}
		}
		// Complete the in-flight handover BEFORE the mailbox push: once the
		// receive counter (read by probe reports on this same goroutine) can
		// account these events as arrived, the ring already counts them as
		// local load, so a quiescent-and-counters-matched report is safe.
		for i := range f.Events {
			t.e.inflight[f.Events[i].Seq&3].Add(1)
		}
		t.e.ranks[f.Dest].inbox.push(int(f.From), f.Events)
		p.recvEvents.Add(uint64(len(f.Events)))
		p.q.push(frameAck, appendU64Payload(nil, p.recvEvents.Load()), false)
	case frameExt:
		f, err := parseEventsPayload(payload)
		if err != nil {
			return err
		}
		if err := t.checkEventsFrame(p, &f, true); err != nil {
			return err
		}
		for i := range f.Events {
			// injectExternal labels, registers, and routes under extMu,
			// exactly like a local InitVertex/Signal.
			t.e.injectExternal(f.Events[i])
		}
		p.recvEvents.Add(uint64(len(f.Events)))
		p.q.push(frameAck, appendU64Payload(nil, p.recvEvents.Load()), false)
	case frameProbe:
		id, err := parseU64Payload(payload)
		if err != nil {
			return err
		}
		t.e.flight.note("probe", p.node, "answer", id, 0)
		rep := t.localReport(id)
		p.q.push(frameReport, appendReportPayload(nil, rep), false)
	case frameReport:
		rep, err := parseReportPayload(payload)
		if err != nil {
			return err
		}
		p.lastReportNS.Store(time.Now().UnixNano())
		t.e.flight.note("report", p.node, "", rep.Probe, 0)
		select {
		case t.reports <- rep:
		default:
			// A full channel only holds stale reports; the current probe
			// round times out and retries.
		}
	case frameTerminate:
		seq, err := parseU64Payload(payload)
		if err != nil {
			return err
		}
		t.e.flight.note("terminate", p.node, "received", seq, 0)
		t.pushFinalStats()
		if !t.terminating.Swap(true) {
			// Echo the decision on every other connection before teardown
			// begins. In a >=3-node mesh the coordinator's TERMINATE to a
			// peer races this node's exit: the peer would otherwise see our
			// clean close as a bare EOF mid-protocol (different TCP streams
			// have no mutual ordering) and surface it as a transport error.
			// Per-connection FIFO plus the writer drain on stop guarantees
			// every peer reads a TERMINATE on our connection before its EOF.
			for _, pp := range t.peers {
				if pp != nil && pp != p {
					pp.q.push(frameTerminate, appendU64Payload(nil, seq), false)
				}
			}
		}
		t.decided.Store(true)
		t.e.finishFromTransport()
	case frameAck:
		cum, err := parseU64Payload(payload)
		if err != nil {
			return err
		}
		p.ackedEvents.Store(cum)
		p.matchAckRTT(cum)
		t.e.flight.note("credit", p.node, "", cum, 0)
	case frameLineage:
		rep, err := parseLineagePayload(payload)
		if err != nil {
			return err
		}
		if t.e.traces != nil && traceOrigin(rep.ID) == t.cfg.Node &&
			int(rep.From) == p.node {
			t.e.traces.handleReport(rep)
		}
	case frameStatsReq:
		id, err := parseU64Payload(payload)
		if err != nil {
			return err
		}
		js, merr := json.Marshal(t.e.EngineStats())
		if merr != nil || len(js) > maxStatsJSON {
			// Answer with an empty body rather than stalling the poller.
			js = []byte("{}")
		}
		p.q.push(frameStatsResp, appendStatsRespPayload(nil,
			statsRespFrame{Req: id, Node: uint32(t.cfg.Node), JSON: js}), false)
	case frameStatsResp:
		resp, err := parseStatsRespPayload(payload)
		if err != nil {
			return err
		}
		if resp.Req == 0 {
			// The peer's parting snapshot, sent ahead of its TERMINATE:
			// cache it so federation outlives the mesh.
			var es EngineStats
			if json.Unmarshal(resp.JSON, &es) == nil {
				t.statsMu.Lock()
				if t.finalStats == nil {
					t.finalStats = make(map[int]EngineStats)
				}
				if _, dup := t.finalStats[p.node]; !dup {
					t.finalStats[p.node] = es
					if len(t.finalStats) == t.cfg.Nodes-1 {
						close(t.finalsAll)
					}
				}
				t.statsMu.Unlock()
			}
			return nil
		}
		t.statsMu.Lock()
		ch := t.statsWaiters[resp.Req]
		t.statsMu.Unlock()
		if ch != nil {
			select {
			case ch <- resp:
			default:
			}
		}
	default:
		return fmt.Errorf("unexpected %s frame after handshake", ft)
	}
	return nil
}

// checkEventsFrame validates an EVENTS/EXT frame's sequence, rank
// addressing, and per-event program indices.
func (t *TCPTransport) checkEventsFrame(p *tcpPeer, f *eventsFrame, ext bool) error {
	if f.Seq != p.lastFrameSeq+1 {
		return fmt.Errorf("frame sequence jumped %d -> %d", p.lastFrameSeq, f.Seq)
	}
	p.lastFrameSeq = f.Seq
	if ext {
		if f.From != extWireRank || f.Dest != extWireRank {
			return fmt.Errorf("EXT frame carries rank addressing %d->%d", f.From, f.Dest)
		}
	} else {
		if int(f.Dest) >= t.e.opts.Ranks || !t.Local(int(f.Dest)) {
			return fmt.Errorf("EVENTS frame for rank %d, which is not local", f.Dest)
		}
		if int(f.From) >= t.e.opts.Ranks || int(f.From)/t.cfg.RanksPerNode != p.node {
			return fmt.Errorf("EVENTS frame claims sender rank %d, not owned by node %d", f.From, p.node)
		}
	}
	for i := range f.Events {
		if a := f.Events[i].Algo; a != NoAlgo && int(a) >= len(t.e.programs) {
			return fmt.Errorf("event addresses program %d of %d", a, len(t.e.programs))
		}
	}
	return nil
}

// localReport answers a termination probe with this node's quiescence
// flags and cumulative per-channel counters. Flags are read before the
// counters: any activity between the two reads changes the counters, which
// the detector's two-round equality check then catches.
func (t *TCPTransport) localReport(id uint64) reportFrame {
	rep := reportFrame{
		Probe:       id,
		Node:        uint32(t.cfg.Node),
		Quiescent:   t.e.Quiescent(),
		StreamsDone: t.e.streamsLeft.Load() == 0,
		Sent:        make([]uint64, t.cfg.Nodes),
		Recv:        make([]uint64, t.cfg.Nodes),
	}
	for n, p := range t.peers {
		if p != nil {
			rep.Sent[n] = p.sentEvents.Load()
			rep.Recv[n] = p.recvEvents.Load()
		}
	}
	return rep
}

// detect is the coordinator's termination detector: whenever this node is
// locally quiet (kicked from tryFinish, with a ticker as fallback), it
// runs probe rounds until two successive rounds observe a globally
// quiescent world with matching and unchanged channel counters, then
// broadcasts TERMINATE and finishes the local engine.
func (t *TCPTransport) detect() {
	defer t.wg.Done()
	tick := time.NewTicker(t.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-t.stopCh:
			return
		case <-t.kick:
		case <-tick.C:
		}
		if t.closing.Load() || t.decided.Load() || t.e.stopReq.Load() {
			return
		}
		if !t.e.Quiescent() || t.e.streamsLeft.Load() != 0 {
			continue
		}
		r1, ok := t.probeRound()
		if !ok || !reportsConsistent(r1) {
			continue
		}
		r2, ok := t.probeRound()
		if !ok || !reportsConsistent(r2) || !reportsEqual(r1, r2) {
			continue
		}
		// Queue first, publish second: once decided is visible a local rank
		// may finish the engine, and teardown closes the peer queues.
		t.terminating.Store(true)
		t.e.flight.note("terminate", -1, "decided", t.probeSeq, 0)
		t.pushFinalStats()
		for _, p := range t.peers {
			if p != nil {
				p.q.push(frameTerminate, appendU64Payload(nil, t.probeSeq), false)
			}
		}
		t.decided.Store(true)
		t.e.finishFromTransport()
		return
	}
}

// probeRound broadcasts one PROBE and collects every node's report
// (including this node's own, taken last).
func (t *TCPTransport) probeRound() ([]reportFrame, bool) {
	t.probeSeq++
	id := t.probeSeq
	for {
		// Drop reports from abandoned rounds.
		select {
		case <-t.reports:
			continue
		default:
		}
		break
	}
	for _, p := range t.peers {
		if p != nil {
			p.q.push(frameProbe, appendU64Payload(nil, id), false)
		}
	}
	out := make([]reportFrame, t.cfg.Nodes)
	need := t.cfg.Nodes - 1
	timeout := time.After(t.cfg.ProbeTimeout)
	for need > 0 {
		select {
		case rep := <-t.reports:
			if rep.Probe != id || rep.Node == 0 || int(rep.Node) >= t.cfg.Nodes ||
				len(rep.Sent) != t.cfg.Nodes {
				continue
			}
			if out[rep.Node].Probe != id {
				need--
			}
			out[rep.Node] = rep
		case <-timeout:
			return nil, false
		case <-t.stopCh:
			return nil, false
		}
	}
	out[0] = t.localReport(id)
	return out, true
}

// reportsConsistent checks one round: every node quiescent with streams
// exhausted, and every channel's sent count equal to the far side's
// receive count (no event in transit or unprocessed anywhere).
func reportsConsistent(reps []reportFrame) bool {
	for i := range reps {
		if !reps[i].Quiescent || !reps[i].StreamsDone {
			return false
		}
	}
	for i := range reps {
		for j := range reps {
			if i != j && reps[i].Sent[j] != reps[j].Recv[i] {
				return false
			}
		}
	}
	return true
}

// reportsEqual checks that no channel counter moved between two rounds —
// Mattern's guard against an event having been in flight "behind" the
// first round's probes.
func reportsEqual(a, b []reportFrame) bool {
	for i := range a {
		for j := range a {
			if a[i].Sent[j] != b[i].Sent[j] || a[i].Recv[j] != b[i].Recv[j] {
				return false
			}
		}
	}
	return true
}

// peerDropped handles a connection failure: during bootstrap it fails the
// bootstrap; once TERMINATE is queued or received, or during teardown, it
// is the expected silence; otherwise it surfaces as Engine.Err and
// force-finishes the engine.
func (t *TCPTransport) peerDropped(p *tcpPeer, err error) {
	if t.closing.Load() || t.terminating.Load() {
		return
	}
	t.mu.Lock()
	if !t.started {
		if t.bootErr == nil {
			t.bootErr = fmt.Errorf("node %d: %w", p.node, err)
		}
		t.mu.Unlock()
		t.bootCond.Broadcast()
		return
	}
	t.mu.Unlock()
	if t.e.stopReq.Load() {
		return
	}
	t.e.failFromTransport(fmt.Errorf("core: tcp transport: peer node %d: %w", p.node, err))
}

// bootFail records a bootstrap failure and wakes awaitMesh.
func (t *TCPTransport) bootFail(err error) {
	t.mu.Lock()
	if t.bootErr == nil {
		t.bootErr = err
	}
	t.mu.Unlock()
	t.bootCond.Broadcast()
}

func (t *TCPTransport) readyToFinish() bool {
	if t.cfg.Nodes == 1 {
		return true
	}
	if t.decided.Load() || t.e.stopReq.Load() {
		return true
	}
	if t.cfg.Node == 0 {
		select {
		case t.kick <- struct{}{}:
		default:
		}
	}
	return false
}

// stop tears the transport down after the engine terminated: queues are
// closed and drained (so a queued TERMINATE still reaches followers),
// then the listener and connections close. Bounded waits keep shutdown
// from hanging on a dead peer.
func (t *TCPTransport) stop() {
	t.stopOnce.Do(func() {
		t.closing.Store(true)
		close(t.stopCh)
		for _, p := range t.peers {
			if p != nil {
				p.q.close()
			}
		}
		waitBounded(&t.writersWg, t.cfg.ShutdownWait)
		// After a clean termination, hold the connections open briefly for
		// every peer's parting stats snapshot (sent ahead of its TERMINATE
		// or its echo) — closing early would discard an in-flight snapshot
		// and leave post-run federation incomplete. Bounded: a peer that
		// died after the decision just costs the wait.
		if t.cfg.Nodes > 1 && t.decided.Load() {
			w := t.cfg.ShutdownWait
			if w > time.Second {
				w = time.Second
			}
			select {
			case <-t.finalsAll:
			case <-time.After(w):
			}
		}
		if t.ln != nil {
			t.ln.Close()
		}
		t.mu.Lock()
		for _, p := range t.peers {
			if p != nil && p.conn != nil {
				p.conn.Close()
			}
		}
		t.mu.Unlock()
		waitBounded(&t.wg, t.cfg.ShutdownWait)
	})
}

func waitBounded(wg *sync.WaitGroup, d time.Duration) {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(d):
	}
}

func (t *TCPTransport) transportStats() TransportStats {
	s := TransportStats{Kind: t.Kind(), Node: t.cfg.Node, Nodes: t.cfg.Nodes}
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		s.Peers = append(s.Peers, PeerTransportStats{
			Node:        p.node,
			SentEvents:  p.sentEvents.Load(),
			RecvEvents:  p.recvEvents.Load(),
			AckedEvents: p.ackedEvents.Load(),
			SentFrames:  p.sentFrames.Load(),
			RecvFrames:  p.recvFrames.Load(),
			SentBytes:   p.sentBytes.Load(),
			RecvBytes:   p.recvBytes.Load(),
			Reconnects:  p.reconnects.Load(),
			Backoffs:    p.backoffs.Load(),
			FrameBytes:  p.frameBytes.snapshot(),
			AckRTT:      p.ackRTT.snapshot(),
		})
	}
	return s
}

// shipLineage queues a fragment's delta report to the lineage's origin
// node (frameQueue accepts pushes from any goroutine, including a rank
// mid-retire).
func (t *TCPTransport) shipLineage(origin int, rep lineageReport) {
	if origin == t.cfg.Node || origin < 0 || origin >= len(t.peers) {
		return
	}
	if p := t.peers[origin]; p != nil {
		p.q.push(frameLineage, appendLineagePayload(nil, rep), false)
	}
}

// clusterStats implements the federated stats poll: the local snapshot plus
// one STATS_REQ/STATS_RESP round trip per peer, all under one deadline.
// Any node can poll (the mesh is full); peers that miss the deadline are
// absent from the result.
// pushFinalStats queues this node's parting stats snapshot (STATS_RESP
// with the reserved request ID 0) to every peer, once. It is called at the
// moment termination is decided or learned, so per-connection FIFO orders
// the snapshot ahead of the TERMINATE on each link: a peer that acts on
// the decision has already cached our finals, and clusterStats can answer
// a complete federation after the mesh is torn down.
func (t *TCPTransport) pushFinalStats() {
	if !t.finalsSent.CompareAndSwap(false, true) {
		return
	}
	js, err := json.Marshal(t.e.EngineStats())
	if err != nil || len(js) > maxStatsJSON {
		js = []byte("{}")
	}
	for _, p := range t.peers {
		if p != nil {
			p.q.push(frameStatsResp, appendStatsRespPayload(nil,
				statsRespFrame{Req: 0, Node: uint32(t.cfg.Node), JSON: js}), false)
		}
	}
}

func (t *TCPTransport) clusterStats(timeout time.Duration) []NodeEngineStats {
	out := []NodeEngineStats{{Node: t.cfg.Node, Stats: t.e.EngineStats()}}
	have := make(map[int]bool, t.cfg.Nodes)
	have[t.cfg.Node] = true
	t.mu.Lock()
	up := t.started
	t.mu.Unlock()
	// Live polling is only legal on an established mesh: before bootstrap
	// completes, STATS_REQ frames would interleave with the HELLO/ROSTER
	// handshake (whose follower side synchronously expects ROSTER as the
	// first frame), and after teardown begins there is no one left to
	// answer. Outside that window peers are covered by the parting
	// snapshots below.
	if t.cfg.Nodes > 1 && up && !t.closing.Load() {
		if timeout <= 0 {
			timeout = time.Second
		}
		id := t.statsReqID.Add(1)
		ch := make(chan statsRespFrame, t.cfg.Nodes)
		t.statsMu.Lock()
		if t.statsWaiters == nil {
			t.statsWaiters = make(map[uint64]chan statsRespFrame)
		}
		t.statsWaiters[id] = ch
		t.statsMu.Unlock()
		defer func() {
			t.statsMu.Lock()
			delete(t.statsWaiters, id)
			t.statsMu.Unlock()
		}()
		need := 0
		for _, p := range t.peers {
			if p != nil {
				p.q.push(frameStatsReq, appendU64Payload(nil, id), false)
				need++
			}
		}
		deadline := time.After(timeout)
		for need > 0 {
			select {
			case resp := <-ch:
				need--
				var es EngineStats
				if int(resp.Node) < t.cfg.Nodes && !have[int(resp.Node)] &&
					json.Unmarshal(resp.JSON, &es) == nil {
					out = append(out, NodeEngineStats{Node: int(resp.Node), Stats: es})
					have[int(resp.Node)] = true
				}
			case <-deadline:
				need = 0
			case <-t.stopCh:
				need = 0
			}
		}
	}
	// Fill the gaps — peers that did not answer live, or the whole mesh
	// when it is gone — from the parting snapshots exchanged at
	// termination.
	t.statsMu.Lock()
	for n, es := range t.finalStats {
		if !have[n] {
			out = append(out, NodeEngineStats{Node: n, Stats: es})
			have[n] = true
		}
	}
	t.statsMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// watchdog is the per-node stall detector: it fingerprints protocol-level
// progress (per-peer event/credit counters, processed-event totals, the
// termination decision bit — deliberately NOT probe/report chatter, which a
// stalled cluster keeps generating) and, when the fingerprint freezes for
// StallTimeout while the node should be making progress (events in flight,
// or streams done but termination undecided), dumps the flight recorder
// and per-peer transport state to stderr and retains it for StallDump /
// /debug/flightrec. One fire per stall episode; progress re-arms it.
// Firing never kills the run.
func (t *TCPTransport) watchdog() {
	defer t.wg.Done()
	tick := time.NewTicker(t.cfg.StallTimeout / 4)
	defer tick.Stop()
	last := t.progressFingerprint()
	lastChange := time.Now()
	fired := false
	for {
		select {
		case <-t.stopCh:
			return
		case <-tick.C:
		}
		if t.closing.Load() || t.e.finished.Load() {
			return
		}
		cur := t.progressFingerprint()
		if cur != last {
			last = cur
			lastChange = time.Now()
			fired = false
			continue
		}
		// A quiescent node with streams still open is idle, not stalled.
		stalled := !t.e.Quiescent() || t.e.streamsLeft.Load() == 0
		if fired || !stalled || time.Since(lastChange) < t.cfg.StallTimeout {
			continue
		}
		fired = true
		suspect := t.suspectPeer()
		dump := t.stallDump(time.Since(lastChange), suspect)
		fmt.Fprint(os.Stderr, dump)
		t.e.flight.recordStall(dump)
		t.e.flight.note("watchdog", suspect, "fired",
			uint64(time.Since(lastChange)), 0)
	}
}

// progressFingerprint folds every counter that moves iff the node makes
// real protocol progress: per-peer sent/received/acknowledged events,
// per-rank processed-event totals, and the termination decision.
func (t *TCPTransport) progressFingerprint() uint64 {
	var fp uint64
	for _, p := range t.peers {
		if p != nil {
			fp += p.sentEvents.Load() + p.recvEvents.Load() + p.ackedEvents.Load()
		}
	}
	for _, r := range t.e.ranks {
		for k := range r.counters.events {
			fp += r.counters.events[k].Load()
		}
	}
	if t.decided.Load() {
		fp++
	}
	return fp
}

// suspectPeer names the most likely stalled peer: the one sitting on the
// most unacknowledged credit; with none outstanding, a follower suspects
// the coordinator (the missing TERMINATE would come from there) and the
// coordinator suspects the peer whose probe report is oldest.
func (t *TCPTransport) suspectPeer() int {
	best, bestOut := -1, uint64(0)
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		if out := p.sentEvents.Load() - p.ackedEvents.Load(); out > bestOut {
			best, bestOut = p.node, out
		}
	}
	if best >= 0 {
		return best
	}
	if t.cfg.Node != 0 {
		return 0
	}
	var oldest int64
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		if ns := p.lastReportNS.Load(); best < 0 || ns < oldest {
			best, oldest = p.node, ns
		}
	}
	return best
}

// stallDump renders the watchdog's diagnosis: engine state, every peer
// channel's counters (with the suspect marked), and the flight recorder.
func (t *TCPTransport) stallDump(idle time.Duration, suspect int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "incregraph: stall watchdog: node %d made no protocol progress for %s (stall timeout %s)\n",
		t.cfg.Node, idle.Round(time.Millisecond), t.cfg.StallTimeout)
	fmt.Fprintf(&b, "  engine: state=%s quiescent=%v streamsLeft=%d decided=%v\n",
		t.e.State(), t.e.Quiescent(), t.e.streamsLeft.Load(), t.decided.Load())
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		mark := ""
		if p.node == suspect {
			mark = "  <-- suspect"
		}
		lastRep := "never"
		if ns := p.lastReportNS.Load(); ns != 0 {
			lastRep = time.Since(time.Unix(0, ns)).Round(time.Millisecond).String() + " ago"
		}
		fmt.Fprintf(&b, "  peer %d: sent=%d recv=%d acked=%d unacked=%d frames=%d/%d lastReport=%s%s\n",
			p.node, p.sentEvents.Load(), p.recvEvents.Load(), p.ackedEvents.Load(),
			p.sentEvents.Load()-p.ackedEvents.Load(),
			p.sentFrames.Load(), p.recvFrames.Load(), lastRep, mark)
	}
	fmt.Fprintf(&b, "  suspect: peer node %d\n", suspect)
	b.WriteString("  flight recorder (oldest first):\n")
	for _, fe := range t.e.flight.snapshot() {
		fmt.Fprintf(&b, "    %s peer=%d %s %s a=%d b=%d\n",
			time.Unix(0, fe.UnixNanos).UTC().Format("15:04:05.000"),
			fe.Peer, fe.Kind, fe.Detail, fe.A, fe.B)
	}
	return b.String()
}

// putU64 writes v little-endian into b[:8] (the frame-sequence stamp).
func putU64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}
