package core

import (
	"encoding/binary"
	"fmt"
	"io"

	"incregraph/internal/graph"
)

// Wire codec for the TCP transport: length-prefixed frames carrying either
// batched engine events or transport control messages between the OS
// processes of one logical engine.
//
// Every frame is
//
//	magic 'I' 'G' | version u8 | type u8 | payload length u32 LE | payload
//
// and every payload is a fixed-layout little-endian encoding with explicit
// counts, mirroring the checkpoint codec (checkpoint.go). Two hard rules,
// both lessons from the PR-4 checkpoint fuzz bug:
//
//   - every count and length read from the wire is bounds-checked against a
//     codec-level maximum BEFORE any allocation sized by it, and
//   - parsing is canonical: a payload must be consumed exactly, so
//     re-encoding a successfully parsed payload reproduces it byte for
//     byte. That property is what the round-trip tests and FuzzFrameDecode
//     pin.
//
// Events travel WITH their Trace tag since wire version 3: cascade lineage
// spans processes. A lineage ID embeds its originating process (see
// lineage.go), every process records the cascade nodes it emits locally,
// and LINEAGE frames carry delta reports of those fragments back to the
// origin, which stitches the cross-process tree Graph.Lineage() serves.
//
// Version rule (see DESIGN.md "Wire versioning"): encoders always write the
// current wireVersion and decoders accept [wireVersionMin, wireVersion].
// Every process of a cluster runs one binary, so today the range is the
// single current version and no payload layout depends on the header's
// version byte.

const (
	wireMagic0 = 'I'
	wireMagic1 = 'G'
	// wireVersion 2 widened the event encoding with the witness-generation
	// tag (Gen u32) and admitted KindInvalidate; version 3 appended the
	// Trace tag (u64) to the event encoding and added the LINEAGE /
	// STATS_REQ / STATS_RESP frames. Older peers are rejected at the frame
	// header, which is the right failure mode for a homogeneous cluster
	// launched from one binary.
	wireVersion    = 3
	wireVersionMin = 3

	// frameHeaderSize is magic(2) + version(1) + type(1) + length(4).
	frameHeaderSize = 8
	// maxFramePayload bounds a frame before any payload-sized allocation:
	// the largest legitimate frame is an EVENTS batch of BatchSize events,
	// orders of magnitude under this.
	maxFramePayload = 4 << 20

	// eventWireSize is the fixed encoding of one Event: To(8) From(8)
	// Val(8) W(4) Seq(4) Kind(1) Algo(1) Gen(4) Trace(8).
	eventWireSize = 46

	// maxWireNodes bounds the node count a HELLO/ROSTER/REPORT may claim;
	// maxWireAddr bounds one advertised listen address.
	maxWireNodes = 1 << 12
	maxWireAddr  = 256
)

// frameType discriminates wire frames.
type frameType uint8

const (
	// frameHello introduces a dialing node: node ID, world shape, and the
	// address it accepts mesh dials on.
	frameHello frameType = 1
	// frameRoster is the coordinator's reply to the world's HELLOs: every
	// node's advertised address, so node i can dial every j < i.
	frameRoster frameType = 2
	// frameEvents carries one flushed inter-rank batch (per-sender FIFO:
	// one TCP connection per node pair, one frame per flush).
	frameEvents frameType = 3
	// frameExt carries engine-external events (InitVertex/Signal) whose
	// owning rank lives on the receiving node; they are labeled there.
	frameExt frameType = 4
	// frameProbe / frameReport / frameTerminate implement the Mattern-style
	// four-counter termination protocol (see tcp.go).
	frameProbe     frameType = 5
	frameReport    frameType = 6
	frameTerminate frameType = 7
	// frameAck carries the receiver's cumulative received-event count back
	// to the sender (the credit view surfaced as PeerTransportStats.Acked).
	frameAck frameType = 8
	// frameLineage carries one process's delta report for a remote-origin
	// cascade lineage back to the originating process: the nodes recorded
	// since the last report plus the reporter's cumulative per-channel
	// traced-event counters (see lineage.go).
	frameLineage frameType = 9
	// frameStatsReq / frameStatsResp implement metrics federation: any node
	// may ask a peer for its EngineStats snapshot (req carries a request
	// ID; resp echoes it with the responder's node and a JSON-encoded
	// snapshot).
	frameStatsReq  frameType = 10
	frameStatsResp frameType = 11
)

func (t frameType) valid() bool { return t >= frameHello && t <= frameStatsResp }

func (t frameType) String() string {
	switch t {
	case frameHello:
		return "HELLO"
	case frameRoster:
		return "ROSTER"
	case frameEvents:
		return "EVENTS"
	case frameExt:
		return "EXT"
	case frameProbe:
		return "PROBE"
	case frameReport:
		return "REPORT"
	case frameTerminate:
		return "TERMINATE"
	case frameAck:
		return "ACK"
	case frameLineage:
		return "LINEAGE"
	case frameStatsReq:
		return "STATS_REQ"
	case frameStatsResp:
		return "STATS_RESP"
	default:
		return fmt.Sprintf("frame(%d)", uint8(t))
	}
}

// appendFrame appends a complete frame (header + payload) to dst.
func appendFrame(dst []byte, ft frameType, payload []byte) []byte {
	dst = append(dst, wireMagic0, wireMagic1, wireVersion, byte(ft))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// parseFrame splits one frame off the front of b, validating the header.
// rest is the bytes after the frame (a stream may concatenate frames).
func parseFrame(b []byte) (ft frameType, payload, rest []byte, err error) {
	if len(b) < frameHeaderSize {
		return 0, nil, nil, fmt.Errorf("wire: short frame header (%d bytes)", len(b))
	}
	if b[0] != wireMagic0 || b[1] != wireMagic1 {
		return 0, nil, nil, fmt.Errorf("wire: bad magic %q", b[:2])
	}
	if ver := b[2]; ver < wireVersionMin || ver > wireVersion {
		return 0, nil, nil, fmt.Errorf("wire: unsupported version %d (accept %d..%d)",
			ver, wireVersionMin, wireVersion)
	}
	ft = frameType(b[3])
	if !ft.valid() {
		return 0, nil, nil, fmt.Errorf("wire: unknown frame type %d", b[3])
	}
	n := binary.LittleEndian.Uint32(b[4:8])
	if n > maxFramePayload {
		return 0, nil, nil, fmt.Errorf("wire: frame payload %d exceeds limit %d", n, maxFramePayload)
	}
	if uint32(len(b)-frameHeaderSize) < n {
		return 0, nil, nil, fmt.Errorf("wire: truncated frame: want %d payload bytes, have %d",
			n, len(b)-frameHeaderSize)
	}
	return ft, b[frameHeaderSize : frameHeaderSize+int(n)], b[frameHeaderSize+int(n):], nil
}

// readFrame reads one frame from a stream. buf is reused when large enough;
// the returned payload aliases it.
func readFrame(r io.Reader, buf []byte) (frameType, []byte, []byte, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, buf, err
	}
	if hdr[0] != wireMagic0 || hdr[1] != wireMagic1 {
		return 0, nil, buf, fmt.Errorf("wire: bad magic %q", hdr[:2])
	}
	if ver := hdr[2]; ver < wireVersionMin || ver > wireVersion {
		return 0, nil, buf, fmt.Errorf("wire: unsupported version %d (accept %d..%d)",
			ver, wireVersionMin, wireVersion)
	}
	ft := frameType(hdr[3])
	if !ft.valid() {
		return 0, nil, buf, fmt.Errorf("wire: unknown frame type %d", hdr[3])
	}
	n := binary.LittleEndian.Uint32(hdr[4:8])
	if n > maxFramePayload {
		return 0, nil, buf, fmt.Errorf("wire: frame payload %d exceeds limit %d", n, maxFramePayload)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, buf, fmt.Errorf("wire: truncated %s payload: %w", ft, err)
	}
	return ft, buf, buf, nil
}

// appendEvent appends ev's 46-byte wire form (Trace included).
func appendEvent(dst []byte, ev *Event) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(ev.To))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(ev.From))
	dst = binary.LittleEndian.AppendUint64(dst, ev.Val)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(ev.W))
	dst = binary.LittleEndian.AppendUint32(dst, ev.Seq)
	dst = append(dst, byte(ev.Kind), ev.Algo)
	dst = binary.LittleEndian.AppendUint32(dst, ev.Gen)
	return binary.LittleEndian.AppendUint64(dst, ev.Trace)
}

// parseEvent decodes one event from exactly eventWireSize bytes.
func parseEvent(b []byte) (Event, error) {
	var ev Event
	ev.To = graph.VertexID(binary.LittleEndian.Uint64(b[0:8]))
	ev.From = graph.VertexID(binary.LittleEndian.Uint64(b[8:16]))
	ev.Val = binary.LittleEndian.Uint64(b[16:24])
	ev.W = graph.Weight(binary.LittleEndian.Uint32(b[24:28]))
	ev.Seq = binary.LittleEndian.Uint32(b[28:32])
	ev.Kind = Kind(b[32])
	ev.Algo = b[33]
	ev.Gen = binary.LittleEndian.Uint32(b[34:38])
	ev.Trace = binary.LittleEndian.Uint64(b[38:46])
	// REVERSE_ADD_PREV never crosses the wire (snapshots are in-process
	// only); INVALIDATE does.
	if ev.Kind > KindInvalidate || ev.Kind == KindReverseAddPrev {
		return Event{}, fmt.Errorf("wire: invalid event kind %d", b[32])
	}
	return ev, nil
}

// extWireRank marks an EVENTS-layout frame whose events are engine-external
// (no sending rank, labeled and routed by the receiver).
const extWireRank = ^uint32(0)

// eventsFrame is the decoded form of an EVENTS or EXT payload.
type eventsFrame struct {
	// Seq is the per-connection frame sequence number (monotone from 1),
	// a cheap protocol-corruption check on top of TCP's ordering.
	Seq uint64
	// From and Dest are global rank indices; both are extWireRank in an
	// EXT frame (each event routes by its To vertex on the receiver).
	From, Dest uint32
	Events     []Event
}

// appendEventsPayload appends the EVENTS/EXT payload layout:
// seq u64 | from u32 | dest u32 | n u32 | n × event.
func appendEventsPayload(dst []byte, seq uint64, from, dest uint32, events []Event) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	dst = binary.LittleEndian.AppendUint32(dst, from)
	dst = binary.LittleEndian.AppendUint32(dst, dest)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(events)))
	for i := range events {
		dst = appendEvent(dst, &events[i])
	}
	return dst
}

func parseEventsPayload(b []byte) (eventsFrame, error) {
	var f eventsFrame
	if len(b) < 20 {
		return f, fmt.Errorf("wire: events payload too short (%d bytes)", len(b))
	}
	f.Seq = binary.LittleEndian.Uint64(b[0:8])
	f.From = binary.LittleEndian.Uint32(b[8:12])
	f.Dest = binary.LittleEndian.Uint32(b[12:16])
	n := binary.LittleEndian.Uint32(b[16:20])
	if n > uint32(maxFramePayload/eventWireSize) {
		return f, fmt.Errorf("wire: events count %d exceeds limit", n)
	}
	if len(b)-20 != int(n)*eventWireSize {
		return f, fmt.Errorf("wire: events payload: %d bytes for %d events", len(b)-20, n)
	}
	if n > 0 {
		f.Events = make([]Event, n)
		for i := range f.Events {
			ev, err := parseEvent(b[20+i*eventWireSize:])
			if err != nil {
				return f, err
			}
			f.Events[i] = ev
		}
	}
	return f, nil
}

// helloFrame introduces a dialing node.
type helloFrame struct {
	Node, Nodes, RanksPerNode uint32
	// Addr is the address this node accepts mesh dials on ("" when no
	// higher-numbered node will ever dial it).
	Addr string
}

func appendHelloPayload(dst []byte, h helloFrame) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, h.Node)
	dst = binary.LittleEndian.AppendUint32(dst, h.Nodes)
	dst = binary.LittleEndian.AppendUint32(dst, h.RanksPerNode)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(h.Addr)))
	return append(dst, h.Addr...)
}

func parseHelloPayload(b []byte) (helloFrame, error) {
	var h helloFrame
	if len(b) < 14 {
		return h, fmt.Errorf("wire: hello payload too short (%d bytes)", len(b))
	}
	h.Node = binary.LittleEndian.Uint32(b[0:4])
	h.Nodes = binary.LittleEndian.Uint32(b[4:8])
	h.RanksPerNode = binary.LittleEndian.Uint32(b[8:12])
	alen := int(binary.LittleEndian.Uint16(b[12:14]))
	if alen > maxWireAddr {
		return h, fmt.Errorf("wire: hello address length %d exceeds limit %d", alen, maxWireAddr)
	}
	if len(b)-14 != alen {
		return h, fmt.Errorf("wire: hello payload: %d bytes for address length %d", len(b)-14, alen)
	}
	if h.Nodes == 0 || h.Nodes > maxWireNodes || h.Node >= h.Nodes {
		return h, fmt.Errorf("wire: hello claims node %d of %d", h.Node, h.Nodes)
	}
	if h.RanksPerNode == 0 {
		return h, fmt.Errorf("wire: hello claims zero ranks per node")
	}
	h.Addr = string(b[14:])
	return h, nil
}

// rosterFrame lists every node's advertised address, indexed by node.
type rosterFrame struct {
	Addrs []string
}

func appendRosterPayload(dst []byte, r rosterFrame) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Addrs)))
	for _, a := range r.Addrs {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(a)))
		dst = append(dst, a...)
	}
	return dst
}

func parseRosterPayload(b []byte) (rosterFrame, error) {
	var r rosterFrame
	if len(b) < 4 {
		return r, fmt.Errorf("wire: roster payload too short (%d bytes)", len(b))
	}
	n := binary.LittleEndian.Uint32(b[0:4])
	if n == 0 || n > maxWireNodes {
		return r, fmt.Errorf("wire: roster claims %d nodes", n)
	}
	b = b[4:]
	r.Addrs = make([]string, 0, n)
	for i := uint32(0); i < n; i++ {
		if len(b) < 2 {
			return r, fmt.Errorf("wire: roster truncated at entry %d", i)
		}
		alen := int(binary.LittleEndian.Uint16(b[0:2]))
		if alen > maxWireAddr {
			return r, fmt.Errorf("wire: roster address length %d exceeds limit %d", alen, maxWireAddr)
		}
		if len(b)-2 < alen {
			return r, fmt.Errorf("wire: roster truncated in entry %d", i)
		}
		r.Addrs = append(r.Addrs, string(b[2:2+alen]))
		b = b[2+alen:]
	}
	if len(b) != 0 {
		return r, fmt.Errorf("wire: roster payload has %d trailing bytes", len(b))
	}
	return r, nil
}

// reportFrame is one node's answer to a termination probe: its local
// quiescence flags plus its cumulative per-channel sent/received event
// counters (the four counters of Mattern's termination scheme, one
// sent/recv pair per peer as seen from this node).
type reportFrame struct {
	Probe uint64
	Node  uint32
	// Quiescent: the node's counts balance (nothing buffered, queued, or
	// mid-processing locally; Engine.pending). StreamsDone: every local
	// ingestion stream is exhausted.
	Quiescent   bool
	StreamsDone bool
	// Sent[j] / Recv[j] are cumulative events this node sent to / received
	// from node j (own index zero).
	Sent, Recv []uint64
}

const (
	reportFlagQuiescent   = 1 << 0
	reportFlagStreamsDone = 1 << 1
)

func appendReportPayload(dst []byte, r reportFrame) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, r.Probe)
	dst = binary.LittleEndian.AppendUint32(dst, r.Node)
	var flags byte
	if r.Quiescent {
		flags |= reportFlagQuiescent
	}
	if r.StreamsDone {
		flags |= reportFlagStreamsDone
	}
	dst = append(dst, flags)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Sent)))
	for i := range r.Sent {
		dst = binary.LittleEndian.AppendUint64(dst, r.Sent[i])
		dst = binary.LittleEndian.AppendUint64(dst, r.Recv[i])
	}
	return dst
}

func parseReportPayload(b []byte) (reportFrame, error) {
	var r reportFrame
	if len(b) < 17 {
		return r, fmt.Errorf("wire: report payload too short (%d bytes)", len(b))
	}
	r.Probe = binary.LittleEndian.Uint64(b[0:8])
	r.Node = binary.LittleEndian.Uint32(b[8:12])
	flags := b[12]
	if flags&^(byte(reportFlagQuiescent)|byte(reportFlagStreamsDone)) != 0 {
		return r, fmt.Errorf("wire: report has unknown flag bits %#x", flags)
	}
	r.Quiescent = flags&reportFlagQuiescent != 0
	r.StreamsDone = flags&reportFlagStreamsDone != 0
	n := binary.LittleEndian.Uint32(b[13:17])
	if n > maxWireNodes {
		return r, fmt.Errorf("wire: report claims %d nodes", n)
	}
	if len(b)-17 != int(n)*16 {
		return r, fmt.Errorf("wire: report payload: %d bytes for %d counter pairs", len(b)-17, n)
	}
	r.Sent = make([]uint64, n)
	r.Recv = make([]uint64, n)
	for i := uint32(0); i < n; i++ {
		off := 17 + int(i)*16
		r.Sent[i] = binary.LittleEndian.Uint64(b[off : off+8])
		r.Recv[i] = binary.LittleEndian.Uint64(b[off+8 : off+16])
	}
	return r, nil
}

// appendU64Payload encodes the single-u64 payloads (PROBE and TERMINATE
// carry a probe ID; ACK carries a cumulative received-event count).
func appendU64Payload(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

func parseU64Payload(b []byte) (uint64, error) {
	if len(b) != 8 {
		return 0, fmt.Errorf("wire: u64 payload is %d bytes", len(b))
	}
	return binary.LittleEndian.Uint64(b), nil
}

// lineageNodeWireSize is the fixed encoding of one LineageNode inside a
// LINEAGE payload: ID(4) Parent(4) Rank(4) Kind(1) Algo(1) flags(1)
// MergedInto(4) To(8) From(8) Val(8) W(4) Seq(4).
const lineageNodeWireSize = 51

const lineageFlagTruncated = 1 << 0
const lineageNodeFlagMerged = 1 << 0

// lineageReport is one process's report of its share of a lineage: the
// cascade nodes it recorded since its previous report plus its cumulative
// per-channel traced-event counters for that lineage, keyed so the origin
// can run the per-channel completion check (see lineage.go). A remote
// process ships it in a LINEAGE frame; the origin's own never leaves it.
type lineageReport struct {
	ID   uint32
	From uint32 // reporting process
	// Truncated marks that the reporter hit its node cap for this lineage.
	Truncated bool
	// Chans lists the reporter's cumulative traced-event counters per
	// peer channel: Sent[i] events shipped to / Recv[i] received from
	// process Proc[i], counting only this lineage's events.
	Procs      []uint32
	Sent, Recv []uint64
	// Nodes are the lineage nodes recorded since the previous report.
	Nodes []LineageNode
}

func appendLineagePayload(dst []byte, r lineageReport) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, r.ID)
	dst = binary.LittleEndian.AppendUint32(dst, r.From)
	var flags byte
	if r.Truncated {
		flags |= lineageFlagTruncated
	}
	dst = append(dst, flags)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Procs)))
	for i := range r.Procs {
		dst = binary.LittleEndian.AppendUint32(dst, r.Procs[i])
		dst = binary.LittleEndian.AppendUint64(dst, r.Sent[i])
		dst = binary.LittleEndian.AppendUint64(dst, r.Recv[i])
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Nodes)))
	for i := range r.Nodes {
		n := &r.Nodes[i]
		dst = binary.LittleEndian.AppendUint32(dst, n.ID)
		dst = binary.LittleEndian.AppendUint32(dst, n.Parent)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(n.Rank))
		var nf byte
		if n.Merged {
			nf |= lineageNodeFlagMerged
		}
		dst = append(dst, byte(n.Kind), n.Algo, nf)
		dst = binary.LittleEndian.AppendUint32(dst, n.MergedInto)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(n.To))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(n.From))
		dst = binary.LittleEndian.AppendUint64(dst, n.Val)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(n.W))
		dst = binary.LittleEndian.AppendUint32(dst, n.Seq)
	}
	return dst
}

func parseLineagePayload(b []byte) (lineageReport, error) {
	var r lineageReport
	if len(b) < 13 {
		return r, fmt.Errorf("wire: lineage payload too short (%d bytes)", len(b))
	}
	r.ID = binary.LittleEndian.Uint32(b[0:4])
	r.From = binary.LittleEndian.Uint32(b[4:8])
	flags := b[8]
	if flags&^byte(lineageFlagTruncated) != 0 {
		return r, fmt.Errorf("wire: lineage report has unknown flag bits %#x", flags)
	}
	r.Truncated = flags&lineageFlagTruncated != 0
	nc := binary.LittleEndian.Uint32(b[9:13])
	if nc > maxWireNodes {
		return r, fmt.Errorf("wire: lineage report claims %d channels", nc)
	}
	b = b[13:]
	if len(b) < int(nc)*20+4 {
		return r, fmt.Errorf("wire: lineage payload truncated in channel table")
	}
	if nc > 0 {
		r.Procs = make([]uint32, nc)
		r.Sent = make([]uint64, nc)
		r.Recv = make([]uint64, nc)
		for i := uint32(0); i < nc; i++ {
			off := int(i) * 20
			r.Procs[i] = binary.LittleEndian.Uint32(b[off : off+4])
			r.Sent[i] = binary.LittleEndian.Uint64(b[off+4 : off+12])
			r.Recv[i] = binary.LittleEndian.Uint64(b[off+12 : off+20])
		}
	}
	b = b[int(nc)*20:]
	nn := binary.LittleEndian.Uint32(b[0:4])
	if nn > maxLineageNodes {
		return r, fmt.Errorf("wire: lineage report claims %d nodes", nn)
	}
	b = b[4:]
	if len(b) != int(nn)*lineageNodeWireSize {
		return r, fmt.Errorf("wire: lineage payload: %d bytes for %d nodes", len(b), nn)
	}
	if nn > 0 {
		r.Nodes = make([]LineageNode, nn)
		for i := uint32(0); i < nn; i++ {
			nb := b[int(i)*lineageNodeWireSize:]
			n := &r.Nodes[i]
			n.ID = binary.LittleEndian.Uint32(nb[0:4])
			n.Parent = binary.LittleEndian.Uint32(nb[4:8])
			n.Rank = int(binary.LittleEndian.Uint32(nb[8:12]))
			n.Kind = Kind(nb[12])
			n.Algo = nb[13]
			nf := nb[14]
			if nf&^byte(lineageNodeFlagMerged) != 0 {
				return r, fmt.Errorf("wire: lineage node has unknown flag bits %#x", nf)
			}
			n.Merged = nf&lineageNodeFlagMerged != 0
			n.MergedInto = binary.LittleEndian.Uint32(nb[15:19])
			n.To = graph.VertexID(binary.LittleEndian.Uint64(nb[19:27]))
			n.From = graph.VertexID(binary.LittleEndian.Uint64(nb[27:35]))
			n.Val = binary.LittleEndian.Uint64(nb[35:43])
			n.W = graph.Weight(binary.LittleEndian.Uint32(nb[43:47]))
			n.Seq = binary.LittleEndian.Uint32(nb[47:51])
		}
	}
	return r, nil
}

// maxStatsJSON bounds one STATS_RESP's JSON blob before allocation.
const maxStatsJSON = 1 << 20

// statsRespFrame answers a STATS_REQ: the responder's node plus its
// EngineStats snapshot, JSON-encoded (an opaque, length-checked blob at
// the wire layer — stats shapes evolve faster than the codec).
type statsRespFrame struct {
	Req  uint64
	Node uint32
	JSON []byte
}

func appendStatsRespPayload(dst []byte, f statsRespFrame) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, f.Req)
	dst = binary.LittleEndian.AppendUint32(dst, f.Node)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.JSON)))
	return append(dst, f.JSON...)
}

func parseStatsRespPayload(b []byte) (statsRespFrame, error) {
	var f statsRespFrame
	if len(b) < 16 {
		return f, fmt.Errorf("wire: stats-resp payload too short (%d bytes)", len(b))
	}
	f.Req = binary.LittleEndian.Uint64(b[0:8])
	f.Node = binary.LittleEndian.Uint32(b[8:12])
	n := binary.LittleEndian.Uint32(b[12:16])
	if n > maxStatsJSON {
		return f, fmt.Errorf("wire: stats-resp JSON %d bytes exceeds limit %d", n, maxStatsJSON)
	}
	if len(b)-16 != int(n) {
		return f, fmt.Errorf("wire: stats-resp payload: %d bytes for JSON length %d", len(b)-16, n)
	}
	f.JSON = append([]byte(nil), b[16:]...)
	return f, nil
}
