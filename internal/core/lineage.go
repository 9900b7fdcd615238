package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"incregraph/internal/graph"
)

// Cascade lineage tracing: a sampled topology event carries a compact trace
// ID (Event.Trace) through every hop of its cascade — mailbox lanes, the
// self-delivery ring, and the coalescer — so the engine can (a) measure the
// time from stream pull to cascade quiescence, the paper's real latency
// promise, and (b) reconstruct the causal tree of every event the cascade
// generated, including UPDATEs that were coalesced away before delivery.
//
// Trace encoding (0 = untraced, which is what every event is unless the
// per-rank sampler picks it):
//
//	Trace = [ id : 32 ][ node : 32 ]
//	id    = [ origin : 8 ][ gen : 16 ][ slot+1 : 8 ]
//	node  = [ proc : 8 ][ index : 24 ]
//
// id names the lineage: origin is the process that sampled the root, slot+1
// indexes that process's fixed trace table (nonzero by construction, so a
// zero Trace can never collide with slot 0), and gen is a monotone
// generation making reused slots distinguishable. node names the event
// within the lineage: proc is the process that RECORDED the node (i.e.
// emitted the event) and index is its position in that process's recording
// order — so two processes extending one cascade concurrently can never
// mint colliding node words. A single-process engine has origin == proc ==
// 0 everywhere and the encoding degenerates to the pre-v3 one.
//
// Every process records its share of a lineage in a FRAGMENT: the nodes
// its ranks emitted, its pending count (the lineage's events still live on
// that process, like a per-cascade termination count), and its cumulative
// per-channel counters of traced events shipped and received. The origin
// is no exception; its fragment lives in the lineage's slot, every other
// process's in a map keyed by (lineage, process). Whenever a fragment's
// pending count returns to zero it reports its new nodes and its counters
// to the origin: directly at the origin itself, in a LINEAGE frame (wire
// version 3 on) everywhere else. Trace tags ride EVENTS frames, so the
// origin stitches the full cross-process tree.
//
// The origin keeps each process's latest report, its own included, and
// finalizes once it has reported and every channel balances (sent(p→q) ==
// recv(q←p) for all pairs in the reports). That check is sound: a
// fragment's pending count rises from zero only by a wire receive, so an
// event live anywhere after its process's last report was received after
// that report; the send behind it is either in its sender's report (and
// the missing receive breaks the balance) or happened while the sender
// itself was live after its last report, and walking that causal chain
// backwards must reach an accounted send, because the root was live before
// the origin's first report. A single-process lineage has empty channel
// counters and finalizes at the origin's first report.
//
// Cost discipline: the unsampled hot path pays only Trace==0 branches — no
// clock reads, no atomics. A sampled cascade pays a short mutex-guarded
// update of its fragment per event; with the default 1-in-1024 sampling
// that cost vanishes into noise (see EXPERIMENTS.md).

// traceSlotCount is the number of concurrently traceable cascades. A full
// table drops sampling points (counted in LatencyStats.Dropped) rather than
// blocking the hot path.
const traceSlotCount = 64

// maxLineageNodes caps one lineage's recorded node list (per recording
// process). A cascade that outgrows it stops extending its trace
// (descendants run untraced, the lineage is marked Truncated and retires
// early) so a pathological cascade cannot hold its slot, or unbounded
// memory, forever.
const maxLineageNodes = 1 << 14

// maxTraceFrags caps the remote-origin fragment map of one process.
// Fragments whose cascade went quiet are evicted lazily once the map is
// full; an evicted fragment's lineage simply never completes at its origin
// and is reclaimed there by slot expiry.
const maxTraceFrags = 4096

// traceSlotExpiry is how long an origin keeps a locally-quiescent lineage
// waiting for remote channel balance before slot reclamation may
// force-finalize it as truncated (a peer died or a report was lost).
const traceSlotExpiry = 5 * time.Second

// packTrace assembles an Event.Trace value.
func packTrace(id, node uint32) uint64 { return uint64(id)<<32 | uint64(node) }

// traceOrigin extracts the originating process from a lineage ID.
func traceOrigin(id uint32) int { return int(id >> 24) }

// packNode assembles a node word from its recording process and index.
func packNode(proc int, idx uint32) uint32 { return uint32(proc)<<24 | idx }

// DecodeTrace splits an Event.Trace into its lineage ID and node index;
// ok is false for an untraced event.
func DecodeTrace(t uint64) (id, node uint32, ok bool) {
	if t == 0 {
		return 0, 0, false
	}
	return uint32(t >> 32), uint32(t), true
}

// LineageNode is one event of a traced cascade, recorded at emission time.
type LineageNode struct {
	// ID is the node's word ([proc:8][index:24] — the process that emitted
	// the event and its position in that process's recording order; a
	// single-process lineage degenerates to a plain index). Parent is the
	// node word of the event whose callback emitted this one (the root is
	// its own parent).
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent"`
	// Rank is the rank that emitted the event (for the root: that ingested
	// it); the processing rank is the owner of To.
	Rank int `json:"rank"`
	// Event identity as emitted. Val is the value at emission time: a
	// buffered UPDATE that later absorbs a merge is delivered with the
	// combined value, which this snapshot deliberately predates.
	Kind Kind           `json:"kind"`
	Algo uint8          `json:"algo"`
	To   graph.VertexID `json:"to"`
	From graph.VertexID `json:"from"`
	Val  uint64         `json:"val"`
	W    graph.Weight   `json:"w"`
	Seq  uint32         `json:"seq"`
	// Merged marks an UPDATE that was coalesced into an already-buffered
	// one and never delivered (the CombinedAway counter, explained);
	// MergedInto is the lineage ID it was absorbed into (its own ID for an
	// intra-lineage merge, 0 when the absorber was untraced).
	Merged     bool   `json:"merged,omitempty"`
	MergedInto uint32 `json:"merged_into,omitempty"`
}

// Lineage is the completed causal tree of one sampled topology event: every
// event its cascade generated, in creation order, parent-linked.
type Lineage struct {
	// ID is the lineage's trace ID ([origin:8][gen:16][slot+1:8]).
	ID uint32 `json:"id"`
	// StartUnixNanos is the wall-clock stream-pull instant; Latency is the
	// time from that pull to cascade quiescence — the last descendant
	// processed.
	StartUnixNanos int64         `json:"start_unix_nanos"`
	Latency        time.Duration `json:"latency_nanos"`
	// Truncated marks a cascade that outgrew maxLineageNodes: the recorded
	// tree and the latency cover only the traced prefix.
	Truncated bool `json:"truncated,omitempty"`
	// Nodes lists the cascade's events in creation order; Nodes[0] is the
	// sampled root.
	Nodes []LineageNode `json:"nodes"`
}

// Tree renders the lineage as an indented causal tree, one node per line.
// Node IDs are words, not slice indices (remote nodes are stitched in at
// report time), so the walk resolves them through a map; children render in
// ascending node-word order, which is deterministic and groups each
// process's emissions together. Orphans — nodes whose parent never reached
// the origin (a truncated remote fragment) — render as extra roots so no
// recorded node is silently dropped.
func (l Lineage) Tree() string {
	var b strings.Builder
	fmt.Fprintf(&b, "lineage %d: %d events, %s%s\n", l.ID, len(l.Nodes),
		l.Latency, map[bool]string{true: " (truncated)", false: ""}[l.Truncated])
	byID := make(map[uint32]*LineageNode, len(l.Nodes))
	for i := range l.Nodes {
		byID[l.Nodes[i].ID] = &l.Nodes[i]
	}
	children := make(map[uint32][]uint32, len(l.Nodes))
	var roots []uint32
	for i := range l.Nodes {
		n := &l.Nodes[i]
		if n.ID == n.Parent {
			roots = append(roots, n.ID)
		} else if _, ok := byID[n.Parent]; ok {
			children[n.Parent] = append(children[n.Parent], n.ID)
		} else {
			roots = append(roots, n.ID)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	for _, c := range children {
		sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	}
	var walk func(id uint32, depth int)
	walk = func(id uint32, depth int) {
		n := byID[id]
		b.WriteString(strings.Repeat("  ", depth))
		fmt.Fprintf(&b, "#%d %s to=%d from=%d val=%d w=%d seq=%d rank=%d",
			n.ID, n.Kind, n.To, n.From, n.Val, n.W, n.Seq, n.Rank)
		if n.Merged {
			fmt.Fprintf(&b, " [merged into %d]", n.MergedInto)
		}
		b.WriteByte('\n')
		for _, c := range children[id] {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
	return b.String()
}

// Procs returns the distinct recording processes of the lineage's nodes,
// ascending — >1 means the cascade crossed process boundaries.
func (l Lineage) Procs() []int {
	seen := make(map[int]bool, 4)
	for i := range l.Nodes {
		seen[int(l.Nodes[i].ID>>24)] = true
	}
	out := make([]int, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// traceFrag is one process's share of a lineage: the nodes it recorded
// since its last report, its live pending count and its cumulative
// per-channel counters. A child's pending increment (at emission, inside
// its parent's callback) strictly precedes the parent's decrement (after
// its process call returns); a wire send decrements at frame enqueue and
// the receiving fragment increments before the mailbox push. So pending
// reaches zero only when nothing of the lineage is live on the process.
type traceFrag struct {
	mu        sync.Mutex
	id        uint32 // the lineage; 0 for a free origin slot
	pending   int64
	nodes     []LineageNode // recorded since the last report
	nextNode  uint32        // next local node index
	truncated bool
	sentTo    map[uint8]uint64
	recvFrom  map[uint8]uint64
}

// traceSlot is one in-flight lineage at its origin: the origin's own
// fragment, whose mutex guards the whole slot, plus the stitched tree (the
// root, then each report's nodes in arrival order) and the latest report
// of every process, the origin's own included.
type traceSlot struct {
	traceFrag
	startNS int64
	tree    []LineageNode
	reports map[uint8]lineageReport
}

// fragKey names a remote fragment: the lineage ID plus the process
// recording it (the proc matters only for the loopback transport, where
// one table simulates every process; a real TCP process uses its own
// constant proc).
type fragKey struct {
	id   uint32
	proc uint8
}

// traceTable owns the fixed slot pool, the remote-origin fragment map, and
// the ring of completed lineages. Lock order: remote fragment → origin
// slot (its own fragment's mutex) → table.
type traceTable struct {
	sampled atomic.Uint64
	dropped atomic.Uint64
	active  atomic.Int64

	mu    sync.Mutex
	free  []uint8 // free slot indices
	gen   uint32  // 16-bit lineage generation counter
	done  []Lineage
	next  int // ring write position in done
	keep  int
	frags map[fragKey]*traceFrag
	order []fragKey // fragment insertion order, for lazy eviction

	// ship delivers a report to the lineage's origin process (set by the
	// transport at start; nil means reports have nowhere to go, which only
	// a pure-local table ever needs). It must not retain rep.Nodes.
	ship func(origin int, rep lineageReport)
	// record logs a lineage finalized from a remote report into a local
	// ingest-latency histogram (set by the engine; retire-path finalization
	// records into the retiring rank's own histogram instead).
	record func(ns int64)

	slots [traceSlotCount]traceSlot
}

func newTraceTable(keep int) *traceTable {
	t := &traceTable{keep: keep, frags: make(map[fragKey]*traceFrag)}
	t.free = make([]uint8, traceSlotCount)
	for i := range t.free {
		t.free[i] = uint8(i)
		s := &t.slots[i]
		s.sentTo, s.recvFrom = map[uint8]uint64{}, map[uint8]uint64{}
		s.reports = map[uint8]lineageReport{}
	}
	return t
}

// slotIndex maps a lineage ID to its origin-table slot index, or -1.
func slotIndex(id uint32) int {
	idx := int(id&0xFF) - 1
	if idx < 0 || idx >= traceSlotCount {
		return -1
	}
	return idx
}

// lineageNode records ev, emitted by rank rankID under parent; the caller
// assigns the node's ID.
func lineageNode(ev *Event, parent uint32, rankID int) LineageNode {
	return LineageNode{
		Parent: parent, Rank: rankID,
		Kind: ev.Kind, Algo: ev.Algo, To: ev.To, From: ev.From,
		Val: ev.Val, W: ev.W, Seq: ev.Seq,
	}
}

// start opens a lineage for a topology event freshly sampled by process
// proc and returns its root Trace, or 0 (sampling point dropped) when every
// slot is busy and none can be reclaimed.
func (t *traceTable) start(ev *Event, rankID, proc int) uint64 {
	t.mu.Lock()
	if len(t.free) == 0 {
		t.mu.Unlock()
		if !t.reclaimExpired() {
			t.dropped.Add(1)
			return 0
		}
		t.mu.Lock()
		if len(t.free) == 0 {
			t.mu.Unlock()
			t.dropped.Add(1)
			return 0
		}
	}
	idx := t.free[len(t.free)-1]
	t.free = t.free[:len(t.free)-1]
	t.gen = (t.gen + 1) & 0xFFFF
	id := uint32(proc)<<24 | t.gen<<8 | (uint32(idx) + 1)
	t.mu.Unlock()

	node := packNode(proc, 0)
	root := lineageNode(ev, node, rankID)
	root.ID = node
	s := &t.slots[idx]
	s.mu.Lock()
	s.id, s.pending, s.nextNode, s.truncated = id, 1, 1, false
	s.nodes = s.nodes[:0]
	clear(s.sentTo)
	clear(s.recvFrom)
	s.startNS, s.tree = time.Now().UnixNano(), []LineageNode{root}
	clear(s.reports)
	s.mu.Unlock()
	t.active.Add(1)
	return packTrace(id, node)
}

// reclaimExpired force-finalizes origin slots that have been locally
// quiescent past traceSlotExpiry but never balanced their channels (a peer
// died, a report was lost, or a fragment was evicted). The reclaimed
// lineages complete as Truncated. Returns true if any slot was freed.
func (t *traceTable) reclaimExpired() bool {
	now := time.Now().UnixNano()
	freed := false
	for idx := range t.slots {
		s := &t.slots[idx]
		if !s.mu.TryLock() {
			continue
		}
		if s.id != 0 && s.pending == 0 && now-s.startNS >= int64(traceSlotExpiry) {
			t.finalizeLocked(idx, now, true, t.record)
			freed = true
		}
		s.mu.Unlock()
	}
	return freed
}

// frag returns process proc's fragment of lineage id with its mutex held,
// or nil when the trace is stale or the fragment is gone. It is the one
// place that tells the origin from the other processes: the origin's
// fragment is its slot's own; any other process's comes from the fragment
// map, created on first contact when create is set (evicting quiet
// fragments if the map is at capacity).
func (t *traceTable) frag(id uint32, proc int, create bool) *traceFrag {
	var f *traceFrag
	if traceOrigin(id) == proc {
		if idx := slotIndex(id); idx >= 0 {
			f = &t.slots[idx].traceFrag
		}
	} else {
		k := fragKey{id: id, proc: uint8(proc)}
		t.mu.Lock()
		if f = t.frags[k]; f == nil && create {
			if len(t.frags) >= maxTraceFrags {
				t.evictFragsLocked()
			}
			if len(t.frags) < maxTraceFrags {
				f = &traceFrag{id: id, sentTo: map[uint8]uint64{}, recvFrom: map[uint8]uint64{}}
				t.frags[k] = f
				t.order = append(t.order, k)
			}
		}
		t.mu.Unlock()
	}
	if f == nil {
		return nil
	}
	f.mu.Lock()
	if f.id != id {
		f.mu.Unlock()
		return nil
	}
	return f
}

// recordLocked appends n to the fragment under the next local node index
// and returns its word; once the fragment holds maxLineageNodes it marks
// itself truncated and records nothing.
func (f *traceFrag) recordLocked(n LineageNode, proc int) (uint32, bool) {
	if f.nextNode >= maxLineageNodes {
		f.truncated = true
		return 0, false
	}
	n.ID = packNode(proc, f.nextNode)
	f.nextNode++
	f.nodes = append(f.nodes, n)
	return n.ID, true
}

// child records an event emitted by a traced parent on process proc and
// returns the Trace the child must carry. Returns 0 — the child runs
// untraced — when the fragment hit its node cap (Truncated) or the parent
// Trace is stale.
func (t *traceTable) child(parent uint64, ev *Event, rankID, proc int) uint64 {
	id, pnode, ok := DecodeTrace(parent)
	if !ok {
		return 0
	}
	f := t.frag(id, proc, false)
	if f == nil {
		return 0
	}
	defer f.mu.Unlock()
	node, ok := f.recordLocked(lineageNode(ev, pnode, rankID), proc)
	if !ok {
		return 0
	}
	f.pending++
	return packTrace(id, node)
}

// merged records an event that was coalesced into an already-buffered
// UPDATE: it joins its lineage's tree (so CombinedAway is explainable) but
// is never delivered, so it carries no pending count. into is the absorbing
// event's Trace (0 when the absorber is untraced).
func (t *traceTable) merged(parent uint64, ev *Event, rankID, proc int, into uint64) {
	id, pnode, ok := DecodeTrace(parent)
	if !ok {
		return
	}
	if f := t.frag(id, proc, false); f != nil {
		n := lineageNode(ev, pnode, rankID)
		n.Merged = true
		n.MergedInto, _, _ = DecodeTrace(into)
		f.recordLocked(n, proc)
		f.mu.Unlock()
	}
}

// retire marks one traced event fully processed on process proc. If it
// was the fragment's last live event the fragment reports; at the origin,
// a report that completes the lineage records its ingest-to-quiescence
// latency into the retiring rank's histogram.
func (t *traceTable) retire(trace uint64, r *rank, proc int) {
	id, _, ok := DecodeTrace(trace)
	if !ok {
		return
	}
	if f := t.frag(id, proc, false); f != nil {
		rec := t.record
		if r != nil {
			rec = r.lat.ingest.record
		}
		t.leaveLocked(f, proc, rec)
	}
}

// wireSend accounts a traced event leaving process proc for process dst: it
// is no longer live here (the receiver's fragment takes it over) and the
// proc→dst channel counter advances.
func (t *traceTable) wireSend(trace uint64, proc, dst int) {
	id, _, ok := DecodeTrace(trace)
	if !ok {
		return
	}
	if f := t.frag(id, proc, false); f != nil {
		f.sentTo[uint8(dst)]++
		t.leaveLocked(f, proc, t.record)
	}
}

// wireRecv accounts a traced event arriving at process proc from process
// src. Must be called BEFORE the event is pushed into a mailbox so the
// pending increment precedes any possible retire. Creates the fragment on
// first contact with a remote-origin lineage.
func (t *traceTable) wireRecv(trace uint64, proc, src int) {
	id, _, ok := DecodeTrace(trace)
	if !ok {
		return
	}
	if f := t.frag(id, proc, true); f != nil {
		f.recvFrom[uint8(src)]++
		f.pending++
		f.mu.Unlock()
	}
}

// leaveLocked drops one live event from the fragment and releases it; the
// last one out reports.
func (t *traceTable) leaveLocked(f *traceFrag, proc int, rec func(int64)) {
	if f.pending--; f.pending == 0 {
		t.reportLocked(f, proc, rec)
	}
	f.mu.Unlock()
}

// evictFragsLocked drops fragments whose cascade went quiet (pending zero,
// so everything is reported). Called with t.mu held; fragment mutexes are
// only try-locked so the t.mu → frag.mu order can never deadlock against a
// report path holding frag.mu.
func (t *traceTable) evictFragsLocked() {
	kept := t.order[:0]
	for _, k := range t.order {
		f := t.frags[k]
		if f == nil {
			continue
		}
		evict := false
		if f.mu.TryLock() {
			evict = f.pending == 0
			f.mu.Unlock()
		}
		if evict {
			delete(t.frags, k)
		} else {
			kept = append(kept, k)
		}
	}
	t.order = kept
}

// reportLocked sends the fragment's share to the lineage's origin: the
// nodes recorded since its last report and its cumulative channel
// counters. Called with f.mu held, which keeps one fragment's reports in
// order, so the origin can treat the latest arrival as the freshest
// counters. rec receives the latency if the report completes the lineage.
func (t *traceTable) reportLocked(f *traceFrag, proc int, rec func(int64)) {
	rep := lineageReport{ID: f.id, From: uint32(proc), Truncated: f.truncated, Nodes: f.nodes}
	for p := range f.sentTo {
		rep.Procs = append(rep.Procs, uint32(p))
	}
	for p := range f.recvFrom {
		if _, ok := f.sentTo[p]; !ok {
			rep.Procs = append(rep.Procs, uint32(p))
		}
	}
	slices.Sort(rep.Procs)
	rep.Sent = make([]uint64, len(rep.Procs))
	rep.Recv = make([]uint64, len(rep.Procs))
	for i, p := range rep.Procs {
		rep.Sent[i], rep.Recv[i] = f.sentTo[uint8(p)], f.recvFrom[uint8(p)]
	}
	if traceOrigin(f.id) == proc {
		t.mergeLocked(slotIndex(f.id), rep, rec)
	} else if t.ship != nil {
		t.ship(traceOrigin(f.id), rep)
	}
	f.nodes = f.nodes[:0]
}

// handleReport stitches a report shipped by another process into its
// lineage's slot.
func (t *traceTable) handleReport(rep lineageReport) {
	idx := slotIndex(rep.ID)
	if idx < 0 {
		return
	}
	s := &t.slots[idx]
	s.mu.Lock()
	if s.id == rep.ID {
		t.mergeLocked(idx, rep, t.record)
	}
	s.mu.Unlock()
}

// mergeLocked stitches a report into slot idx, replacing the reporter's
// previous counters (one process's reports arrive in the order they were
// made: the origin's directly, the others' over the per-node-pair FIFO
// connection), and finalizes the lineage once the origin has reported and
// every channel balances. Called with the slot's mutex held.
func (t *traceTable) mergeLocked(idx int, rep lineageReport, rec func(int64)) {
	s := &t.slots[idx]
	s.tree = append(s.tree, rep.Nodes...)
	rep.Nodes = nil
	s.reports[uint8(rep.From)] = rep
	if _, ok := s.reports[uint8(traceOrigin(s.id))]; !ok {
		return
	}
	truncated := false
	for p, rp := range s.reports {
		for i, q := range rp.Procs {
			sent, recv := s.reports[uint8(q)].counts(uint32(p))
			if rp.Sent[i] != recv || rp.Recv[i] != sent {
				return
			}
		}
		truncated = truncated || rp.Truncated
	}
	t.finalizeLocked(idx, time.Now().UnixNano(), truncated, rec)
}

// counts returns the report's counters for its channel to and from
// process p.
func (r lineageReport) counts(p uint32) (sent, recv uint64) {
	for i, q := range r.Procs {
		if q == p {
			return r.Sent[i], r.Recv[i]
		}
	}
	return 0, 0
}

// finalizeLocked completes the lineage in slot idx, hands its node list to
// the done ring and frees the slot. rec, when non-nil, receives the
// ingest-to-quiescence latency in nanoseconds. Called with the slot's
// mutex held.
func (t *traceTable) finalizeLocked(idx int, now int64, truncated bool, rec func(int64)) {
	s := &t.slots[idx]
	done := Lineage{
		ID:             s.id,
		StartUnixNanos: s.startNS,
		Latency:        time.Duration(now - s.startNS),
		Truncated:      truncated,
		Nodes:          s.tree,
	}
	s.id, s.tree = 0, nil
	if rec != nil {
		rec(int64(done.Latency))
	}
	t.sampled.Add(1)
	t.active.Add(-1)

	t.mu.Lock()
	if t.keep > 0 {
		if len(t.done) < t.keep {
			t.done = append(t.done, done)
		} else {
			t.done[t.next] = done
			t.next = (t.next + 1) % t.keep
		}
	}
	t.free = append(t.free, uint8(idx))
	t.mu.Unlock()
}

// lineages returns the retained completed lineages, oldest first.
func (t *traceTable) lineages() []Lineage {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Lineage, 0, len(t.done))
	out = append(out, t.done[t.next:]...)
	out = append(out, t.done[:t.next]...)
	return out
}

// Lineages returns the completed causal trees of the most recent sampled
// cascades, oldest first (up to Options.LineageKeep of them). Lineages are
// immutable copies, so this is legal in every lifecycle state and never
// blocks event processing. Nil when sampling is disabled.
func (e *Engine) Lineages() []Lineage {
	if e.traces == nil {
		return nil
	}
	return e.traces.lineages()
}
