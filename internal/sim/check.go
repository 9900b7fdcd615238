package sim

import (
	"fmt"
	"sort"

	"incregraph/internal/core"
	"incregraph/internal/graph"
	"incregraph/internal/serve"
)

// order is the monotone direction of a REMO program's per-vertex state:
// the descent of the distance algorithms (under the Unset→Infinity
// normalization), the ascent of widest-path, or the bit-growth of multi
// S-T connectivity.
type order uint8

const (
	orderDescend order = iota
	orderAscend
	orderBits
)

func normInf(v uint64) uint64 {
	if v == core.Unset {
		return core.Infinity
	}
	return v
}

// subsumes reports whether value a is at least as converged as value b
// under the order — the relation every state transition, query pair, and
// coalescer merge must respect.
func (o order) subsumes(a, b uint64) bool {
	switch o {
	case orderDescend:
		return normInf(a) <= normInf(b)
	case orderAscend:
		return a >= b
	default: // orderBits
		return b&^a == 0
	}
}

// maxViolations caps how many violations one run records; a broken engine
// tends to fail everywhere, and the first few are the informative ones.
const maxViolations = 16

// checker is the invariant observer of one simulated run: it shadows
// every flushed batch to verify per-sender FIFO delivery, watches each
// processed event's snapshot version, audits in-flight-ring conservation
// after every scheduler step, and (through the monitored program wrapper)
// asserts that no callback ever moves a vertex against the program's
// monotone direction.
type checker struct {
	d     *core.SimDriver
	ord   order
	ranks int
	// churn relaxes the checks that assume values only ever move forward:
	// with live deletions a witness invalidation legitimately regresses a
	// vertex between two observations. Structural invariants (FIFO,
	// conservation, versioning, lineage exactness) and the upper bounds
	// (full-stream fixpoint, fabrication) stay fully armed; only the
	// between-observation regression checks, the publish-time floor, and
	// the final-subsumes-queries check stand down.
	churn bool
	// multiProc marks a loopback-transport run: lineage node IDs are full
	// [proc:8][index:24] words and remote fragments are stitched in at
	// completion time, so the sequential-ID and parent-precedes checks of
	// the single-process recorder give way to per-process ordering and
	// parent-existence checks (see checkLineages).
	multiProc bool

	violations []string
	// fifo[{sender,dest}] is the shadow queue of events flushed from
	// sender to dest and not yet observed at dest's drain.
	fifo      map[[2]int][]core.Event
	lastQuery map[graph.VertexID]uint64
	processed int
	merges    int
	// counts[slot] is the created and done totals at the previous step.
	counts [4][2]uint64
	// traced[{lineage, node}] collects every processed event that carried
	// that trace, for the post-run lineage exactness check.
	traced map[[2]uint32][]core.Event

	// MVCC read-plane state (Config.Serve runs only). serveFloor[r] is the
	// static fixpoint of the last globally-quiescent ingestion prefix seen
	// before rank r's most recent publish — a sound lower bound for every
	// value r's segment serves from then on. fullOracle bounds reads from
	// above; owner maps a vertex to its publishing rank.
	serveFloor []map[graph.VertexID]uint64
	lastServe  map[graph.VertexID]serveObs
	fullOracle map[graph.VertexID]uint64
	owner      func(graph.VertexID) int
	serveReads int
}

// serveObs is the most recent read-plane observation of one vertex.
type serveObs struct {
	epoch uint64
	val   uint64
	found bool
}

func newChecker(ord order, ranks int) *checker {
	return &checker{
		ord:        ord,
		ranks:      ranks,
		fifo:       make(map[[2]int][]core.Event),
		lastQuery:  make(map[graph.VertexID]uint64),
		traced:     make(map[[2]uint32][]core.Event),
		serveFloor: make([]map[graph.VertexID]uint64, ranks),
		lastServe:  make(map[graph.VertexID]serveObs),
	}
}

func (c *checker) violatef(format string, args ...any) {
	if len(c.violations) < maxViolations {
		c.violations = append(c.violations, fmt.Sprintf(format, args...))
	}
}

// onFlush records the true order of a flushed batch (installed as the
// driver's flush hook, which runs before any mutation corrupts it).
func (c *checker) onFlush(from, dest int, batch []core.Event) {
	key := [2]int{from, dest}
	c.fifo[key] = append(c.fifo[key], batch...)
}

// onProcess validates one event as the destination rank picks it up.
// lane is the mailbox lane it arrived on, or -1 for the self ring.
func (c *checker) onProcess(dest, lane int, ev core.Event) {
	c.processed++
	if id, node, ok := core.DecodeTrace(ev.Trace); ok {
		c.traced[[2]uint32{id, node}] = append(c.traced[[2]uint32{id, node}], ev)
	}
	// Snapshot-version consistency: snapshots are serialized, so the only
	// sequences that may be live are the current one and — while a
	// snapshot is still collecting — the one before its marker.
	seq := c.d.SnapSeq()
	if ev.Seq != seq && !(c.d.SnapshotActive() && ev.Seq+1 == seq) {
		c.violatef("version: %s event at vertex %d carries seq %d with engine at seq %d (snapshot active: %v)",
			ev.Kind, ev.To, ev.Seq, seq, c.d.SnapshotActive())
	}
	if lane < 0 || lane >= c.ranks {
		// Self-ring and external-lane events have no flush record.
		return
	}
	key := [2]int{lane, dest}
	q := c.fifo[key]
	if len(q) == 0 {
		c.violatef("fifo: rank %d drained a %s event for vertex %d from sender %d that was never flushed",
			dest, ev.Kind, ev.To, lane)
		return
	}
	if q[0] != ev {
		c.violatef("fifo: sender %d → rank %d delivered %s(to=%d val=%d seq=%d), expected %s(to=%d val=%d seq=%d) — per-sender order broken",
			lane, dest, ev.Kind, ev.To, ev.Val, ev.Seq, q[0].Kind, q[0].To, q[0].Val, q[0].Seq)
	}
	c.fifo[key] = q[1:]
}

// onMerge audits one coalescer merge: the merged value must subsume both
// inputs, or the merge may have discarded progress.
func (c *checker) onMerge(algo uint8, to graph.VertexID, old, offered, merged uint64) {
	c.merges++
	if !c.ord.subsumes(merged, old) || !c.ord.subsumes(merged, offered) {
		c.violatef("combine: merge for vertex %d produced %d from (%d, %d), which does not subsume both inputs",
			to, merged, old, offered)
	}
}

// afterStep audits the termination counts per snapshot-sequence slot: no
// count below its value at the previous step, and created minus done
// exactly equal to the number of that slot's events sitting in mailbox
// lanes, outbound buffers, and self rings. Every scheduler step ends at an
// event boundary where this must hold exactly.
func (c *checker) afterStep() {
	buf := c.d.Buffered()
	for i := range buf {
		created, done := c.d.SlotCounts(i)
		if prev := c.counts[i]; created < prev[0] || done < prev[1] {
			c.violatef("conservation: slot %d counts fell from %d created, %d done to %d, %d",
				i, prev[0], prev[1], created, done)
		}
		c.counts[i] = [2]uint64{created, done}
		if got := int64(created - done); got != int64(buf[i]) {
			c.violatef("conservation: slot %d counts %d created, %d done, but %d events are buffered",
				i, created, done, buf[i])
		}
	}
}

// observeQuery folds a live local-state observation into the monotone
// history: a vertex may never disappear or regress between observations.
func (c *checker) observeQuery(v graph.VertexID, res core.QueryResult) {
	prev, seen := c.lastQuery[v]
	if seen && !res.Exists {
		c.violatef("query: vertex %d existed (value %d) and then disappeared", v, prev)
		return
	}
	if !res.Exists {
		return
	}
	if seen && !c.churn && !c.ord.subsumes(res.Value, prev) {
		c.violatef("query: vertex %d regressed from %d to %d between observations", v, prev, res.Value)
	}
	c.lastQuery[v] = res.Value
}

// observeServe validates one MVCC read-plane observation against the
// stale-but-consistent contract. Per vertex: the epoch never regresses, a
// published vertex never vanishes, and values follow the program's
// monotone direction. Every served value is also sandwiched — at least as
// converged as its owner rank's publish-time floor (serveFloor) and no
// more converged than the full-stream fixpoint — and a Found answer for a
// vertex the full stream never creates is a fabrication.
func (c *checker) observeServe(v graph.VertexID, val serve.Value, epoch uint64) {
	c.serveReads++
	prev, seen := c.lastServe[v]
	if seen && epoch < prev.epoch {
		c.violatef("serve: vertex %d read at epoch %d after epoch %d", v, epoch, prev.epoch)
	}
	if seen && prev.found && !val.Found {
		c.violatef("serve: vertex %d was published (value %d) and then vanished", v, prev.val)
	}
	if val.Found {
		if seen && prev.found && !c.churn && !c.ord.subsumes(val.Val, prev.val) {
			c.violatef("serve: vertex %d regressed from %d to %d between reads", v, prev.val, val.Val)
		}
		full, exists := c.fullOracle[v]
		switch {
		case !exists:
			c.violatef("serve: vertex %d (value %d) served but it never exists in the full-stream state", v, val.Val)
		case !c.ord.subsumes(full, val.Val):
			c.violatef("serve: vertex %d served at %d, ahead of the full-stream fixpoint %d", v, val.Val, full)
		}
		if fl := c.serveFloor[c.owner(v)]; fl != nil {
			floor, ok := fl[v]
			if !ok {
				floor = bottom(c.ord)
			}
			if !c.ord.subsumes(val.Val, floor) {
				c.violatef("serve: vertex %d served at %d, behind its owner's publish-time floor %d", v, val.Val, floor)
			}
		}
	}
	c.lastServe[v] = serveObs{epoch: epoch, val: val.Val, found: val.Found}
}

// finalChecks runs once the engine has terminated: every flushed event
// must have been delivered, and the final state must subsume every value
// ever observed by a query.
func (c *checker) finalChecks(final map[graph.VertexID]uint64) {
	keys := make([][2]int, 0, len(c.fifo))
	for k := range c.fifo {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i][0] < keys[j][0] || (keys[i][0] == keys[j][0] && keys[i][1] < keys[j][1])
	})
	for _, k := range keys {
		if n := len(c.fifo[k]); n != 0 {
			c.violatef("fifo: %d events flushed %d → %d were never delivered", n, k[0], k[1])
		}
	}
	qs := make([]graph.VertexID, 0, len(c.lastQuery))
	for v := range c.lastQuery {
		qs = append(qs, v)
	}
	sort.Slice(qs, func(i, j int) bool { return qs[i] < qs[j] })
	for _, v := range qs {
		fv, ok := final[v]
		if !ok {
			c.violatef("final: vertex %d was observed at %d but is absent from the final state", v, c.lastQuery[v])
			continue
		}
		// A mid-run query can legitimately outrun the final state when a
		// later deletion took its path away.
		if !c.churn && !c.ord.subsumes(fv, c.lastQuery[v]) {
			c.violatef("final: vertex %d finished at %d, behind the %d a mid-run query observed", v, fv, c.lastQuery[v])
		}
	}
}

// checkLineages validates every completed lineage tree the engine retained
// against the checker's own record of processed events — the exactness
// claim of cascade tracing. For each recorded node: parents precede
// children, non-merged nodes were processed exactly once with the identity
// the lineage recorded, and merged (coalesced-away) nodes were never
// processed. Val comparison is skipped for UPDATEs, whose emission-time
// snapshot legitimately predates merges absorbed while buffered.
func (c *checker) checkLineages(ls []core.Lineage) {
	for _, l := range ls {
		if len(l.Nodes) == 0 {
			c.violatef("lineage %d: completed with no nodes", l.ID)
			continue
		}
		// Structural checks. Single-process lineages record node words that
		// degenerate to creation-order indices, so IDs are sequential and
		// every parent precedes its child. Multi-process lineages interleave
		// each process's sequential recording order, and a remote fragment is
		// stitched in only at completion — a node emitted on the origin by a
		// remote-caused event precedes its own parent in Nodes — so the
		// checks weaken to per-process index order plus parent existence.
		ids := make(map[uint32]bool, len(l.Nodes))
		for i := range l.Nodes {
			ids[l.Nodes[i].ID] = true
		}
		perProc := map[uint32]uint32{}
		for i, n := range l.Nodes {
			if c.multiProc {
				proc, idx := n.ID>>24, n.ID&0xffffff
				if idx != perProc[proc] {
					c.violatef("lineage %d: proc %d's node %d arrived out of recording order (want index %d)",
						l.ID, proc, n.ID, perProc[proc])
					continue
				}
				perProc[proc]++
				if i == 0 {
					if n.Parent != n.ID {
						c.violatef("lineage %d: root %d is not its own parent (%d)", l.ID, n.ID, n.Parent)
					}
				} else if !ids[n.Parent] && !l.Truncated {
					c.violatef("lineage %d: node %d's parent %d was never recorded", l.ID, n.ID, n.Parent)
				}
			} else {
				if n.ID != uint32(i) {
					c.violatef("lineage %d: node %d recorded with ID %d", l.ID, i, n.ID)
					continue
				}
				if i == 0 {
					if n.Parent != 0 {
						c.violatef("lineage %d: root has parent %d", l.ID, n.Parent)
					}
				} else if n.Parent >= n.ID {
					c.violatef("lineage %d: node %d's parent %d does not precede it", l.ID, n.ID, n.Parent)
				}
			}
			obs := c.traced[[2]uint32{l.ID, n.ID}]
			if n.Merged {
				if len(obs) != 0 {
					c.violatef("lineage %d: merged node %d was processed %d times (coalesced events must never be delivered)",
						l.ID, n.ID, len(obs))
				}
				continue
			}
			if len(obs) != 1 {
				c.violatef("lineage %d: node %d (%s to=%d) was processed %d times, want exactly once",
					l.ID, n.ID, n.Kind, n.To, len(obs))
				continue
			}
			ev := obs[0]
			if ev.Kind != n.Kind || ev.Algo != n.Algo || ev.To != n.To ||
				ev.From != n.From || ev.W != n.W || ev.Seq != n.Seq {
				c.violatef("lineage %d: node %d recorded %s(to=%d from=%d w=%d seq=%d) but %s(to=%d from=%d w=%d seq=%d) was processed",
					l.ID, n.ID, n.Kind, n.To, n.From, n.W, n.Seq,
					ev.Kind, ev.To, ev.From, ev.W, ev.Seq)
				continue
			}
			if n.Kind != core.KindUpdate && ev.Val != n.Val {
				c.violatef("lineage %d: node %d recorded val %d but was processed with val %d",
					l.ID, n.ID, n.Val, ev.Val)
			}
		}
	}
}

// monitored wraps a REMO program so every callback's effect on the
// visited vertex is checked against the program's monotone direction —
// on both the live view and (during snapshots) the previous-version view.
type monitored struct {
	inner core.Program
	chk   *checker
}

func (m monitored) guard(stage string, ctx *core.Ctx, f func()) {
	before := ctx.Value()
	f()
	if after := ctx.Value(); !m.chk.ord.subsumes(after, before) {
		m.chk.violatef("monotone: %s moved vertex %d from %d to %d against the program's direction",
			stage, ctx.Vertex(), before, after)
	}
}

func (m monitored) Init(ctx *core.Ctx) {
	m.guard("Init", ctx, func() { m.inner.Init(ctx) })
}

func (m monitored) OnAdd(ctx *core.Ctx, nbr graph.VertexID, w graph.Weight) {
	m.guard("OnAdd", ctx, func() { m.inner.OnAdd(ctx, nbr, w) })
}

func (m monitored) OnReverseAdd(ctx *core.Ctx, nbr graph.VertexID, nbrVal uint64, w graph.Weight) {
	m.guard("OnReverseAdd", ctx, func() { m.inner.OnReverseAdd(ctx, nbr, nbrVal, w) })
}

func (m monitored) OnUpdate(ctx *core.Ctx, from graph.VertexID, fromVal uint64, w graph.Weight) {
	m.guard("OnUpdate", ctx, func() { m.inner.OnUpdate(ctx, from, fromVal, w) })
}

// monitoredCombiner additionally forwards the Combine hook, so wrapping a
// Combiner does not silently disable coalescing.
type monitoredCombiner struct {
	monitored
	comb core.Combiner
}

func (m monitoredCombiner) Combine(old, new uint64) uint64 { return m.comb.Combine(old, new) }

// monitoredWitness additionally forwards the WitnessProgram hooks, so
// wrapping does not silently disable the deletion protocol (or turn every
// unsafe delete back into a flood, so that the sweep never reaches the
// re-pointing path). Reseed deliberately bypasses the monotone guard: a
// witness reset legitimately regresses the vertex, and the post-delete
// differential oracle (not the per-callback guard) is what validates it.
type monitoredWitness struct {
	monitored
	wit core.WitnessProgram
}

func (m monitoredWitness) WitnessLanes() int { return m.wit.WitnessLanes() }
func (m monitoredWitness) ChangedLanes(before, after uint64) uint64 {
	return m.wit.ChangedLanes(before, after)
}
func (m monitoredWitness) Reseed(ctx *core.Ctx, lanes uint64) { m.wit.Reseed(ctx, lanes) }
func (m monitoredWitness) Reproduces(parent uint64, w graph.Weight, child uint64) uint64 {
	return m.wit.Reproduces(parent, w, child)
}
func (m monitoredWitness) SeedLanes(v graph.VertexID, val uint64) uint64 {
	return m.wit.SeedLanes(v, val)
}

// monitoredWitnessCombiner carries both optional interfaces.
type monitoredWitnessCombiner struct {
	monitoredWitness
	comb core.Combiner
}

func (m monitoredWitnessCombiner) Combine(old, new uint64) uint64 { return m.comb.Combine(old, new) }

// monitor wraps p with monotonicity checking, preserving its Combiner and
// WitnessProgram implementations if it has them.
func monitor(p core.Program, chk *checker) core.Program {
	m := monitored{inner: p, chk: chk}
	comb, hasComb := p.(core.Combiner)
	wit, hasWit := p.(core.WitnessProgram)
	switch {
	case hasComb && hasWit:
		return monitoredWitnessCombiner{monitoredWitness{m, wit}, comb}
	case hasWit:
		return monitoredWitness{m, wit}
	case hasComb:
		return monitoredCombiner{m, comb}
	default:
		return m
	}
}
