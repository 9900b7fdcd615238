package core

import "incregraph/internal/graph"

// Unset is the value of a vertex no event has touched yet. The paper's
// pseudocode tests `this.value == 0` for "new vertex"; programs that need a
// different sentinel (e.g. BFS's "infinity") overwrite it in OnAdd.
const Unset uint64 = 0

// Infinity is the conventional "no path yet" value used by the distance
// algorithms (the paper's MAX_INTEGER).
const Infinity = ^uint64(0)

// Program is a REMO vertex program: the user-defined callbacks of the
// programming model (§III-A). Each callback executes at exactly one vertex
// on the rank that owns it, with exclusive access to that vertex's local
// state through the Ctx. Callbacks must follow the REMO contract: state
// moves monotonically toward a bound, and an event that does not improve
// state must not propagate — this is what guarantees convergence and
// termination under asynchrony (§II-B, §II-D).
//
// Callbacks must be pure with respect to everything except the Ctx: the
// same Program instance runs concurrently on every rank.
type Program interface {
	// Init instantiates the algorithm at a vertex (e.g. the BFS source).
	Init(ctx *Ctx)
	// OnAdd fires at the edge source when a directed edge is inserted;
	// nbr is the new out-neighbour. The topology is already updated.
	OnAdd(ctx *Ctx, nbr graph.VertexID, w graph.Weight)
	// OnReverseAdd fires at the second endpoint of an undirected edge;
	// nbr is the first endpoint and nbrVal its value when the edge was
	// inserted there. The reverse edge is already in the local topology.
	OnReverseAdd(ctx *Ctx, nbr graph.VertexID, nbrVal uint64, w graph.Weight)
	// OnUpdate fires when a neighbour propagates its value (the recursive
	// step of §II-B).
	OnUpdate(ctx *Ctx, from graph.VertexID, fromVal uint64, w graph.Weight)
}

// DeleteAware is implemented by programs that additionally support the
// decremental events of the §VI-B extension.
type DeleteAware interface {
	Program
	// OnDelete fires at the edge source after the directed edge to nbr is
	// removed from the local topology.
	OnDelete(ctx *Ctx, nbr graph.VertexID, w graph.Weight)
	// OnReverseDelete fires at the second endpoint of an undirected edge
	// deletion, after the reverse edge is removed locally.
	OnReverseDelete(ctx *Ctx, nbr graph.VertexID, nbrVal uint64, w graph.Weight)
}

// WitnessProgram is implemented by REMO programs that support edge
// deletion through the parent-witness protocol (DESIGN.md "Deletions:
// witnesses and bounded invalidation"). The engine — not the program —
// maintains one supporting-parent witness per vertex per lane: whenever a
// live-view OnUpdate/OnReverseAdd callback improves a lane of the vertex's
// value, the engine records the visiting neighbour as that lane's witness.
// On edge deletion, lanes whose witness is the removed neighbour are
// unsafe (RisGraph's classification): the engine clears them, calls Reseed
// to restore the lane's pre-knowledge value, and starts a bounded
// INVALIDATE cascade; safe deletions cost nothing beyond the topology
// update. Witness deletion is only active in the engine's undirected mode.
//
// Programs implement three pure helpers over their value encoding; they
// never see the witnesses themselves.
type WitnessProgram interface {
	Program
	// WitnessLanes is the number of independently-witnessed lanes packed
	// into the vertex value: 1 for scalar values (level, cost, label,
	// width), one per source bit for Multi S-T bitmaps. At most 64.
	WitnessLanes() int
	// ChangedLanes reports which lanes of the value a callback improved
	// (bit i set = lane i progressed), given the value before and after.
	// Zero means no real progress: no witness is recorded.
	ChangedLanes(before, after uint64) uint64
	// Reseed restores the vertex's value for the given unsafe lanes to its
	// bottom ("no knowledge") state, as if the lanes had never been
	// improved. The engine already cleared the lanes' witnesses; Reseed
	// must only touch ctx.SetValue (no propagation — the engine's
	// INVALIDATE cascade handles neighbours).
	Reseed(ctx *Ctx, lanes uint64)
}

// SignalAware is implemented by programs that accept user-generated
// attribute/signal events (Engine.Signal): external values delivered to a
// single vertex, outside the topology-event flow. The REMO contract still
// applies — a signal should move state monotonically or not at all.
type SignalAware interface {
	Program
	// OnSignal fires at the signalled vertex with the user's value.
	OnSignal(ctx *Ctx, val uint64)
}

// Combiner is optionally implemented by programs whose UPDATE events may
// be coalesced Pregel-style while buffered: when two UPDATEs to the same
// vertex share snapshot sequence and edge weight, the engine may replace
// them with a single UPDATE carrying Combine(old, new) — see coalesce.go
// and DESIGN.md "Combining is sound for REMO".
//
// The contract: for a fixed receiving vertex and weight, the combined
// value must subsume both inputs under the program's monotone order
// (processing the combined UPDATE must drive the receiver's state at least
// as far as processing both originals), and any effect OnUpdate addresses
// back at the event's From (notify-backs) must be safe to drop for the
// losing input. Min/max/set-union over the propagated value satisfy this
// for BFS, SSSP, CC, widest-path, and Multi S-T.
type Combiner interface {
	Program
	// Combine merges two UPDATE values bound for the same vertex.
	Combine(old, new uint64) uint64
}

// Named is optionally implemented by programs to label themselves in stats
// and harness output.
type Named interface {
	Name() string
}

// view selects which state version a Ctx reads and writes: the live state,
// or the previous-version state of an in-flight snapshot (§III-D).
type view uint8

const (
	viewLive view = iota
	viewPrev
)

// Ctx is a callback's window onto the vertex it is visiting: its identity,
// its local state for the running program, and the emission primitives
// (update_nbrs / update_single_nbr of Algorithm 3). A Ctx is only valid
// for the duration of one callback invocation: the rank reuses it for the
// next one, so a callback must not retain it.
type Ctx struct {
	r    *rank
	algo uint8
	slot graph.Slot
	id   graph.VertexID
	seq  uint32 // version the current event belongs to (children inherit)
	view view
}

// Vertex returns the ID of the vertex being visited.
func (c *Ctx) Vertex() graph.VertexID { return c.id }

// Algo returns the index of the running program.
func (c *Ctx) Algo() int { return int(c.algo) }

// Rank returns the rank executing the callback.
func (c *Ctx) Rank() int { return c.r.id }

// Value returns the vertex's local state for the running program.
func (c *Ctx) Value() uint64 {
	vals := c.values()
	if int(c.slot) >= len(vals) {
		return Unset
	}
	return vals[c.slot]
}

// SetValue writes the vertex's local state. On the live view it also
// evaluates registered triggers (§III-E) — local state can be observed,
// and callbacks fired, the moment it changes.
func (c *Ctx) SetValue(v uint64) {
	if c.view == viewPrev {
		c.r.setPrevValue(c.algo, c.slot, v)
		return
	}
	c.r.values[c.algo][c.slot] = v
	if c.r.pub != nil {
		c.r.pub.Touch(c.slot)
	}
	c.r.checkTriggers(c.algo, c.slot, c.id, v)
}

// Degree returns the vertex's current out-degree.
func (c *Ctx) Degree() int { return c.r.store.Degree(c.slot) }

// EdgeWeight returns the weight of the edge to nbr, if present.
func (c *Ctx) EdgeWeight(nbr graph.VertexID) (graph.Weight, bool) {
	return c.r.store.EdgeWeight(c.slot, nbr)
}

// UpdateNbrs propagates val to every neighbour (the paper's update_nbrs):
// each neighbour receives an UPDATE event carrying val and the weight of
// the connecting edge. On the previous-version view, edges added after the
// snapshot marker are invisible.
func (c *Ctx) UpdateNbrs(val uint64) {
	gen := c.r.genOf(c.algo, c.slot)
	emit := func(nbr graph.VertexID, w graph.Weight) bool {
		c.r.emit(Event{
			Kind: KindUpdate, Algo: c.algo, Seq: c.seq, Gen: gen,
			To: nbr, From: c.id, Val: val, W: w,
		})
		return true
	}
	if c.view == viewPrev {
		c.r.store.NeighborsBefore(c.slot, c.r.snapMarker, emit)
		return
	}
	c.r.store.Neighbors(c.slot, emit)
}

// UpdateNbr propagates val to a single neighbour (update_single_nbr),
// typically to "notify back the visitor" with a better value.
func (c *Ctx) UpdateNbr(nbr graph.VertexID, val uint64) {
	w, _ := c.r.store.EdgeWeight(c.slot, nbr)
	c.r.emit(Event{
		Kind: KindUpdate, Algo: c.algo, Seq: c.seq,
		Gen: c.r.genOf(c.algo, c.slot),
		To:  nbr, From: c.id, Val: val, W: w,
	})
}

// Neighbors iterates the vertex's adjacency (view-aware), for programs
// that need custom propagation patterns.
func (c *Ctx) Neighbors(fn func(nbr graph.VertexID, w graph.Weight) bool) {
	if c.view == viewPrev {
		c.r.store.NeighborsBefore(c.slot, c.r.snapMarker, fn)
		return
	}
	c.r.store.Neighbors(c.slot, fn)
}

// values returns the state array the Ctx's view addresses.
func (c *Ctx) values() []uint64 {
	if c.view == viewPrev {
		return c.r.prevValues[c.algo]
	}
	return c.r.values[c.algo]
}
