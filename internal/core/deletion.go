package core

import (
	"math/bits"

	"incregraph/internal/graph"
)

// The deletion protocol (DESIGN.md "Deletions: witnesses and bounded
// invalidation"): witness bookkeeping, the generation guard, the delete
// dispatch, certified re-pointing and the invalidation flood.

// genOf reads a vertex's witness generation (0 for non-witness programs
// and vertices never invalidated) — the generation every value the vertex
// emits is stamped with.
func (r *rank) genOf(algo uint8, slot graph.Slot) uint32 {
	g := r.gens[algo]
	if int(slot) >= len(g) {
		return 0
	}
	return g[slot]
}

// admitGen is the generation guard a witness program's carried value
// (UPDATE, REVERSE_ADD) passes before its callback; it reports whether the
// value may be applied. A value from an older generation may predate our
// invalidation: it is dropped, and the sender is asked to re-offer under
// ours (solicit), since dropping alone could lose the last offer of a
// still-valid value. A value from a cascade we have not been visited by is
// applied only after the visit: merely adopting its generation would let
// our stale lanes re-emit under it, past other vertices' guards. A new edge
// can deliver such a value ahead of the flood, which then travels that
// edge too.
func (r *rank) admitGen(wp WitnessProgram, ev *Event, slot graph.Slot) bool {
	switch gen := r.genOf(ev.Algo, slot); {
	case ev.Gen < gen:
		r.solicit(ev, slot, gen)
		return false
	case ev.Gen > gen:
		r.visit(wp, ev.Algo, slot, ev.To, ev.Seq, ev.Gen)
	}
	return true
}

// unsafeLanes is the RisGraph-style safe/unsafe classification: the lanes
// of (algo, slot) whose recorded supporting witness is nbr. A deletion (or
// upstream invalidation) of the edge to nbr dooms exactly these lanes;
// every other lane's value is supported by a surviving parent and is safe.
func (r *rank) unsafeLanes(algo uint8, slot graph.Slot, nbr graph.VertexID) uint64 {
	masks := r.witMask[algo]
	if int(slot) >= len(masks) || masks[slot] == 0 {
		return 0
	}
	var unsafe uint64
	base := int(slot) * r.witLanes[algo]
	for m := masks[slot]; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros64(m)
		if r.wits[algo][base+lane] == nbr {
			unsafe |= 1 << lane
		}
	}
	return unsafe
}

// recordWitness runs after a live-view OnUpdate/OnReverseAdd callback for
// a witness program: lanes the callback improved adopt ev.From as their
// supporting parent. The stored generation is never touched here — a
// vertex's generation changes only in visit, which pairs the adoption of
// a newer generation with the reset of every witnessed lane. (Callers
// pass admitGen before applying any carried value, so ev.Gen <= gens[slot]
// always holds at this point; adopting ev.Gen here without that reset
// would let stale lanes re-emit under the new generation and slip past
// other vertices' generation guards.)
func (r *rank) recordWitness(wp WitnessProgram, ev *Event, slot graph.Slot, before uint64) {
	lanes := wp.ChangedLanes(before, r.values[ev.Algo][slot])
	if lanes == 0 {
		return
	}
	r.witMask[ev.Algo][slot] |= lanes
	base := int(slot) * r.witLanes[ev.Algo]
	for m := lanes; m != 0; m &= m - 1 {
		r.wits[ev.Algo][base+bits.TrailingZeros64(m)] = ev.From
	}
}

// clearWitness marks lanes self-supported (Init/Signal progress: the value
// came from outside the topology, so no edge deletion can doom it).
func (r *rank) clearWitness(wp WitnessProgram, algo uint8, slot graph.Slot, before uint64) {
	if lanes := wp.ChangedLanes(before, r.values[algo][slot]); lanes != 0 {
		r.witMask[algo][slot] &^= lanes
	}
}

// invalidate starts an invalidation cascade at (algo, slot): the root
// visit, under a globally fresh cascade generation. One generation is
// minted per cascade — every vertex the flood reaches adopts this same
// number, so "my generation >= the event's" is a visited marker and each
// vertex participates in a cascade at most once (generations are strictly
// increasing, so the marker can never be un-set). That visit-once bound is
// what makes the cascade terminate even when recorded witnesses form
// cycles (reset epochs can close honest cycles: a re-learns from b whose
// value earlier derived from a — see DESIGN.md "Deletions").
func (r *rank) invalidate(wp WitnessProgram, algo uint8, slot graph.Slot,
	id graph.VertexID, seq uint32) {
	r.visit(wp, algo, slot, id, seq, r.eng.nextGen())
}

// visit runs one vertex's participation in cascade generation gen: adopt
// the generation, reseed every witnessed lane (self-supported lanes —
// Init/Signal progress, a reseed bottom — survive: they are the frontier
// the region re-converges from), and flood INVALIDATE to every live
// neighbour. Resetting all witnessed lanes, not just the ones witnessing
// the cascade's sender, is what makes the protocol sound when witness
// pointers lie in cycles ("doomed islands" whose members support each
// other): the flood covers the entire live component without trusting any
// witness direction, and after the visit every value the vertex emits is
// stamped gen — so, inductively, any value accepted under gen derives
// from self-supported lanes over live edges only.
//
// The flood doubles as the re-seed: each INVALIDATE carries the sender's
// post-reset value, which an already-visited receiver applies as an
// ordinary update. Because every neighbour gets the INVALIDATE before any
// later gen-stamped traffic on the same FIFO channel, no value stamped
// gen can arrive anywhere before the visit that justifies it.
func (r *rank) visit(wp WitnessProgram, algo uint8, slot graph.Slot,
	id graph.VertexID, seq uint32, gen uint32) {
	r.gens[algo][slot] = gen
	if lanes := r.witMask[algo][slot]; lanes != 0 {
		r.witMask[algo][slot] = 0
		wp.Reseed(r.ctx(algo, slot, id, seq, viewLive), lanes)
	}
	val := r.values[algo][slot]
	r.store.Neighbors(slot, func(nbr graph.VertexID, w graph.Weight) bool {
		r.emit(Event{Kind: KindInvalidate, Algo: algo, Seq: seq, Gen: gen,
			To: nbr, From: id, Val: val, W: w})
		return true
	})
}

// handleInvalidate receives one step of an invalidation flood from
// ev.From. An unvisited vertex (generation below the cascade's) visits —
// reset plus onward flood; a visited one absorbs the step. Either way the
// carried value is then applied over the surviving edge like a plain
// update: the flood re-offers every surviving value to every reset
// vertex, so the region re-converges from the self-supported frontier
// with no separate re-seeding round. A step from a cascade older than the
// vertex's generation applies nothing (its value may predate our reset)
// but echoes our value back — the sender is freshly reset and owed a
// re-offer under our newer generation.
func (r *rank) handleInvalidate(ev *Event) {
	wp := r.eng.witness[ev.Algo]
	if wp == nil {
		return
	}
	slot, ok := r.store.SlotOf(ev.To)
	if !ok {
		return
	}
	r.growValues(slot)
	own := r.genOf(ev.Algo, slot)
	switch {
	case own < ev.Gen:
		r.visit(wp, ev.Algo, slot, ev.To, ev.Seq, ev.Gen)
	case own > ev.Gen:
		if w, present := r.store.EdgeWeight(slot, ev.From); present {
			r.emit(Event{Kind: KindUpdate, Algo: ev.Algo, Seq: ev.Seq, Gen: own,
				To: ev.From, From: ev.To, Val: r.values[ev.Algo][slot], W: w})
		}
		return
	}
	w, present := r.store.EdgeWeight(slot, ev.From)
	if !present {
		return
	}
	before := r.values[ev.Algo][slot]
	r.eng.programs[ev.Algo].OnUpdate(r.ctx(ev.Algo, slot, ev.To, ev.Seq, viewLive), ev.From, ev.Val, w)
	r.recordWitness(wp, ev, slot, before)
}

// solicit answers a stale-generation value offer: an INVALIDATE back to
// the sender carrying our generation and value. An unvisited sender is
// pulled into the cascade (visit: reset plus flood — it would have been
// reached by the flood over this same edge anyway); a visited one applies
// our value and its own re-offer has either already flooded or arrives as
// ordinary updates. Either way the value exchange this edge owes
// completes under the new generation.
func (r *rank) solicit(ev *Event, slot graph.Slot, gen uint32) {
	w, present := r.store.EdgeWeight(slot, ev.From)
	if !present {
		return
	}
	r.emit(Event{Kind: KindInvalidate, Algo: ev.Algo, Seq: ev.Seq, Gen: gen,
		To: ev.From, From: ev.To, Val: r.values[ev.Algo][slot], W: w})
}

func (r *rank) handleDelete(ev *Event) {
	if !r.store.DeleteEdge(ev.To, ev.From) {
		return
	}
	r.removedEdge = true
	// The source vertex normally still exists after the removal (the store
	// never deletes vertices), but a slot without grown state arrays — or
	// no slot at all — must not index another vertex's value: run the
	// programs' halves only for a resolvable vertex and fall back to Unset
	// for the reverse notification's carried value.
	slot, ok := r.store.SlotOf(ev.To)
	if ok {
		r.touchEdges(slot)
		r.growValues(slot)
		for a := range r.eng.programs {
			r.deleteFor(uint8(a), slot, ev)
		}
	}
	if r.eng.opts.Undirected {
		if len(r.eng.programs) == 0 {
			r.emit(Event{Kind: KindReverseDelete, Algo: NoAlgo, Seq: ev.Seq,
				To: ev.From, From: ev.To, W: ev.W})
		}
		for a := range r.eng.programs {
			val := Unset
			if ok {
				val = r.values[a][slot]
			}
			r.emit(Event{Kind: KindReverseDelete, Algo: uint8(a), Seq: ev.Seq,
				To: ev.From, From: ev.To, Val: val, W: ev.W})
		}
	}
}

func (r *rank) handleReverseDelete(ev *Event) {
	if !r.store.DeleteEdge(ev.To, ev.From) {
		return
	}
	r.removedEdge = true
	slot, ok := r.store.SlotOf(ev.To)
	if !ok {
		return
	}
	// Before the program-level early return: the reverse edge is gone from
	// the store regardless of what the programs do.
	r.touchEdges(slot)
	if ev.Algo == NoAlgo {
		return
	}
	r.growValues(slot)
	r.deleteFor(ev.Algo, slot, ev)
}

// deleteFor runs program algo's half of an edge deletion (DELETE or
// REVERSE_DELETE ev) at the vertex at slot, after the edge left the store:
// the witness classification for a witness program, the OnDelete or
// OnReverseDelete callback for a DeleteAware one, nothing otherwise.
func (r *rank) deleteFor(algo uint8, slot graph.Slot, ev *Event) {
	if wp := r.eng.witness[algo]; wp != nil {
		r.witnessDelete(wp, algo, slot, ev)
		return
	}
	da, isDA := r.eng.programs[algo].(DeleteAware)
	if !isDA {
		return
	}
	ctx := r.ctx(algo, slot, ev.To, ev.Seq, viewLive)
	if ev.Kind == KindDelete {
		da.OnDelete(ctx, ev.From, ev.W)
	} else {
		da.OnReverseDelete(ctx, ev.From, ev.Val, ev.W)
	}
}

// witnessDelete classifies one endpoint of an edge deletion for a witness
// program. A safe endpoint (no lane supported by the removed neighbour)
// ends here, costing one witness probe; on churn-cc-r1 85% of endpoints
// are safe. An unsafe one first tries to re-point its doomed witnesses at
// certified parents (rewitness), and starts the invalidation cascade only
// when that fails.
func (r *rank) witnessDelete(wp WitnessProgram, algo uint8, slot graph.Slot, ev *Event) {
	if r.eng.simSkipInvalidate {
		return
	}
	doomed := r.unsafeLanes(algo, slot, ev.From)
	if doomed == 0 {
		return
	}
	if r.rewitness(wp, algo, slot, ev.To, doomed) {
		r.counters.rewitnessed.Add(1)
		return
	}
	r.invalidate(wp, algo, slot, ev.To, ev.Seq)
}

// certifyHops bounds the witness walk of grounded. It is a safety valve
// for witness cycles, not a tuning knob: chains that certify are short.
const certifyHops = 16

// rewitness keeps the value of vertex id (at slot) across the loss of the
// witnesses of its doomed lanes: a doomed lane already holding id's own
// seed needs no parent and just drops its witness; every other doomed lane
// re-points at a live neighbour whose support grounded certifies. It
// reports false when some lane finds no such neighbour; the caller then
// floods, which resets every witnessed lane and so makes any witness
// written here irrelevant. Values, generations and neighbours are never
// touched. See DESIGN.md "Deletions" for why the certificate is sound.
func (r *rank) rewitness(wp WitnessProgram, algo uint8, slot graph.Slot, id graph.VertexID, doomed uint64) bool {
	val := r.values[algo][slot]
	seeds := wp.SeedLanes(id, val) & doomed
	need := doomed &^ seeds
	base := int(slot) * r.witLanes[algo]
	r.store.Neighbors(slot, func(u graph.VertexID, w graph.Weight) bool {
		for m := need; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros64(m)
			if r.grounded(wp, algo, slot, lane, u, w) {
				r.wits[algo][base+lane] = u
				need &^= 1 << lane
			}
		}
		return need != 0
	})
	if need != 0 {
		return false
	}
	r.witMask[algo][slot] &^= seeds
	return true
}

// grounded reports whether neighbour u, reached from the vertex at vslot
// over an edge of weight w, certifies lane of that vertex's value: the
// chain that starts with the step to u and follows the lane's witnesses
// reaches a root lane (witness bit clear, or the vertex's own seed) within
// certifyHops steps, where every vertex on it is held by this rank and
// carries the deleting vertex's generation, and every step child→parent is
// an edge live in the child's adjacency whose offer of the parent's value
// reproduces the child's lane exactly. A chain that comes back to the
// deleting vertex fails without a check of its own: the doomed lane still
// names the deleted neighbour, and that edge is already gone.
func (r *rank) grounded(wp WitnessProgram, algo uint8, vslot graph.Slot,
	lane int, u graph.VertexID, w graph.Weight) bool {
	bit := uint64(1) << lane
	gen := r.gens[algo][vslot]
	child := r.values[algo][vslot]
	for hop := 0; hop < certifyHops; hop++ {
		// The store holds exactly this rank's vertices, so a miss is a
		// parent on another rank, whose state cannot be read here.
		us, local := r.store.SlotOf(u)
		if !local {
			return false
		}
		parent := r.values[algo][us]
		if wp.Reproduces(parent, w, child)&bit == 0 {
			return false
		}
		if r.eng.simUncertified {
			return true
		}
		if r.gens[algo][us] != gen {
			return false
		}
		if r.witMask[algo][us]&bit == 0 || wp.SeedLanes(u, parent)&bit != 0 {
			return true
		}
		next := r.wits[algo][int(us)*r.witLanes[algo]+lane]
		var live bool
		if w, live = r.store.EdgeWeight(us, next); !live {
			return false
		}
		child, u = parent, next
	}
	return false
}
