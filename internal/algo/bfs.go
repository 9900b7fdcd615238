// Package algo implements the paper's four incremental REMO algorithms
// (§IV) — Breadth First Search, Single Source Shortest Path, Connected
// Components, and Multi S-T Connectivity — plus the degree-tracking example
// of §II-A and widest path. Every REMO program here also takes edge
// deletions (the §VI-B extension) through the engine's parent-witness
// protocol, by implementing core.WitnessProgram.
//
// Each is a vertex program over the core engine's event callbacks. All
// follow the REMO contract: the local state identified in §II-B evolves
// monotonically toward a bound (levels/costs/labels only decrease,
// connectivity bitmaps only grow), and a callback propagates only when it
// improves state — which is what makes fully asynchronous, concurrent
// processing converge to the deterministic answer.
package algo

import (
	"incregraph/internal/core"
	"incregraph/internal/graph"
)

// norm maps the engine's Unset sentinel to Infinity for the distance
// algorithms: a vertex no event has touched is at unknown (infinite)
// distance (the paper's `if this.value == 0: this.value = MAX_INTEGER`).
func norm(v uint64) uint64 {
	if v == core.Unset {
		return core.Infinity
	}
	return v
}

// BFS is the incremental Breadth First Search of Algorithm 4: level 1 at
// the source, minimum hop count + 1 elsewhere, maintained under edge
// insertions. Call Engine.InitVertex to choose the source (at any time).
//
// Directed selects directed propagation: values flow only along edge
// direction, and OnAdd pushes the source vertex's level across a new
// out-edge. In the default undirected mode the engine's REVERSE_ADD
// protocol delivers the equivalent information.
type BFS struct {
	Directed bool
}

// Name implements core.Named.
func (BFS) Name() string { return "bfs" }

// Init makes the visited vertex the traversal source.
func (b BFS) Init(ctx *core.Ctx) {
	ctx.SetValue(1)
	ctx.UpdateNbrs(1)
}

// OnAdd gives a brand-new vertex its "infinite" level; in directed mode it
// also pushes the current level across the new edge.
func (b BFS) OnAdd(ctx *core.Ctx, nbr graph.VertexID, w graph.Weight) {
	if ctx.Value() == core.Unset {
		ctx.SetValue(core.Infinity)
		return
	}
	if b.Directed {
		if v := ctx.Value(); v != core.Infinity {
			ctx.UpdateNbr(nbr, v)
		}
	}
}

// OnReverseAdd initializes a new vertex, then treats the notification as an
// update from the first endpoint (Algorithm 4: "the rest of the logic is
// the same as update step").
func (b BFS) OnReverseAdd(ctx *core.Ctx, nbr graph.VertexID, nbrVal uint64, w graph.Weight) {
	if ctx.Value() == core.Unset {
		ctx.SetValue(core.Infinity)
	}
	b.OnUpdate(ctx, nbr, nbrVal, w)
}

// OnUpdate is the recursive step: adopt a shorter level and propagate, or
// notify the visitor back when this vertex knows a shorter path (§II-B
// cases i-iii).
func (b BFS) OnUpdate(ctx *core.Ctx, from graph.VertexID, fromVal uint64, w graph.Weight) {
	cur := norm(ctx.Value())
	fv := norm(fromVal)
	switch {
	case fv != core.Infinity && cur > fv+1:
		// They offer a shorter path: adopt and propagate (case iii).
		ctx.SetValue(fv + 1)
		ctx.UpdateNbrs(fv + 1)
	case !b.Directed && cur != core.Infinity && (fv == core.Infinity || fv > cur+1):
		// We know a shorter path: notify back the visitor.
		ctx.UpdateNbr(from, cur)
	}
}

// Combine implements core.Combiner: of two same-weight level offers to one
// vertex, the lower subsumes the higher (Unset means "no path offered").
func (BFS) Combine(old, new uint64) uint64 { return combineMin(old, new) }

// WitnessLanes implements core.WitnessProgram: the level is one scalar.
func (BFS) WitnessLanes() int { return 1 }

// ChangedLanes reports real level progress. The Unset→Infinity
// initialization is not progress (both mean "no path"), so it records no
// witness.
func (BFS) ChangedLanes(before, after uint64) uint64 {
	if norm(before) != norm(after) {
		return 1
	}
	return 0
}

// Reseed restores "no path known": the engine re-learns the level from the
// INVALIDATE cascade's intact frontier.
func (BFS) Reseed(ctx *core.Ctx, lanes uint64) {
	ctx.SetValue(core.Infinity)
}
