package algo

import (
	"incregraph/internal/core"
	"incregraph/internal/graph"
)

// SSSP is the incremental Single Source Shortest Path of Algorithm 5:
// "almost identical code" to BFS, with the path cost being the sum of edge
// weights instead of the hop count. Source cost is 1 (the paper's offset
// convention); every other vertex converges to 1 + the minimum weight sum.
// Edge re-insertions may only lower a weight (the store enforces this),
// preserving convex monotonicity (§II-B).
type SSSP struct {
	Directed bool
}

// Name implements core.Named.
func (SSSP) Name() string { return "sssp" }

// Init makes the visited vertex the source.
func (s SSSP) Init(ctx *core.Ctx) {
	ctx.SetValue(1)
	ctx.UpdateNbrs(1)
}

// OnAdd initializes a new vertex to infinite cost; in directed mode it
// pushes the current cost across the new edge.
func (s SSSP) OnAdd(ctx *core.Ctx, nbr graph.VertexID, w graph.Weight) {
	if ctx.Value() == core.Unset {
		ctx.SetValue(core.Infinity)
		return
	}
	if s.Directed {
		if v := ctx.Value(); v != core.Infinity {
			ctx.UpdateNbr(nbr, v)
		}
	}
}

// OnReverseAdd initializes a new vertex, then applies the update step.
func (s SSSP) OnReverseAdd(ctx *core.Ctx, nbr graph.VertexID, nbrVal uint64, w graph.Weight) {
	if ctx.Value() == core.Unset {
		ctx.SetValue(core.Infinity)
	}
	s.OnUpdate(ctx, nbr, nbrVal, w)
}

// OnUpdate adopts a cheaper path and propagates, or notifies the visitor
// back when this vertex knows a cheaper one.
func (s SSSP) OnUpdate(ctx *core.Ctx, from graph.VertexID, fromVal uint64, w graph.Weight) {
	cur := norm(ctx.Value())
	fv := norm(fromVal)
	switch {
	case fv != core.Infinity && cur > fv+uint64(w):
		ctx.SetValue(fv + uint64(w))
		ctx.UpdateNbrs(fv + uint64(w))
	case !s.Directed && cur != core.Infinity && (fv == core.Infinity || fv > cur+uint64(w)):
		ctx.UpdateNbr(from, cur)
	}
}

// Combine implements core.Combiner: of two distance offers to one vertex
// across the same edge weight, the cheaper subsumes the costlier (Unset
// means "no path offered").
func (SSSP) Combine(old, new uint64) uint64 { return combineMin(old, new) }

// WitnessLanes implements core.WitnessProgram: the path cost is one scalar.
func (SSSP) WitnessLanes() int { return 1 }

// ChangedLanes reports real cost progress (Unset→Infinity initialization
// is not progress).
func (SSSP) ChangedLanes(before, after uint64) uint64 {
	if norm(before) != norm(after) {
		return 1
	}
	return 0
}

// Reseed restores "no path known".
func (SSSP) Reseed(ctx *core.Ctx, lanes uint64) {
	ctx.SetValue(core.Infinity)
}

// Reproduces implements core.WitnessProgram: a parent at a finite cost offers
// its cost plus the edge weight.
func (SSSP) Reproduces(parent uint64, w graph.Weight, child uint64) uint64 {
	if p := norm(parent); p != core.Infinity && p+uint64(w) == norm(child) {
		return 1
	}
	return 0
}

// SeedLanes implements core.WitnessProgram: "no path" is the only cost a vertex
// holds without a parent.
func (SSSP) SeedLanes(v graph.VertexID, val uint64) uint64 {
	if norm(val) == core.Infinity {
		return 1
	}
	return 0
}
