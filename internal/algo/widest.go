package algo

import (
	"incregraph/internal/core"
	"incregraph/internal/graph"
)

// Widest is an incremental widest-path (maximum-bottleneck) algorithm — an
// additional REMO algorithm beyond the paper's four, demonstrating the
// §II-B recipe applied to a monotonically *increasing* state: each vertex
// stores the width of the widest path from the source (the maximum over
// paths of the minimum edge weight along the path). Adding an edge can
// only widen or preserve paths, state only grows, and it is bounded above
// by the source's width — a convex solution space, so asynchronous
// concurrent updates converge deterministically.
//
// The source (chosen via InitVertex) has width core.Infinity; Unset (0)
// means "no path yet". Applications: maximum-capacity routing, trust
// propagation, bandwidth-aware reachability.
type Widest struct {
	Directed bool
}

// Name implements core.Named.
func (Widest) Name() string { return "widest" }

// Init makes the visited vertex the source, with unbounded width.
func (wd Widest) Init(ctx *core.Ctx) {
	ctx.SetValue(core.Infinity)
	ctx.UpdateNbrs(core.Infinity)
}

// OnAdd pushes the current width across a new out-edge in directed mode;
// the undirected protocol handles it via OnReverseAdd.
func (wd Widest) OnAdd(ctx *core.Ctx, nbr graph.VertexID, w graph.Weight) {
	if wd.Directed {
		if v := ctx.Value(); v != core.Unset {
			ctx.UpdateNbr(nbr, v)
		}
	}
}

// OnReverseAdd applies the update step against the first endpoint's width.
func (wd Widest) OnReverseAdd(ctx *core.Ctx, nbr graph.VertexID, nbrVal uint64, w graph.Weight) {
	wd.OnUpdate(ctx, nbr, nbrVal, w)
}

// OnUpdate widens the vertex if the visitor offers a better bottleneck, or
// notifies the visitor back if this vertex can widen it.
func (wd Widest) OnUpdate(ctx *core.Ctx, from graph.VertexID, fromVal uint64, w graph.Weight) {
	cur := ctx.Value()
	// The bottleneck of extending the visitor's path across this edge.
	cand := fromVal
	if uint64(w) < cand {
		cand = uint64(w)
	}
	switch {
	case cand > cur:
		ctx.SetValue(cand)
		ctx.UpdateNbrs(cand)
	case !wd.Directed && cur != core.Unset:
		// Could we widen the visitor through this same edge?
		back := cur
		if uint64(w) < back {
			back = uint64(w)
		}
		if back > fromVal {
			ctx.UpdateNbr(from, cur)
		}
	}
}

// Combine implements core.Combiner: of two width offers across the same
// edge weight, the wider subsumes the narrower (Unset, zero, is the
// identity).
func (Widest) Combine(old, new uint64) uint64 {
	if new > old {
		return new
	}
	return old
}

// WitnessLanes implements core.WitnessProgram: the width is one scalar.
func (Widest) WitnessLanes() int { return 1 }

// ChangedLanes reports width progress.
func (Widest) ChangedLanes(before, after uint64) uint64 {
	if before != after {
		return 1
	}
	return 0
}

// Reseed restores "no path yet" (Unset).
func (Widest) Reseed(ctx *core.Ctx, lanes uint64) {
	ctx.SetValue(core.Unset)
}

// Reproduces implements core.WitnessProgram: a parent offers the narrower of
// its width and the edge's.
func (Widest) Reproduces(parent uint64, w graph.Weight, child uint64) uint64 {
	if child != core.Unset && min(parent, uint64(w)) == child {
		return 1
	}
	return 0
}

// SeedLanes implements core.WitnessProgram: "no path yet" is the only width a
// vertex holds without a parent.
func (Widest) SeedLanes(v graph.VertexID, val uint64) uint64 {
	if val == core.Unset {
		return 1
	}
	return 0
}
