package algo

import (
	"incregraph/internal/core"
	"incregraph/internal/graph"
)

// CC is the incremental Connected Components of Algorithm 6: label
// propagation where every vertex initially assumes the hashed label of its
// own ID (graph.CCLabel) and the minimum label in a component dominates.
// The monotonically evolving state of §II-B: a vertex's label only ever
// decreases, reaching the component-wide minimum. No Init is required —
// "the CC algorithm does not require an initiating vertex" (§IV).
//
// CC requires the engine's undirected mode (component connectivity is a
// symmetric relation).
type CC struct{}

// Name implements core.Named.
func (CC) Name() string { return "cc" }

// Init is not used by CC; labelling happens on edge addition.
func (CC) Init(ctx *core.Ctx) {}

// label returns the vertex's effective label, assuming self-domination if
// no event has labelled it yet.
func ccValue(ctx *core.Ctx) uint64 {
	if v := ctx.Value(); v != core.Unset {
		return v
	}
	v := graph.CCLabel(ctx.Vertex())
	ctx.SetValue(v)
	return v
}

// OnAdd labels a new vertex with its own hash (Algorithm 6: "if we are a
// new vertex, label us").
func (CC) OnAdd(ctx *core.Ctx, nbr graph.VertexID, w graph.Weight) {
	ccValue(ctx)
}

// OnReverseAdd labels a new vertex, then applies the update step against
// the first endpoint's label.
func (c CC) OnReverseAdd(ctx *core.Ctx, nbr graph.VertexID, nbrVal uint64, w graph.Weight) {
	ccValue(ctx)
	c.OnUpdate(ctx, nbr, nbrVal, w)
}

// OnUpdate merges component labels: the smaller label wins and floods; a
// vertex holding a smaller label notifies the visitor back.
func (CC) OnUpdate(ctx *core.Ctx, from graph.VertexID, fromVal uint64, w graph.Weight) {
	cur := ccValue(ctx)
	if fromVal == core.Unset {
		// The visitor carried no label (directed-mode edge case): offer ours.
		ctx.UpdateNbr(from, cur)
		return
	}
	switch {
	case cur < fromVal:
		// Our component dominates: notify back the visitor.
		ctx.UpdateNbr(from, cur)
	case cur > fromVal:
		// Their component dominates: adopt and flood.
		ctx.SetValue(fromVal)
		ctx.UpdateNbrs(fromVal)
	}
}

// Combine implements core.Combiner: the smaller component label subsumes
// the larger (Unset means "no label carried" and any real label wins).
func (CC) Combine(old, new uint64) uint64 { return combineMin(old, new) }

// WitnessLanes implements core.WitnessProgram: the label is one scalar.
func (CC) WitnessLanes() int { return 1 }

// ChangedLanes reports label progress. The Unset→self-label instantiation
// inside ccValue counts as a change and attributes a witness to the
// visiting neighbour, even when the vertex keeps its own label. That is
// safe but not free: deleting that edge used to flood the whole component,
// only to Reseed the identical label. SeedLanes lets the delete path drop
// such a witness instead.
func (CC) ChangedLanes(before, after uint64) uint64 {
	if before != after {
		return 1
	}
	return 0
}

// Reseed restores self-domination: the vertex re-assumes its own hashed
// label and re-learns the component minimum from the intact frontier.
func (CC) Reseed(ctx *core.Ctx, lanes uint64) {
	ctx.SetValue(graph.CCLabel(ctx.Vertex()))
}

// Reproduces implements core.WitnessProgram: a label passes unchanged over any
// edge.
func (CC) Reproduces(parent uint64, w graph.Weight, child uint64) uint64 {
	if parent != core.Unset && parent == child {
		return 1
	}
	return 0
}

// SeedLanes implements core.WitnessProgram: a vertex's own label needs no
// parent. That includes a component minimum whose first label arrived
// with a REVERSE_ADD and so carries a witness (see ChangedLanes).
func (CC) SeedLanes(v graph.VertexID, val uint64) uint64 {
	if val == graph.CCLabel(v) {
		return 1
	}
	return 0
}
