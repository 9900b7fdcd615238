package algo

import (
	"fmt"

	"incregraph/internal/core"
	"incregraph/internal/graph"
)

// MultiST is the incremental Multi S-T Connectivity of Algorithm 7: each
// vertex maintains a bitmap of the sources it is connected to, and bitmaps
// only ever gain bits — the convex monotone state of §II-B ("the same
// argument can be extended to multi S-T connectivity by using a bitmap").
// Up to 64 independent sources are supported, matching the paper's largest
// configuration (Fig. 7).
//
// Construct with NewMultiST, then Engine.InitVertex each source (at any
// time) to start its flow.
type MultiST struct {
	sources map[graph.VertexID]int
	n       int
}

// NewMultiST builds the program for the given source set. Source i owns
// bitmap bit i.
func NewMultiST(sources []graph.VertexID) *MultiST {
	if len(sources) > 64 {
		panic(fmt.Sprintf("algo: MultiST supports at most 64 sources, got %d", len(sources)))
	}
	m := &MultiST{sources: make(map[graph.VertexID]int, len(sources)), n: len(sources)}
	for i, s := range sources {
		if _, dup := m.sources[s]; !dup {
			m.sources[s] = i
		}
	}
	return m
}

// Name implements core.Named.
func (*MultiST) Name() string { return "st" }

// Sources returns the number of sources.
func (m *MultiST) Sources() int { return m.n }

// SourceBit returns the bitmap bit index of source v, if v is a source.
func (m *MultiST) SourceBit(v graph.VertexID) (int, bool) {
	i, ok := m.sources[v]
	return i, ok
}

// Init begins a flow from the visited vertex: "this.value = this.value ∪
// this.ID" (Algorithm 7), expressed as setting the source's own bit.
func (m *MultiST) Init(ctx *core.Ctx) {
	i, ok := m.sources[ctx.Vertex()]
	if !ok {
		return
	}
	v := ctx.Value() | 1<<uint(i)
	ctx.SetValue(v)
	ctx.UpdateNbrs(v)
}

// OnAdd does nothing but wait (Algorithm 7).
func (m *MultiST) OnAdd(ctx *core.Ctx, nbr graph.VertexID, w graph.Weight) {}

// OnReverseAdd applies the update step against the first endpoint's set.
func (m *MultiST) OnReverseAdd(ctx *core.Ctx, nbr graph.VertexID, nbrVal uint64, w graph.Weight) {
	m.OnUpdate(ctx, nbr, nbrVal, w)
}

// OnUpdate exchanges connectivity sets: a superset notifies the visitor
// back; a subset (or a mix) adopts the union and broadcasts it.
func (m *MultiST) OnUpdate(ctx *core.Ctx, from graph.VertexID, fromVal uint64, w graph.Weight) {
	cur := ctx.Value()
	union := cur | fromVal
	switch {
	case cur == fromVal:
		// Identical sets: nothing to do.
	case union == cur:
		// We are a pure superset: notify back the visitor.
		ctx.UpdateNbr(from, cur)
	default:
		// We are a subset, or the sets mix: adopt the union and
		// broadcast to all neighbours (which includes the visitor).
		ctx.SetValue(union)
		ctx.UpdateNbrs(union)
	}
}

// Combine implements core.Combiner: connectivity bitmaps merge by union,
// which subsumes delivering each set separately.
func (*MultiST) Combine(old, new uint64) uint64 { return old | new }

// WitnessLanes implements core.WitnessProgram: each source bit is an
// independently-witnessed lane (a vertex may be connected to source 0
// through one edge and source 1 through another).
func (m *MultiST) WitnessLanes() int { return max(m.n, 1) }

// ChangedLanes reports the source bits the callback newly gained.
func (m *MultiST) ChangedLanes(before, after uint64) uint64 {
	return after &^ before
}

// Reseed drops the unsafe source bits; intact lanes keep their bits (and
// witnesses).
func (m *MultiST) Reseed(ctx *core.Ctx, lanes uint64) {
	ctx.SetValue(ctx.Value() &^ lanes)
}

// Reproduces implements core.WitnessProgram: a bitmap passes unchanged over
// any edge, so a parent reproduces exactly the source bits both hold.
func (*MultiST) Reproduces(parent uint64, w graph.Weight, child uint64) uint64 {
	return parent & child
}

// SeedLanes implements core.WitnessProgram: an unset bit needs no parent,
// and neither does a source's own bit (its Init sets it, with no witness).
func (m *MultiST) SeedLanes(v graph.VertexID, val uint64) uint64 {
	seeds := ^val
	if i, ok := m.sources[v]; ok {
		seeds |= 1 << uint(i)
	}
	return seeds
}
