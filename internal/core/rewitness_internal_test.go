package core

import (
	"testing"

	"incregraph/internal/graph"
)

// labelStub is undirected min-label propagation (CC) with a vertex's own
// label at v+1, implementing the Certifier hooks the way algo.CC does, for
// white-box tests of the delete path's certificate.
type labelStub struct{}

func seedLabel(v graph.VertexID) uint64 { return uint64(v) + 1 }

func (labelStub) Init(*Ctx) {}

func (labelStub) OnAdd(c *Ctx, _ graph.VertexID, _ graph.Weight) {
	if c.Value() == Unset {
		c.SetValue(seedLabel(c.Vertex()))
	}
}

func (s labelStub) OnReverseAdd(c *Ctx, nbr graph.VertexID, nbrVal uint64, w graph.Weight) {
	s.OnAdd(c, nbr, w)
	s.OnUpdate(c, nbr, nbrVal, w)
}

func (labelStub) OnUpdate(c *Ctx, from graph.VertexID, fromVal uint64, _ graph.Weight) {
	switch cur := c.Value(); {
	case fromVal != Unset && fromVal < cur:
		c.SetValue(fromVal)
		c.UpdateNbrs(fromVal)
	case fromVal == Unset || fromVal > cur:
		c.UpdateNbr(from, cur)
	}
}

func (labelStub) WitnessLanes() int       { return 1 }
func (labelStub) Reseed(c *Ctx, _ uint64) { c.SetValue(seedLabel(c.Vertex())) }

func (labelStub) ChangedLanes(before, after uint64) uint64 {
	if before != after {
		return 1
	}
	return 0
}

func (labelStub) Reproduces(parent uint64, _ graph.Weight, child uint64) uint64 {
	if parent != Unset && parent == child {
		return 1
	}
	return 0
}

func (labelStub) SeedLanes(v graph.VertexID, val uint64) uint64 {
	if val == seedLabel(v) {
		return 1
	}
	return 0
}

// plant is one vertex's planted state: its label, witness generation and,
// when witnessed, the witness.
type plant struct {
	val       uint64
	gen       uint32
	wit       graph.VertexID
	witnessed bool
}

// deleteWorld is rank 0 of a two-rank labelStub engine with state planted
// directly: the local vertices in vs (all owned by rank 0) and both halves
// of every edge whose endpoint is local.
type deleteWorld struct {
	e *Engine
	r *rank
}

func newDeleteWorld(t *testing.T, edges [][2]graph.VertexID, vs map[graph.VertexID]plant) deleteWorld {
	t.Helper()
	e := New(Options{Ranks: 2, Undirected: true}, labelStub{})
	r := e.ranks[0]
	for _, ed := range edges {
		for _, half := range [2][2]graph.VertexID{ed, {ed[1], ed[0]}} {
			if _, local := vs[half[0]]; local {
				slot, _, _ := r.store.AddEdge(half[0], half[1], 1, 0)
				r.growValues(slot)
			}
		}
	}
	for v, p := range vs {
		if e.part.Owner(v) != 0 {
			t.Fatalf("planted vertex %d is owned by rank %d", v, e.part.Owner(v))
		}
		slot, _ := r.store.EnsureVertex(v)
		r.growValues(slot)
		r.values[0][slot], r.gens[0][slot] = p.val, p.gen
		if p.witnessed {
			r.witMask[0][slot], r.wits[0][slot] = 1, p.wit
		}
	}
	return deleteWorld{e, r}
}

// del processes the deletion of v's half of edge v–p and returns how many
// INVALIDATE events it emitted (to this rank or the other).
func (w deleteWorld) del(v, p graph.VertexID) int {
	w.r.self, w.r.selfHead = w.r.self[:0], 0
	ev := Event{Kind: KindDelete, To: v, From: p, W: 1}
	w.r.process(&ev)
	n := 0
	for _, out := range append([][]Event{w.r.self}, w.r.out...) {
		for _, oe := range out {
			if oe.Kind == KindInvalidate {
				n++
			}
		}
	}
	return n
}

func (w deleteWorld) state(v graph.VertexID) plant {
	slot, _ := w.r.store.SlotOf(v)
	return plant{val: w.r.values[0][slot], gen: w.r.gens[0][slot],
		wit: w.r.wits[0][slot], witnessed: w.r.witMask[0][slot] != 0}
}

// localIDs returns n vertex IDs owned by rank 0 of a two-rank engine, in
// ascending order, plus one owned by rank 1.
func localIDs(t *testing.T, n int) ([]graph.VertexID, graph.VertexID) {
	t.Helper()
	part := New(Options{Ranks: 2}).part
	var ids []graph.VertexID
	remote := graph.VertexID(0)
	for v := graph.VertexID(1); len(ids) < n || remote == 0; v++ {
		switch {
		case part.Owner(v) == 1 && remote == 0:
			remote = v
		case part.Owner(v) == 0 && len(ids) < n:
			ids = append(ids, v)
		}
	}
	return ids, remote
}

// certWorld is the acceptance world every rejection case perturbs: root R
// holds its own label L; a and b both learned L from R; v learned L from a
// and also neighbours b. Deleting v–a dooms v's lane, and b is a certified
// alternate: b reproduces L, b's witness step b→R is live, R is a root.
func certWorld(ids []graph.VertexID) (edges [][2]graph.VertexID, vs map[graph.VertexID]plant) {
	R, a, b, v := ids[0], ids[1], ids[2], ids[3]
	L := seedLabel(R)
	edges = [][2]graph.VertexID{{R, a}, {a, v}, {v, b}, {b, R}}
	vs = map[graph.VertexID]plant{
		R: {val: L},
		a: {val: L, wit: R, witnessed: true},
		b: {val: L, wit: R, witnessed: true},
		v: {val: L, wit: a, witnessed: true},
	}
	return edges, vs
}

// TestRewitnessCertifiedParent: an unsafe delete with a certified
// alternate parent re-points the witness, keeps the value and the
// generation, emits no INVALIDATE, and is counted.
func TestRewitnessCertifiedParent(t *testing.T) {
	ids, _ := localIDs(t, 4)
	a, b, v := ids[1], ids[2], ids[3]
	edges, vs := certWorld(ids)
	w := newDeleteWorld(t, edges, vs)
	before := w.state(v)
	if n := w.del(v, a); n != 0 {
		t.Fatalf("certified alternate still flooded: %d INVALIDATEs", n)
	}
	after := w.state(v)
	if after.val != before.val || after.gen != before.gen {
		t.Fatalf("re-pointing changed the vertex: %+v → %+v", before, after)
	}
	if !after.witnessed || after.wit != b {
		t.Fatalf("witness = %+v, want re-pointed at %d", after, b)
	}
	if got := w.e.EngineStats().Rewitnessed; got != 1 {
		t.Fatalf("EngineStats.Rewitnessed = %d, want 1", got)
	}
}

// TestRewitnessOwnSeed: a doomed lane that already holds the vertex's own
// seed (CC's first-label witness) needs no parent: the witness is dropped
// and nothing floods.
func TestRewitnessOwnSeed(t *testing.T) {
	ids, _ := localIDs(t, 2)
	a, v := ids[1], ids[0]
	w := newDeleteWorld(t, [][2]graph.VertexID{{a, v}}, map[graph.VertexID]plant{
		a: {val: seedLabel(v)},
		v: {val: seedLabel(v), wit: a, witnessed: true},
	})
	if n := w.del(v, a); n != 0 {
		t.Fatalf("own-seed lane flooded: %d INVALIDATEs", n)
	}
	if st := w.state(v); st.witnessed || st.val != seedLabel(v) {
		t.Fatalf("own-seed lane after delete: %+v, want unwitnessed at its seed", st)
	}
}

// TestRewitnessRejections: each way a candidate can fail the certificate
// falls back to today's flood, leaving the doomed lane reset.
func TestRewitnessRejections(t *testing.T) {
	ids, remote := localIDs(t, 5)
	R, a, b, c, v := ids[0], ids[1], ids[2], ids[3], ids[4]
	cases := []struct {
		name    string
		perturb func(edges [][2]graph.VertexID, vs map[graph.VertexID]plant) [][2]graph.VertexID
		// after runs once the world is built, for perturbations of the
		// store itself.
		after func(w deleteWorld)
	}{
		{name: "dead step", after: func(w deleteWorld) {
			// b still names R as its witness, but b→R is gone from b's
			// adjacency.
			w.r.store.DeleteEdge(b, R)
		}},
		{name: "step to another rank", perturb: func(edges [][2]graph.VertexID, vs map[graph.VertexID]plant) [][2]graph.VertexID {
			vs[b] = plant{val: vs[b].val, wit: remote, witnessed: true}
			return append(edges, [2]graph.VertexID{b, remote})
		}},
		{name: "generation mismatch", perturb: func(edges [][2]graph.VertexID, vs map[graph.VertexID]plant) [][2]graph.VertexID {
			p := vs[b]
			p.gen = 1
			vs[b] = p
			return edges
		}},
		{name: "witness cycle hits the hop bound", perturb: func(edges [][2]graph.VertexID, vs map[graph.VertexID]plant) [][2]graph.VertexID {
			vs[b] = plant{val: vs[b].val, wit: c, witnessed: true}
			vs[c] = plant{val: vs[b].val, wit: b, witnessed: true}
			return append(edges, [2]graph.VertexID{b, c})
		}},
		{name: "chain through v", perturb: func(edges [][2]graph.VertexID, vs map[graph.VertexID]plant) [][2]graph.VertexID {
			vs[b] = plant{val: vs[b].val, wit: v, witnessed: true}
			return edges
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			edges, vs := certWorld([]graph.VertexID{R, a, b, v})
			if tc.perturb != nil {
				edges = tc.perturb(edges, vs)
			}
			w := newDeleteWorld(t, edges, vs)
			if tc.after != nil {
				tc.after(w)
			}
			if n := w.del(v, a); n == 0 {
				t.Fatal("uncertified alternate accepted: no INVALIDATE emitted")
			}
			if st := w.state(v); st.witnessed || st.val != seedLabel(v) {
				t.Fatalf("flooded vertex not reset: %+v", st)
			}
			if got := w.e.EngineStats().Rewitnessed; got != 0 {
				t.Fatalf("EngineStats.Rewitnessed = %d after a flood", got)
			}
		})
	}
}
