package core

import (
	"testing"

	"incregraph/internal/graph"
)

// labelStub is undirected min-label propagation (CC) with a vertex's own
// label at v+1, implementing the WitnessProgram hooks the way algo.CC does,
// for white-box tests of the delete path's certificate (deletion.go).
type labelStub struct{}

func seedLabel(v graph.VertexID) uint64 { return uint64(v) + 1 }

func (labelStub) Init(*Ctx) {}

func (labelStub) OnAdd(c *Ctx, _ graph.VertexID, _ graph.Weight) {
	if c.Value() == Unset {
		c.SetValue(seedLabel(c.Vertex()))
	}
}

func (s labelStub) OnReverseAdd(c *Ctx, nbr graph.VertexID, nbrVal uint64, w graph.Weight) {
	s.OnUpdate(c, nbr, nbrVal, w)
}

// OnUpdate first seeds a vertex that has no label yet, as OnAdd does: a
// vertex's previous-version state starts unlabelled when the vertex was
// created after the snapshot marker.
func (s labelStub) OnUpdate(c *Ctx, from graph.VertexID, fromVal uint64, w graph.Weight) {
	s.OnAdd(c, from, w)
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
	addLocalEdges(r, edges, vs)
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

// addLocalEdges adds to r each half of every edge whose source endpoint is
// in local (a rank holds only its own vertices' halves).
func addLocalEdges[T any](r *rank, edges [][2]graph.VertexID, local map[graph.VertexID]T) {
	for _, ed := range edges {
		for _, half := range [2][2]graph.VertexID{ed, {ed[1], ed[0]}} {
			if _, ok := local[half[0]]; ok {
				slot, _, _ := r.store.AddEdge(half[0], half[1], 1, 0)
				r.growValues(slot)
			}
		}
	}
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

// bitStub is a two-source Multi S-T: bit i of a vertex's bitmap is set
// once it is connected to src[i]. Its hooks are algo.MultiST's.
type bitStub struct{ src [2]graph.VertexID }

func (s bitStub) Init(c *Ctx) {
	for i, v := range s.src {
		if c.Vertex() == v {
			c.SetValue(c.Value() | 1<<i)
			c.UpdateNbrs(c.Value())
		}
	}
}

func (bitStub) OnAdd(*Ctx, graph.VertexID, graph.Weight) {}

func (s bitStub) OnReverseAdd(c *Ctx, nbr graph.VertexID, nbrVal uint64, w graph.Weight) {
	s.OnUpdate(c, nbr, nbrVal, w)
}

func (bitStub) OnUpdate(c *Ctx, from graph.VertexID, fromVal uint64, _ graph.Weight) {
	switch cur := c.Value(); {
	case cur|fromVal != cur:
		c.SetValue(cur | fromVal)
		c.UpdateNbrs(cur | fromVal)
	case cur != fromVal:
		c.UpdateNbr(from, cur)
	}
}

func (bitStub) WitnessLanes() int                        { return 2 }
func (bitStub) ChangedLanes(before, after uint64) uint64 { return after &^ before }
func (bitStub) Reseed(c *Ctx, lanes uint64)              { c.SetValue(c.Value() &^ lanes) }
func (bitStub) Reproduces(parent uint64, _ graph.Weight, child uint64) uint64 {
	return parent & child
}

func (s bitStub) SeedLanes(v graph.VertexID, val uint64) uint64 {
	seeds := ^val
	for i, src := range s.src {
		if v == src {
			seeds |= 1 << i
		}
	}
	return seeds
}

var _ WitnessProgram = bitStub{}

// TestRewitnessMultiLane: on a two-lane bitmap, deleting v–a dooms only the
// lane a witnesses at v; the other lane, witnessed by c, is safe. In
// "local" the doomed lane 1 has a certified same-rank parent b, which holds
// bit 1 from source s1, so the witness re-points and nothing floods. In
// "remote" the doomed lane 0's only other holder is a vertex on rank 1,
// whose state cannot be read, so the delete floods and resets both
// witnessed lanes.
func TestRewitnessMultiLane(t *testing.T) {
	ids, far := localIDs(t, 6)
	src := [2]graph.VertexID{ids[0], ids[1]}
	a, b, c, v := ids[2], ids[3], ids[4], ids[5]
	for _, tc := range []struct {
		name    string
		doomed  int            // the lane a witnesses at v
		cand    graph.VertexID // v's other neighbour holding the doomed bit
		repoint bool
	}{
		{name: "local", doomed: 1, cand: b, repoint: true},
		{name: "remote", doomed: 0, cand: far},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New(Options{Ranks: 2, Undirected: true}, bitStub{src: src})
			r := e.ranks[0]
			d, safe := tc.doomed, 1-tc.doomed
			// A zero witness entry plants no witness: the sources' own bits
			// are roots.
			type bitPlant struct {
				val  uint64
				wits [2]graph.VertexID
			}
			var cWits, vWits [2]graph.VertexID
			cWits[safe] = src[safe]
			vWits[d], vWits[safe] = a, c
			vs := map[graph.VertexID]bitPlant{
				src[0]: {val: 0b01},
				src[1]: {val: 0b10},
				a:      {val: 0b11, wits: src},
				c:      {val: 1 << safe, wits: cWits},
				v:      {val: 0b11, wits: vWits},
			}
			edges := [][2]graph.VertexID{{src[0], a}, {src[1], a}, {src[0], c}, {src[1], c},
				{a, v}, {c, v}, {v, tc.cand}}
			if tc.cand == b {
				var bWits [2]graph.VertexID
				bWits[d] = src[d]
				vs[b] = bitPlant{val: 1 << d, wits: bWits}
				edges = append(edges, [2]graph.VertexID{src[d], b})
			}
			addLocalEdges(r, edges, vs)
			for id, p := range vs {
				slot, _ := r.store.EnsureVertex(id)
				r.growValues(slot)
				r.values[0][slot] = p.val
				for lane, wit := range p.wits {
					if wit != 0 {
						r.witMask[0][slot] |= 1 << lane
						r.wits[0][int(slot)*2+lane] = wit
					}
				}
			}
			n := deleteWorld{e, r}.del(v, a)
			slot, _ := r.store.SlotOf(v)
			val, mask := r.values[0][slot], r.witMask[0][slot]
			wits := r.wits[0][int(slot)*2 : int(slot)*2+2]
			rewitnessed := e.EngineStats().Rewitnessed
			if !tc.repoint {
				if n == 0 || rewitnessed != 0 {
					t.Fatalf("only candidate on rank 1: %d INVALIDATEs, Rewitnessed = %d", n, rewitnessed)
				}
				if val != 0 || mask != 0 {
					t.Fatalf("flooded vertex not reset: val %#b mask %#b", val, mask)
				}
				return
			}
			if n != 0 || rewitnessed != 1 {
				t.Fatalf("certified same-rank parent: %d INVALIDATEs, Rewitnessed = %d", n, rewitnessed)
			}
			if val != 0b11 || mask != 0b11 || wits[d] != tc.cand || wits[safe] != c {
				t.Fatalf("after re-pointing: val %#b mask %#b wits %v, want lane %d at %d, lane %d at %d",
					val, mask, wits, d, tc.cand, safe, c)
			}
		})
	}
}
