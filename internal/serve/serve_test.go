package serve

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"incregraph/internal/graph"
	"incregraph/internal/partition"
)

func allLocal(int) bool { return true }

// onlyRank returns a local predicate admitting just r (cluster-mode shape).
func onlyRank(r int) func(int) bool { return func(i int) bool { return i == r } }

// pubWorld is a single-writer test harness standing in for a rank: a
// hybrid store, one value column, and a publisher. Like the engine's
// ranks, it touches a slot on every value write and every change to the
// slot's edge set.
type pubWorld struct {
	plane  *Plane
	pubs   []*Publisher
	part   partition.Partitioner
	stores []*graph.Store // per rank
	vals   [][]uint64     // per rank, algo 0
	events []uint64
}

func newPubWorld(ranks int) *pubWorld {
	part := partition.NewHashed(ranks)
	w := &pubWorld{
		plane:  NewPlane(part, 1, allLocal),
		part:   part,
		vals:   make([][]uint64, ranks),
		events: make([]uint64, ranks),
	}
	for r := 0; r < ranks; r++ {
		w.pubs = append(w.pubs, w.plane.Publisher(r))
		w.stores = append(w.stores, graph.NewStore(4)) // small threshold: indexes come and go
	}
	return w
}

// slot returns v's slot on its owner rank r, creating the vertex.
func (w *pubWorld) slot(r int, v graph.VertexID) graph.Slot {
	slot, created := w.stores[r].EnsureVertex(v)
	if created {
		w.vals[r] = append(w.vals[r], 0)
	}
	return slot
}

func (w *pubWorld) set(v graph.VertexID, val uint64) {
	r := w.part.Owner(v)
	slot := w.slot(r, v)
	w.vals[r][slot] = val
	w.pubs[r].Touch(slot)
	w.events[r]++
}

// addEdge inserts from->to, or merges the weight of an existing edge
// (WeightMin), which needs no Touch.
func (w *pubWorld) addEdge(from, to graph.VertexID, weight graph.Weight) {
	r := w.part.Owner(from)
	slot := w.slot(r, from)
	if _, _, isNew := w.stores[r].AddEdge(from, to, weight, 0); isNew {
		w.pubs[r].Touch(slot)
	}
	w.events[r]++
}

func (w *pubWorld) deleteEdge(from, to graph.VertexID) {
	r := w.part.Owner(from)
	if w.stores[r].DeleteEdge(from, to) {
		slot, _ := w.stores[r].SlotOf(from)
		w.pubs[r].Touch(slot)
	}
	w.events[r]++
}

func (w *pubWorld) publishAll() {
	for r, pub := range w.pubs {
		pub.Publish(w.stores[r], [][]uint64{w.vals[r]}, w.events[r])
	}
}

func TestPointLookup(t *testing.T) {
	w := newPubWorld(3)
	val, epoch := w.plane.Get(0, 7)
	if val.Found || epoch != 0 {
		t.Fatalf("unpublished plane served %+v at epoch %d", val, epoch)
	}
	w.set(7, 42)
	w.set(9, 11)
	w.publishAll()
	val, epoch = w.plane.Get(0, 7)
	if !val.Found || val.Val != 42 || epoch != 1 {
		t.Fatalf("got %+v at epoch %d, want val 42 at epoch 1", val, epoch)
	}
	if val, _ := w.plane.Get(0, 1234); val.Found {
		t.Fatalf("absent vertex served as found: %+v", val)
	}

	// Values written after publish are invisible until the next publish.
	w.set(7, 43)
	if val, _ := w.plane.Get(0, 7); val.Val != 42 {
		t.Fatalf("unpublished write leaked: %+v", val)
	}
	w.plane.Advance()
	w.publishAll()
	val, epoch = w.plane.Get(0, 7)
	if val.Val != 43 || epoch != 2 {
		t.Fatalf("got %+v at epoch %d, want 43 at epoch 2", val, epoch)
	}
}

func TestRestampKeepsContentBumpsEpoch(t *testing.T) {
	w := newPubWorld(1)
	w.set(1, 5)
	w.publishAll()
	st := w.plane.StatsSnapshot()
	if st.Publishes != 1 || st.Restamps != 0 {
		t.Fatalf("after first publish: %+v", st)
	}
	// No new events: advancing and republishing must restamp in place.
	w.plane.Advance()
	w.publishAll()
	st = w.plane.StatsSnapshot()
	if st.Publishes != 1 || st.Restamps != 1 || st.PublishedEpoch != 2 {
		t.Fatalf("after restamp: %+v", st)
	}
	if val, epoch := w.plane.Get(0, 1); val.Val != 5 || epoch != 2 {
		t.Fatalf("restamped read: %+v at %d", val, epoch)
	}
	// Due must clear even on the restamp path.
	if w.pubs[0].Due() {
		t.Fatal("due still set after restamp")
	}
}

func TestGetBatchMinEpoch(t *testing.T) {
	w := newPubWorld(2)
	// Publish both ranks at epoch 1, then advance and republish only the
	// rank owning vertex b at epoch 2: a batch touching both must report
	// the min, 1.
	var a, b graph.VertexID
	for v := graph.VertexID(1); v < 100 && (a == 0 || b == 0); v++ {
		if w.part.Owner(v) == 0 && a == 0 {
			a = v
		}
		if w.part.Owner(v) == 1 && b == 0 {
			b = v
		}
	}
	w.set(a, 10)
	w.set(b, 20)
	w.publishAll()
	w.plane.Advance()
	r1 := w.part.Owner(b)
	w.pubs[r1].Publish(w.stores[r1], [][]uint64{w.vals[r1]}, w.events[r1])

	out, epoch := w.plane.GetBatch(0, []graph.VertexID{a, b}, nil)
	if len(out) != 2 || !out[0].Found || !out[1].Found {
		t.Fatalf("batch: %+v", out)
	}
	if epoch != 1 {
		t.Fatalf("batch epoch %d, want min(1,2)=1", epoch)
	}
	// A batch touching only the freshly published rank reports 2.
	if _, epoch := w.plane.GetBatch(0, []graph.VertexID{b}, nil); epoch != 2 {
		t.Fatalf("single-owner batch epoch %d, want 2", epoch)
	}
}

func TestTopKAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := newPubWorld(4)
	want := map[graph.VertexID]uint64{}
	for i := 0; i < 500; i++ {
		v := graph.VertexID(rng.Intn(300))
		val := uint64(rng.Intn(50)) // heavy ties, incl. zeros
		w.set(v, val)
		want[v] = val
	}
	w.publishAll()

	brute := make([]Entry, 0, len(want))
	for v, val := range want {
		if val != 0 {
			brute = append(brute, Entry{Vertex: v, Val: val})
		}
	}
	for _, dir := range []Dir{DirMin, DirMax} {
		sort.Slice(brute, func(i, j int) bool {
			a, b := brute[i], brute[j]
			if a.Val != b.Val {
				if dir == DirMin {
					return a.Val < b.Val
				}
				return a.Val > b.Val
			}
			return a.Vertex < b.Vertex
		})
		for _, k := range []int{0, 1, 7, 64, len(brute), len(brute) + 10} {
			got, _ := w.plane.TopK(0, k, dir)
			wantN := k
			if wantN > len(brute) {
				wantN = len(brute)
			}
			if len(got) != wantN {
				t.Fatalf("dir %d k %d: got %d entries, want %d", dir, k, len(got), wantN)
			}
			for i := range got {
				if got[i] != brute[i] {
					t.Fatalf("dir %d k %d: entry %d = %+v, want %+v", dir, k, i, got[i], brute[i])
				}
			}
		}
	}
}

func TestNeighborhoodBFS(t *testing.T) {
	w := newPubWorld(2)
	// 1 -> 2 -> 3 -> 4, plus 1 -> 5.
	for v := graph.VertexID(1); v <= 5; v++ {
		w.set(v, uint64(v)*10)
	}
	w.addEdge(1, 2, 1)
	w.addEdge(2, 3, 1)
	w.addEdge(3, 4, 1)
	w.addEdge(1, 5, 1)
	w.publishAll()

	nodes, _ := w.plane.Neighborhood(0, 1, 2, 100)
	byV := map[graph.VertexID]NbhdNode{}
	for _, n := range nodes {
		byV[n.Vertex] = n
	}
	if len(nodes) != 4 { // 1, 2, 5, 3 — vertex 4 is 3 hops out
		t.Fatalf("depth-2 neighborhood: %+v", nodes)
	}
	if byV[1].Depth != 0 || byV[2].Depth != 1 || byV[5].Depth != 1 || byV[3].Depth != 2 {
		t.Fatalf("depths wrong: %+v", nodes)
	}
	if byV[3].Val != 30 || !byV[3].Found {
		t.Fatalf("node 3: %+v", byV[3])
	}
	if nodes[0].Vertex != 1 {
		t.Fatalf("root not first: %+v", nodes)
	}

	// limit truncates in BFS order.
	nodes, _ = w.plane.Neighborhood(0, 1, 3, 2)
	if len(nodes) != 2 || nodes[0].Vertex != 1 {
		t.Fatalf("limited neighborhood: %+v", nodes)
	}

	// Unknown root: a single not-found node.
	nodes, _ = w.plane.Neighborhood(0, 999, 2, 100)
	if len(nodes) != 1 || nodes[0].Found {
		t.Fatalf("unknown root: %+v", nodes)
	}
}

func TestCopyOnWriteIsolation(t *testing.T) {
	w := newPubWorld(1)
	w.set(1, 1)
	w.set(2, 2)
	w.addEdge(1, 2, 7)
	w.publishAll()
	seg := w.plane.acquire(0)
	defer seg.release()

	// Mutations after publish must not disturb the published view.
	w.addEdge(1, 3, 9) // in-place append beyond published len
	w.addEdge(1, 2, 1) // weight merge: clones the shared array
	w.deleteEdge(1, 2)
	slot := uint64(w.slot(0, 1))
	if got := seg.adj[slot]; len(got) != 1 || got[0].Nbr() != 2 || got[0].W != 7 {
		t.Fatalf("published adjacency mutated: %+v", got)
	}

	// And the next publish sees all of them applied.
	w.plane.Advance()
	w.publishAll()
	nodes, _ := w.plane.Neighborhood(0, 1, 1, 10)
	if len(nodes) != 2 || nodes[1].Vertex != 3 {
		t.Fatalf("post-mutation neighborhood: %+v", nodes)
	}
}

func TestIndexGrowthKeepsOldSegmentsValid(t *testing.T) {
	w := newPubWorld(1)
	w.set(1, 11)
	w.publishAll()
	old := w.plane.acquire(0)
	defer old.release()

	// Blow far past the initial 1024-capacity table so it rebuilds at
	// least once; the old segment must keep resolving via its old index
	// and must not see the new vertices.
	for v := graph.VertexID(2); v < 3000; v++ {
		w.set(v, uint64(v))
	}
	w.plane.Advance()
	w.publishAll()

	if val, _ := segGet(old, 0, 1); !val.Found || val.Val != 11 {
		t.Fatalf("old segment lost vertex 1: %+v", val)
	}
	if val, _ := segGet(old, 0, 2500); val.Found {
		t.Fatalf("old segment sees future vertex: %+v", val)
	}
	if val, _ := w.plane.Get(0, 2500); !val.Found || val.Val != 2500 {
		t.Fatalf("new segment missing vertex 2500: %+v", val)
	}
}

func TestRemoteRanksReadNotFound(t *testing.T) {
	part := partition.NewHashed(2)
	plane := NewPlane(part, 1, onlyRank(0))
	pub := plane.Publisher(0)
	var local, remote graph.VertexID
	for v := graph.VertexID(1); local == 0 || remote == 0; v++ {
		if part.Owner(v) == 0 && local == 0 {
			local = v
		}
		if part.Owner(v) == 1 && remote == 0 {
			remote = v
		}
	}
	st := graph.NewStore(0)
	st.EnsureVertex(local)
	pub.Publish(st, [][]uint64{{5}}, 1)
	if val, _ := plane.Get(0, local); !val.Found || val.Val != 5 {
		t.Fatalf("local read: %+v", val)
	}
	if val, epoch := plane.Get(0, remote); val.Found || epoch != 0 {
		t.Fatalf("remote-owned vertex served locally: %+v at %d", val, epoch)
	}
	if st := plane.StatsSnapshot(); st.PublishedEpoch != 1 {
		t.Fatalf("remote rank dragged PublishedEpoch down: %+v", st)
	}
}

// TestConcurrentReadersUnderChurn is the -race workhorse: one writer
// goroutine per rank keeps mutating and publishing while reader
// goroutines hammer every verb, asserting per-vertex epoch monotonicity
// and that values never regress (the writer only ever increases them).
func TestConcurrentReadersUnderChurn(t *testing.T) {
	const (
		ranks   = 2
		readers = 4
		rounds  = 200
	)
	w := newPubWorld(ranks)
	w.set(1, 1) // ensure vertex 1 exists from the first publish
	w.publishAll()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: monotone values, growing graph, frequent publishes
		defer wg.Done()
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < rounds; i++ {
			for j := 0; j < 8; j++ {
				v := graph.VertexID(rng.Intn(64) + 1)
				w.set(v, uint64(i+1))
				w.addEdge(v, graph.VertexID(rng.Intn(64)+1), graph.Weight(rng.Intn(9)))
				if rng.Intn(4) == 0 {
					w.deleteEdge(v, graph.VertexID(rng.Intn(64)+1))
				}
			}
			w.plane.Advance()
			w.publishAll()
		}
		close(stop)
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			lastEpoch := map[graph.VertexID]uint64{}
			lastVal := map[graph.VertexID]uint64{}
			batch := make([]Value, 0, 8)
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := graph.VertexID(rng.Intn(64) + 1)
				val, epoch := w.plane.Get(0, v)
				if epoch < lastEpoch[v] {
					t.Errorf("epoch regressed for %d: %d -> %d", v, lastEpoch[v], epoch)
					return
				}
				lastEpoch[v] = epoch
				if val.Found {
					if val.Val < lastVal[v] {
						t.Errorf("value regressed for %d: %d -> %d", v, lastVal[v], val.Val)
						return
					}
					lastVal[v] = val.Val
				}
				batch = batch[:0]
				batch, _ = w.plane.GetBatch(0, []graph.VertexID{v, v + 1, v + 2}, batch)
				_ = batch
				if rng.Intn(8) == 0 {
					w.plane.TopK(0, 10, DirMax)
					w.plane.Neighborhood(0, v, 2, 64)
				}
			}
		}(int64(r))
	}
	wg.Wait()
}

// TestBatchSeesOnePublish: every round writes one value to all vertices
// and publishes, so a batch read of all of them must see a single value.
// A reader that saw two would be reading a segment the writer rewrote
// under it — the pin protocol is what prevents that.
func TestBatchSeesOnePublish(t *testing.T) {
	const (
		verts   = 256
		readers = 3
		rounds  = 3000
	)
	w := newPubWorld(1)
	ids := make([]graph.VertexID, verts)
	for i := range ids {
		ids[i] = graph.VertexID(i + 1)
		w.set(ids[i], 1)
	}
	w.publishAll()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch := make([]Value, 0, verts)
			for {
				select {
				case <-stop:
					return
				default:
				}
				batch, _ = w.plane.GetBatch(0, ids, batch[:0])
				for _, v := range batch {
					if !v.Found || v.Val != batch[0].Val {
						t.Errorf("one batch saw %+v and %+v", batch[0], v)
						return
					}
				}
			}
		}()
	}
	for i := 2; i <= rounds; i++ {
		for _, v := range ids {
			w.set(v, uint64(i))
		}
		w.plane.Advance()
		w.publishAll()
	}
	close(stop)
	wg.Wait()
}

// TestPinnedSegmentSurvivesPublishes: publishes leave a pinned segment
// byte-identical however many of them pass, and the first publish after
// it is released rewrites it instead of allocating.
func TestPinnedSegmentSurvivesPublishes(t *testing.T) {
	w := newPubWorld(1)
	for v := graph.VertexID(1); v <= 64; v++ {
		w.set(v, uint64(v))
		w.addEdge(v, v+1, 1)
	}
	w.publishAll()
	w.plane.Advance()
	w.publishAll() // two publishes: the plane now has a spare

	held := w.plane.acquire(0)
	n := int(held.n.Load())
	vals := append([]uint64(nil), held.vals[0][:n]...)
	adj := make([][]graph.HalfEdge, n)
	for i := range adj {
		adj[i] = append([]graph.HalfEdge(nil), held.adj[i]...)
	}

	for round := uint64(1); round <= 4; round++ {
		for v := graph.VertexID(1); v <= 64; v++ {
			w.set(v, 1000*round+uint64(v))
			w.addEdge(v, v+graph.VertexID(round)+1, graph.Weight(round))
		}
		w.plane.Advance()
		w.publishAll()
		if w.plane.segs[0].seg.Load() == held {
			t.Fatalf("round %d: the pinned segment was republished", round)
		}
		if got := int(held.n.Load()); got != n {
			t.Fatalf("round %d: pinned n %d, want %d", round, got, n)
		}
		for i := 0; i < n; i++ {
			if held.vals[0][i] != vals[i] {
				t.Fatalf("round %d: pinned slot %d value %d, want %d", round, i, held.vals[0][i], vals[i])
			}
			if len(held.adj[i]) != len(adj[i]) {
				t.Fatalf("round %d: pinned slot %d adjacency %v, want %v", round, i, held.adj[i], adj[i])
			}
			for j := range adj[i] {
				if held.adj[i][j] != adj[i][j] {
					t.Fatalf("round %d: pinned slot %d adjacency %v, want %v", round, i, held.adj[i], adj[i])
				}
			}
		}
	}

	held.release()
	w.set(1, 99999)
	w.plane.Advance()
	w.publishAll()
	if w.plane.segs[0].seg.Load() != held {
		t.Fatal("the publish after release did not reuse the released segment")
	}
	// The reused segment caught up on every change made while it was held.
	for v := graph.VertexID(1); v <= 64; v++ {
		want := 4000 + uint64(v)
		if v == 1 {
			want = 99999
		}
		if val, _ := w.plane.Get(0, v); val.Val != want {
			t.Fatalf("vertex %d reads %d after reuse, want %d", v, val.Val, want)
		}
		nodes, _ := w.plane.Neighborhood(0, v, 1, 100)
		if len(nodes) != 6 { // v and its five out-neighbours
			t.Fatalf("vertex %d neighbourhood after reuse: %+v", v, nodes)
		}
	}
}

// TestLoadSeesRewrite: a point read's generation holds across publishes
// that leave its segment alone and fails once a publish rewrites it, so
// the read is retried rather than kept.
func TestLoadSeesRewrite(t *testing.T) {
	w := newPubWorld(1)
	w.set(1, 1)
	w.publishAll()
	seg, gen := w.plane.load(0)
	w.set(1, 2)
	w.plane.Advance()
	w.publishAll() // a fresh segment: seg becomes the spare
	w.plane.Advance()
	w.publishAll() // a restamp: nothing changed
	if !seg.same(gen) {
		t.Fatal("the generation moved, but the segment was not rewritten")
	}
	w.set(1, 3)
	w.plane.Advance()
	w.publishAll() // rewrites seg
	if w.plane.segs[0].seg.Load() != seg {
		t.Fatal("the third publish did not reuse the first segment")
	}
	if seg.same(gen) {
		t.Fatal("a rewritten segment kept its generation")
	}
	if val, _ := w.plane.Get(0, 1); val.Val != 3 {
		t.Fatalf("Get after the rewrite = %d, want 3", val.Val)
	}
}

// TestGetRetriesRewrittenSegment rewrites the reader's segment in the
// middle of a point read: three publishes, so the segment the read began
// on is rewritten and is the spare again. The read must then retry and
// return what is served now. The first case lands between load's pointer
// and generation loads, which only load's served-segment re-check
// catches; the second lands after load returned, which only Get's
// generation check catches.
func TestGetRetriesRewrittenSegment(t *testing.T) {
	for _, at := range []int{1, 2} {
		w := newPubWorld(1)
		w.set(1, 1)
		w.publishAll()
		w.set(1, 2)
		w.plane.Advance()
		w.publishAll() // two segments: the next publishes rewrite in place
		calls := 0
		w.plane.readHook = func() {
			if calls++; calls != at {
				return
			}
			for _, val := range []uint64{10, 20, 30} {
				w.set(1, val)
				w.plane.Advance()
				w.publishAll()
			}
		}
		val, epoch := w.plane.Get(0, 1)
		w.plane.readHook = nil
		if want := w.plane.epoch.Load(); val.Val != 30 || epoch != want {
			t.Errorf("rewrite at hook call %d: Get = %d at epoch %d, want 30 at epoch %d",
				at, val.Val, epoch, want)
		}
	}
}

// TestRewriteMatchesLiveState is a differential check of the dirty-slot
// replay: random value writes, edge adds, weight merges, deletes and new
// vertices, a publish after each burst, and pins held
// across publishes (which send the writer down the fresh-segment path and
// keep the pinned spare lagging). After every publish the served segment
// must equal the live state slot for slot: the values exactly, the
// adjacency as a neighbour multiset — a weight merge leaves the served
// header on the old array, which holds the same neighbours.
func TestRewriteMatchesLiveState(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	w := newPubWorld(1)
	st := w.stores[0]
	var held []*Segment
	for round := 0; round < 300; round++ {
		nv := 8 + 8*round // the vertex set keeps growing past the slack
		for k := rng.Intn(40); k > 0; k-- {
			v := graph.VertexID(rng.Intn(nv) + 1)
			switch rng.Intn(5) {
			case 0:
				w.set(v, rng.Uint64())
			case 1, 4:
				w.addEdge(v, graph.VertexID(rng.Intn(nv)+1), graph.Weight(rng.Intn(9)))
			case 2, 3:
				s, ok := st.SlotOf(v)
				if !ok || st.Degree(s) == 0 {
					continue
				}
				edges := st.AdjEntries(s)
				nbr := edges[rng.Intn(len(edges))].Nbr()
				if rng.Intn(2) == 0 {
					w.addEdge(v, nbr, graph.Weight(rng.Intn(9)))
				} else {
					w.deleteEdge(v, nbr)
				}
			}
		}
		w.plane.Advance()
		w.publishAll()

		seg := w.plane.acquire(0)
		n := int(seg.n.Load())
		if n != st.NumVertices() {
			t.Fatalf("round %d: served n %d, live %d", round, n, st.NumVertices())
		}
		for s := 0; s < n; s++ {
			if seg.vals[0][s] != w.vals[0][s] {
				t.Fatalf("round %d slot %d: served value %d, live %d", round, s, seg.vals[0][s], w.vals[0][s])
			}
			served, live := nbrs(seg.adj[s]), nbrs(st.AdjEntries(graph.Slot(s)))
			if !slices.Equal(served, live) {
				t.Fatalf("round %d slot %d: served neighbours %v, live %v", round, s, served, live)
			}
		}
		// Hold some segments across a few publishes.
		if rng.Intn(4) == 0 {
			held = append(held, seg)
		} else {
			seg.release()
		}
		if len(held) > 0 && rng.Intn(3) == 0 {
			held[0].release()
			held = held[1:]
		}
	}
	for _, seg := range held {
		seg.release()
	}

	// Once the spare is free and large enough, a publish copies just the
	// slots changed over the last two intervals: here one each.
	var before uint64
	for i := graph.VertexID(1); i <= 5; i++ {
		before = w.plane.StatsSnapshot().CopiedSlots
		w.set(i, 1)
		w.plane.Advance()
		w.publishAll()
	}
	if got := w.plane.StatsSnapshot().CopiedSlots - before; got != 2 {
		t.Fatalf("steady-state publish copied %d slots, want 2 (of %d)", got, st.NumVertices())
	}
}

// nbrs returns the sorted neighbour ids of an edge list.
func nbrs(edges []graph.HalfEdge) []graph.VertexID {
	out := make([]graph.VertexID, len(edges))
	for i, e := range edges {
		out[i] = e.Nbr()
	}
	slices.Sort(out)
	return out
}

// benchSink keeps the compiler from dropping the benchmarked reads.
var benchSink atomic.Uint64

// BenchmarkParallelReads measures point and 64-id batch reads from
// concurrent readers (b.RunParallel; vary their number with -cpu) against
// one rank's 64K-vertex segment, with the writer idle or publishing 1,000
// changed values every millisecond. Every reader pins the same segment,
// so this is where pin traffic between readers would show.
func BenchmarkParallelReads(b *testing.B) {
	const (
		verts = 1 << 16
		batch = 64
	)
	for _, publishing := range []bool{false, true} {
		name := "writer=idle"
		if publishing {
			name = "writer=1ms"
		}
		b.Run(name, func(b *testing.B) {
			w := newPubWorld(1)
			for v := graph.VertexID(1); v <= verts; v++ {
				w.set(v, uint64(v))
			}
			w.publishAll()
			stop, done := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(done)
				if !publishing {
					return
				}
				rng := rand.New(rand.NewSource(1))
				tick := time.NewTicker(time.Millisecond)
				defer tick.Stop()
				for round := uint64(1); ; round++ {
					select {
					case <-stop:
						return
					case <-tick.C:
					}
					for j := 0; j < 1000; j++ {
						w.set(graph.VertexID(rng.Intn(verts)+1), round)
					}
					w.plane.Advance()
					w.publishAll()
				}
			}()
			defer func() { close(stop); <-done }()

			var seed atomic.Uint64
			for _, verb := range []string{"Get", "GetBatch"} {
				b.Run(verb, func(b *testing.B) {
					b.RunParallel(func(pb *testing.PB) {
						x := seed.Add(1) * 0x9e3779b97f4a7c15
						next := func() graph.VertexID { // xorshift64
							x ^= x << 13
							x ^= x >> 7
							x ^= x << 17
							return graph.VertexID(x%verts + 1)
						}
						ids := make([]graph.VertexID, batch)
						out := make([]Value, 0, batch)
						var sum uint64
						for pb.Next() {
							if verb == "Get" {
								val, _ := w.plane.Get(0, next())
								sum += val.Val
								continue
							}
							for i := range ids {
								ids[i] = next()
							}
							out, _ = w.plane.GetBatch(0, ids, out[:0])
							sum += out[0].Val
						}
						benchSink.Add(sum)
					})
				})
			}
		})
	}
}
