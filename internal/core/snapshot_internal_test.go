package core

import (
	"maps"
	"testing"

	"incregraph/internal/graph"
	"incregraph/internal/partition"
	"incregraph/internal/stream"
)

// settle runs a driven engine until no step makes progress: every rank
// drains every lane and its self ring and flushes its outbound buffers,
// except that the buffer from rank held[0] to rank held[1] is never
// flushed, so what sits there stays in flight. With no held buffer
// (held[0] < 0) it ends at a globally quiescent cut.
func settle(d *SimDriver, held [2]int) {
	for progress := true; progress; {
		progress = false
		for r := range d.Ranks() {
			for lane := range d.Lanes() {
				progress = d.DrainLane(r, lane, nil) > 0 || progress
			}
			for d.StepSelf(r, nil) {
				progress = true
			}
			for dest := range d.Ranks() {
				if [2]int{r, dest} != held && d.OutboundLen(r, dest) > 0 {
					d.Flush(r, dest)
					progress = true
				}
			}
		}
	}
}

// none holds no outbound buffer back in settle.
var none = [2]int{-1, -1}

// finishSnapshot runs every rank's snapshot duties and returns the
// snapshot's state, failing if it did not finalize.
func finishSnapshot(t *testing.T, d *SimDriver, s *Snapshot) map[graph.VertexID]uint64 {
	t.Helper()
	for r := range d.Ranks() {
		d.SnapshotChores(r)
	}
	if !s.Ready() {
		t.Fatal("snapshot did not finalize at a quiescent cut")
	}
	return s.AsMap()
}

// TestSnapshotPublishedBeforeMarker pins the order of a snapshot request:
// the snapshot is published before its marker is bumped, and no rank
// contributes before the bump. Events ingested between the two steps are
// labelled below the marker, so they belong to the snapshot: the rank
// takes its previous-version copy before applying them, and does not
// contribute while more of them can still arrive. Bumping first opens a
// window where an event carries the new marker but runs before the rank
// sees the snapshot, so the copy, taken later, holds its effect;
// contributing before the bump drops the old-version events that follow.
func TestSnapshotPublishedBeforeMarker(t *testing.T) {
	e := New(Options{Ranks: 1, Undirected: true}, labelStub{})
	chain := []graph.Edge{{Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 3, Dst: 4}}
	d, err := e.StartSim([]stream.Stream{stream.FromEdges(chain)})
	if err != nil {
		t.Fatal(err)
	}
	pull := func() Event {
		ev, ok := d.PullStream(0)
		if !ok {
			t.Fatal("stream empty")
		}
		settle(d, none)
		return ev
	}
	var evs []Event
	evs = append(evs, pull())
	e.simSnapPublished = func() {
		evs = append(evs, pull())
		d.SnapshotChores(0)
		evs = append(evs, pull())
	}
	s := e.SnapshotAsync(0)
	e.simSnapPublished = nil
	settle(d, none)
	got := finishSnapshot(t, d, s)

	// Labels only grow along the stream, so the events below the marker
	// are a prefix of the chain: its vertices, all with vertex 1's label.
	want := map[graph.VertexID]uint64{}
	for _, ev := range evs {
		if ev.Seq >= s.Marker() {
			t.Errorf("edge %d-%d ingested before the marker bump labelled %d, marker %d", ev.To, ev.From, ev.Seq, s.Marker())
			continue
		}
		want[ev.To], want[ev.From] = 2, 2
	}
	if !maps.Equal(got, want) {
		t.Fatalf("snapshot %v, want %v", got, want)
	}
}

// TestSnapshotHidesPostMarkerEdges: a previous-version cascade that
// reaches a vertex after post-marker edges were added there must not
// cross them. Labels run on three ranks (vertex v on rank v mod 3): a = 3,
// b = 4 and c = 7, x = 5, so a's label is the smallest. Edge a-b is
// ingested before the marker, but its reverse half is held in rank 0's
// buffer toward rank 1. After the marker, b-c, x-a and x-b arrive, and
// a's label reaches b live through x. When the held reverse half finally
// lands, b's live label is already a's, so only the previous version
// changes: b adopts a's label there and floods it over the edges the cut
// contains — to a, not to c or x. The snapshot is exactly the labels over
// {a-b}.
func TestSnapshotHidesPostMarkerEdges(t *testing.T) {
	const a, b, c, x = 3, 4, 7, 5
	e := New(Options{Ranks: 3, Undirected: true, Partitioner: partition.NewModulo(3)}, labelStub{})
	d, err := e.StartSim([]stream.Stream{
		stream.FromEdges([]graph.Edge{{Src: a, Dst: b}}),
		stream.FromEdges([]graph.Edge{{Src: b, Dst: c}}),
		stream.FromEdges([]graph.Edge{{Src: x, Dst: a}, {Src: x, Dst: b}}),
	})
	if err != nil {
		t.Fatal(err)
	}
	held := [2]int{0, 1}
	d.PullStream(0)
	settle(d, held)
	if d.OutboundLen(0, 1) != 1 {
		t.Fatalf("%d events held toward rank 1, want a-b's reverse half", d.OutboundLen(0, 1))
	}

	s := e.SnapshotAsync(0)
	for r := 1; r <= 2; r++ {
		for {
			ev, ok := d.PullStream(r)
			if !ok {
				break
			}
			if ev.Seq < s.Marker() {
				t.Fatalf("edge %d-%d labelled %d, before marker %d", ev.To, ev.From, ev.Seq, s.Marker())
			}
		}
	}
	settle(d, held)
	la := seedLabel(a)
	if got := e.QueryLocal(0, b); got.Value != la {
		t.Fatalf("b's live label %d before a-b lands, want a's %d", got.Value, la)
	}
	d.Flush(0, 1)
	settle(d, none)
	if got, want := finishSnapshot(t, d, s), map[graph.VertexID]uint64{a: la, b: la}; !maps.Equal(got, want) {
		t.Fatalf("snapshot %v, want %v: the previous version crossed a post-marker edge", got, want)
	}
	for _, vv := range e.Collect(0) {
		if vv.Val != la {
			t.Fatalf("live vertex %d holds %d, want a's label %d", vv.ID, vv.Val, la)
		}
	}
}
