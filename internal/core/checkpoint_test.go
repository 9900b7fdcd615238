package core_test

import (
	"bytes"
	"testing"

	"incregraph/internal/algo"
	"incregraph/internal/core"
	"incregraph/internal/csr"
	"incregraph/internal/gen"
	"incregraph/internal/graph"
	"incregraph/internal/partition"
	"incregraph/internal/static"
	"incregraph/internal/stream"
)

func TestCheckpointRoundTrip(t *testing.T) {
	edges := gen.ErdosRenyi(120, 900, 20, 41)
	e := runDynamic(t, edges, 3, true, map[int]graph.VertexID{0: 0}, algo.BFS{}, algo.CC{})
	e.Wait()

	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.ReadCheckpoint(bytes.NewReader(buf.Bytes()), core.Options{}, algo.BFS{}, algo.CC{})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Ranks() != 3 {
		t.Fatalf("ranks = %d", loaded.Ranks())
	}
	for a := 0; a < 2; a++ {
		want := e.Collect(a)
		got := loaded.Collect(a)
		if len(got) != len(want) {
			t.Fatalf("algo %d: %d vs %d entries", a, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("algo %d entry %d: %+v vs %+v", a, i, got[i], want[i])
			}
		}
	}
	// Topology survives too.
	if gotE, wantE := loaded.Topology().NumEdges(), e.Topology().NumEdges(); gotE != wantE {
		t.Fatalf("edges: %d vs %d", gotE, wantE)
	}
}

// The headline use: checkpoint mid-analysis, restart, continue ingesting,
// and converge to the same state as an uninterrupted run.
func TestCheckpointResume(t *testing.T) {
	all := gen.Shuffle(gen.ErdosRenyi(150, 1200, 1, 43), 6)
	first, second := all[:600], all[600:]

	// Uninterrupted reference.
	ref := runDynamic(t, all, 2, true, map[int]graph.VertexID{0: 0}, algo.BFS{})
	want := ref.CollectMap(0)

	// Interrupted: ingest half, checkpoint, "restart", ingest the rest.
	e1 := runDynamic(t, first, 2, true, map[int]graph.VertexID{0: 0}, algo.BFS{})
	e1.Wait()
	var buf bytes.Buffer
	if err := e1.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	e2, err := core.ReadCheckpoint(bytes.NewReader(buf.Bytes()), core.Options{}, algo.BFS{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Run(stream.Split(second, 2)); err != nil {
		t.Fatal(err)
	}
	got := e2.CollectMap(0)
	if len(got) != len(want) {
		t.Fatalf("vertices %d vs %d", len(got), len(want))
	}
	for id, v := range want {
		if got[id] != v {
			t.Fatalf("vertex %d: resumed %d, reference %d", id, got[id], v)
		}
	}
	// And the resumed topology matches a static rebuild.
	levels := static.BFS(csr.Build(all, true), 0)
	for id, v := range got {
		if levels[id] != v {
			t.Fatalf("vertex %d: %d vs static %d", id, v, levels[id])
		}
	}
}

func TestCheckpointResumeWithSnapshotAfter(t *testing.T) {
	// Snapshot sequences restart at 0 after a load; a snapshot taken
	// during a resumed run must still see every checkpointed edge.
	first := gen.Path(50)
	e1 := runDynamic(t, first, 2, true, map[int]graph.VertexID{0: 0}, algo.BFS{})
	e1.Wait()
	var buf bytes.Buffer
	if err := e1.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	e2, err := core.ReadCheckpoint(bytes.NewReader(buf.Bytes()), core.Options{}, algo.BFS{})
	if err != nil {
		t.Fatal(err)
	}
	live := stream.NewChan()
	if err := e2.Start([]stream.Stream{live}); err != nil {
		t.Fatal(err)
	}
	snap := e2.SnapshotAsync(0)
	got := snap.AsMap()
	if len(got) != 50 || got[49] != 50 {
		t.Fatalf("snapshot after resume: %d vertices, levels[49]=%d", len(got), got[49])
	}
	live.Close()
	e2.Wait()
}

func TestCheckpointErrors(t *testing.T) {
	// Running engine refuses.
	live := stream.NewChan()
	e := core.New(core.Options{Ranks: 1, Undirected: true}, algo.BFS{})
	if err := e.Start([]stream.Stream{live}); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteCheckpoint(&bytes.Buffer{}); err == nil {
		t.Fatal("checkpoint of a running engine should fail")
	}
	live.Close()
	e.Wait()

	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	// Wrong program count.
	if _, err := core.ReadCheckpoint(bytes.NewReader(buf.Bytes()), core.Options{}); err == nil {
		t.Fatal("program count mismatch should fail")
	}
	// Bad magic.
	if _, err := core.ReadCheckpoint(bytes.NewReader([]byte("not a checkpoint")), core.Options{}, algo.BFS{}); err == nil {
		t.Fatal("bad magic should fail")
	}
	// Truncation.
	if _, err := core.ReadCheckpoint(bytes.NewReader(buf.Bytes()[:12]), core.Options{}, algo.BFS{}); err == nil {
		t.Fatal("truncated checkpoint should fail")
	}
	// Trailing garbage.
	withJunk := append(append([]byte{}, buf.Bytes()...), 0xFF)
	if _, err := core.ReadCheckpoint(bytes.NewReader(withJunk), core.Options{}, algo.BFS{}); err == nil {
		t.Fatal("trailing bytes should fail")
	}
}

func TestCheckpointPartitionerMismatch(t *testing.T) {
	// Write with a modulo partitioner, load with the default hashed one:
	// vertex placement disagrees and the load must detect it.
	e := core.New(core.Options{Ranks: 2, Undirected: true,
		Partitioner: partition.NewModulo(2)}, algo.BFS{})
	e.InitVertex(0, 0)
	if _, err := e.Run(stream.Split(gen.Path(20), 2)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := core.ReadCheckpoint(bytes.NewReader(buf.Bytes()), core.Options{}, algo.BFS{}); err == nil {
		t.Fatal("partitioner mismatch should be detected")
	}
}
