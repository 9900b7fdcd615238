package algo

import (
	"testing"

	"incregraph/internal/core"
	"incregraph/internal/graph"
)

func TestNames(t *testing.T) {
	cases := map[string]core.Program{
		"bfs":    BFS{},
		"sssp":   SSSP{},
		"cc":     CC{},
		"st":     NewMultiST(nil),
		"degree": Degree{},
		"widest": Widest{},
	}
	for want, p := range cases {
		n, ok := p.(core.Named)
		if !ok {
			t.Fatalf("%s does not implement Named", want)
		}
		if n.Name() != want {
			t.Fatalf("Name = %q want %q", n.Name(), want)
		}
	}
}

func TestNorm(t *testing.T) {
	if norm(core.Unset) != core.Infinity {
		t.Fatal("norm(Unset) != Infinity")
	}
	if norm(5) != 5 {
		t.Fatal("norm(5) != 5")
	}
	if norm(core.Infinity) != core.Infinity {
		t.Fatal("norm(Infinity) != Infinity")
	}
}

func TestMultiSTConstruction(t *testing.T) {
	st := NewMultiST([]graph.VertexID{10, 20, 10})
	if st.Sources() != 3 {
		t.Fatalf("Sources = %d", st.Sources())
	}
	if bit, ok := st.SourceBit(10); !ok || bit != 0 {
		t.Fatalf("SourceBit(10) = %d,%v — first registration wins", bit, ok)
	}
	if bit, ok := st.SourceBit(20); !ok || bit != 1 {
		t.Fatalf("SourceBit(20) = %d,%v", bit, ok)
	}
	if _, ok := st.SourceBit(99); ok {
		t.Fatal("SourceBit(non-source) should be false")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for >64 sources")
		}
	}()
	NewMultiST(make([]graph.VertexID, 65))
}

func TestDeleteAwareness(t *testing.T) {
	// Degree handles decremental events with its own callbacks; every other
	// program goes through the engine's parent-witness protocol.
	progs := []core.Program{BFS{}, SSSP{}, CC{}, NewMultiST(nil), Degree{}, Widest{}}
	for _, p := range progs {
		name := p.(core.Named).Name()
		_, da := p.(core.DeleteAware)
		_, wit := p.(core.WitnessProgram)
		if da != (name == "degree") || wit == da {
			t.Fatalf("%s: DeleteAware = %v, WitnessProgram = %v", name, da, wit)
		}
	}
}
