package harness

import (
	"strings"
	"testing"

	"incregraph/internal/gen"
)

var quick = Config{Quick: true}

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "T", Header: []string{"A", "Blong"}}
	tb.AddRow("1", "2")
	tb.AddRow("333", "4")
	tb.AddNote("a note %d", 7)
	out := tb.String()
	for _, want := range []string{"== T ==", "A", "Blong", "333", "note: a note 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Scale != 16 || c.EdgeFactor != 16 || len(c.Ranks) == 0 {
		t.Fatalf("defaults = %+v", c)
	}
	q := Config{Quick: true}.withDefaults()
	if q.Scale != 10 || len(q.Ranks) != 3 {
		t.Fatalf("quick defaults = %+v", q)
	}
}

func TestDatasets(t *testing.T) {
	ds := Datasets(quick)
	if len(ds) != 4 {
		t.Fatalf("%d datasets", len(ds))
	}
	for _, d := range ds {
		edges := d.Edges()
		if len(edges) == 0 {
			t.Fatalf("%s: empty", d.Name)
		}
		// Deterministic across calls.
		again := d.Edges()
		for i := range edges {
			if edges[i] != again[i] {
				t.Fatalf("%s not deterministic", d.Name)
			}
		}
	}
	if TwitterSim(quick).Name != "twitter-sim" {
		t.Fatal("TwitterSim should be the twitter stand-in")
	}
}

func TestAlgorithmsSpec(t *testing.T) {
	specs := Algorithms()
	names := []string{"CON", "BFS", "SSSP", "CC", "ST"}
	if len(specs) != len(names) {
		t.Fatalf("%d specs", len(specs))
	}
	edges := gen.Path(10)
	for i, s := range specs {
		if s.Name != names[i] {
			t.Fatalf("spec %d = %s want %s", i, s.Name, names[i])
		}
		prog, inits := s.Build(edges)
		if s.Name == "CON" {
			if prog != nil {
				t.Fatal("CON should have no program")
			}
		} else if prog == nil {
			t.Fatalf("%s should have a program", s.Name)
		}
		if (s.Name == "BFS" || s.Name == "SSSP" || s.Name == "ST") && len(inits) != 1 {
			t.Fatalf("%s inits = %v", s.Name, inits)
		}
	}
}

func TestTable1Quick(t *testing.T) {
	tb := Table1(quick)
	if len(tb.Rows) != 5 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	if !strings.Contains(tb.String(), "friendster-sim") {
		t.Fatal("missing dataset row")
	}
}

func TestFig3Quick(t *testing.T) {
	tb := Fig3(quick)
	if len(tb.Rows) != 3 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
}

func TestFig4Quick(t *testing.T) {
	tb := Fig4(quick)
	if len(tb.Rows) != 4 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
}

func TestFig5Quick(t *testing.T) {
	cfg := Config{Quick: true, Ranks: []int{1, 2}}
	tb := Fig5(cfg)
	// 4 datasets x 5 algorithms.
	if len(tb.Rows) != 20 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	if len(tb.Rows[0]) != 3 {
		t.Fatalf("row width %d", len(tb.Rows[0]))
	}
}

func TestFig6Quick(t *testing.T) {
	cfg := Config{Quick: true, Ranks: []int{1, 2}}
	tb := Fig6(cfg)
	if len(tb.Rows) != 3 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
}

func TestAblationsQuick(t *testing.T) {
	cfg := Config{Quick: true, Ranks: []int{2}}
	tb := Ablations(cfg)
	// 4 smallCap + 4 batch + 2 partitioner + 2 priority rows.
	if len(tb.Rows) != 12 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	if !strings.Contains(tb.String(), "edge skew") {
		t.Fatal("partitioner rows should report edge skew")
	}
}

func TestBatchingQuick(t *testing.T) {
	cfg := Config{Quick: true, Ranks: []int{2}}
	tb := Batching(cfg)
	// 3 batching rows + 1 continuous row.
	if len(tb.Rows) != 4 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	if !strings.Contains(tb.String(), "continuous incremental") {
		t.Fatal("missing continuous row")
	}
}

func TestLatencyQuick(t *testing.T) {
	cfg := Config{Quick: true, Ranks: []int{2}}
	tb := Latency(cfg)
	// 1 continuous row + 3 batching-arithmetic rows.
	if len(tb.Rows) != 4 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	if !strings.Contains(tb.String(), "continuous triggers") {
		t.Fatal("missing continuous row")
	}
}

func TestFig7Quick(t *testing.T) {
	cfg := Config{Quick: true, Ranks: []int{1, 2}}
	tb := Fig7(cfg)
	if len(tb.Rows) != 5 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
}
