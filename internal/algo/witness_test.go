package algo

import (
	"testing"

	"incregraph/internal/core"
	"incregraph/internal/graph"
)

// TestCertificateHooks pins Reproduces and SeedLanes, the two witness hooks
// an unsafe delete's re-pointing trusts, for every witness program on
// hand-picked values. Results are compared on the program's lanes only.
func TestCertificateHooks(t *testing.T) {
	type repro struct {
		parent uint64
		w      graph.Weight
		child  uint64
		want   uint64
	}
	type seed struct {
		v    graph.VertexID
		val  uint64
		want uint64
	}
	const inf = core.Infinity
	cases := []struct {
		name   string
		p      core.WitnessProgram
		repros []repro
		seeds  []seed
	}{
		{name: "bfs", p: BFS{},
			repros: []repro{
				{parent: 3, w: 1, child: 4, want: 1},
				{parent: 3, w: 9, child: 4, want: 1}, // levels ignore weights
				{parent: 3, w: 1, child: 5, want: 0},
				{parent: 4, w: 1, child: 4, want: 0},
				{parent: inf, w: 1, child: inf, want: 0},
				{parent: core.Unset, w: 1, child: inf, want: 0},
			},
			seeds: []seed{
				{v: 7, val: inf, want: 1},
				{v: 7, val: core.Unset, want: 1},
				{v: 7, val: 1, want: 0}, // a source's level comes from Init, unwitnessed
				{v: 7, val: 4, want: 0},
			}},
		{name: "sssp", p: SSSP{},
			repros: []repro{
				{parent: 3, w: 4, child: 7, want: 1},
				{parent: 3, w: 4, child: 8, want: 0},
				{parent: 3, w: 5, child: 7, want: 0},
				{parent: inf, w: 4, child: inf, want: 0},
				{parent: core.Unset, w: 4, child: inf, want: 0},
			},
			seeds: []seed{
				{v: 7, val: inf, want: 1},
				{v: 7, val: core.Unset, want: 1},
				{v: 7, val: 7, want: 0},
			}},
		{name: "cc", p: CC{},
			repros: []repro{
				{parent: graph.CCLabel(2), w: 5, child: graph.CCLabel(2), want: 1},
				{parent: graph.CCLabel(2), w: 5, child: graph.CCLabel(3), want: 0},
				{parent: core.Unset, w: 5, child: core.Unset, want: 0},
			},
			seeds: []seed{
				{v: 3, val: graph.CCLabel(3), want: 1},
				{v: 3, val: graph.CCLabel(2), want: 0},
			}},
		{name: "widest", p: Widest{},
			repros: []repro{
				{parent: 9, w: 4, child: 4, want: 1}, // the edge is the bottleneck
				{parent: 3, w: 4, child: 3, want: 1}, // the parent is
				{parent: 9, w: 4, child: 9, want: 0},
				{parent: 3, w: 4, child: 4, want: 0},
				{parent: core.Unset, w: 4, child: core.Unset, want: 0},
			},
			seeds: []seed{
				{v: 7, val: core.Unset, want: 1},
				{v: 7, val: 4, want: 0},
			}},
		{name: "st", p: NewMultiST([]graph.VertexID{10, 20, 30}),
			repros: []repro{
				{parent: 0b101, w: 1, child: 0b111, want: 0b101},
				{parent: 0b111, w: 1, child: 0b010, want: 0b010},
				{parent: 0b110, w: 9, child: 0b011, want: 0b010},
				{parent: 0b100, w: 1, child: 0b011, want: 0},
				{parent: 0, w: 1, child: 0b111, want: 0},
			},
			seeds: []seed{
				{v: 99, val: 0b101, want: 0b010}, // unset bits need no parent
				{v: 99, val: 0b111, want: 0},
				{v: 20, val: 0b111, want: 0b010}, // a source's own bit is a seed
				{v: 20, val: 0b101, want: 0b010},
				{v: 10, val: 0b001, want: 0b111},
				{v: 99, val: 0, want: 0b111},
			}},
	}
	for _, tc := range cases {
		lanes := ^uint64(0) >> (64 - tc.p.WitnessLanes())
		for _, c := range tc.repros {
			if got := tc.p.Reproduces(c.parent, c.w, c.child) & lanes; got != c.want {
				t.Errorf("%s: Reproduces(%#x, %d, %#x) = %#b, want %#b", tc.name, c.parent, c.w, c.child, got, c.want)
			}
		}
		for _, c := range tc.seeds {
			if got := tc.p.SeedLanes(c.v, c.val) & lanes; got != c.want {
				t.Errorf("%s: SeedLanes(%d, %#x) = %#b, want %#b", tc.name, c.v, c.val, got, c.want)
			}
		}
	}
}
