package incregraph

import (
	"incregraph/internal/algo"
	"incregraph/internal/core"
)

// BFS returns the incremental Breadth First Search program (paper §IV.1):
// level 1 at the source chosen via InitVertex, minimum hop count + 1
// elsewhere, Infinity where unreachable, maintained live under edge
// insertions.
func BFS() Program { return algo.BFS{} }

// DirectedBFS is BFS with propagation restricted to edge direction; use it
// with Config.Directed.
func DirectedBFS() Program { return algo.BFS{Directed: true} }

// SSSP returns the incremental Single Source Shortest Path program (§IV.2):
// cost 1 at the source, 1 + minimal weight sum elsewhere. Re-inserting an
// edge may only lower its weight.
func SSSP() Program { return algo.SSSP{} }

// DirectedSSSP is SSSP restricted to edge direction.
func DirectedSSSP() Program { return algo.SSSP{Directed: true} }

// CC returns the incremental Connected Components program (§IV.3): every
// vertex converges to the minimum hashed label in its component. No
// InitVertex required.
func CC() Program { return algo.CC{} }

// CCLabelOf returns the label vertex v would contribute to its component —
// use it to interpret CC results ("is v the component representative?").
func CCLabelOf(v VertexID) uint64 { return ccLabelOf(v) }

// MultiST returns the incremental Multi S-T Connectivity program (§IV.4)
// for up to 64 sources; InitVertex each source to start its flow. Vertex
// state is a bitmap: bit i set iff connected to sources[i].
func MultiST(sources []VertexID) Program { return algo.NewMultiST(sources) }

// WidestPath returns an incremental widest-path (maximum-bottleneck)
// program — a fifth REMO algorithm beyond the paper's four, with
// monotonically increasing state. The source (InitVertex) has width
// Infinity; Unset means unreachable.
func WidestPath() Program { return algo.Widest{} }

// DirectedWidestPath is WidestPath restricted to edge direction.
func DirectedWidestPath() Program { return algo.Widest{Directed: true} }

// DegreeTracker returns the trivial degree-tracking program of §II-A:
// vertex state is its current degree, handy for threshold triggers.
func DegreeTracker() Program { return algo.Degree{} }

// DeleteAware reports whether a program supports decremental edge events:
// either through its own delete callbacks (DegreeTracker) or through the
// engine's parent-witness protocol (BFS, SSSP, CC, MultiST, WidestPath),
// which handles deletes on undirected graphs.
func DeleteAware(p Program) bool {
	switch p.(type) {
	case core.DeleteAware, core.WitnessProgram:
		return true
	}
	return false
}
