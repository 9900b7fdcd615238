// Package graph defines the core graph types and the dynamic, degree-aware
// adjacency store used by every engine rank.
//
// The store reproduces the design of DegAwareRHH (Iwabuchi et al., "Towards
// a distributed large-scale dynamic graph data store", GABB 2016), the
// structure the paper's prototype incorporates (§III-B): open-addressing
// Robin Hood hash tables for high-degree vertices, and a separate compact
// representation for low-degree vertices. Graph evolution is edge-centric
// (§II): edges appear between already-established vertices, so the store is
// optimized for one-edge-at-a-time insertion with no a-priori knowledge of
// the final topology.
package graph

// VertexID identifies a vertex globally. IDs are sparse: the store maps
// them to dense per-shard slots internally.
type VertexID uint64

// Weight is an edge weight (used by SSSP; ignored by BFS/CC/S-T).
type Weight uint32

// Slot is the dense index of a vertex within one rank's shard. Algorithms
// keep their per-vertex state in slot-indexed arrays, which restores the
// write locality the paper notes static CSR buffers enjoy (§V-B).
type Slot uint32

// NoSlot is returned when a vertex is not present in a shard.
const NoSlot = ^Slot(0)

// Edge is a weighted directed edge, the unit of topology evolution.
type Edge struct {
	Src VertexID
	Dst VertexID
	W   Weight
}

// EdgeEvent is a topology-change event on a stream. Streams carry ordered
// EdgeEvents; events on different streams have no relative order (§III-C).
type EdgeEvent struct {
	Edge
	// Delete marks a decremental event (§VI-B extension). The core
	// evaluation uses add-only streams.
	Delete bool
}

// HalfEdge is one adjacency entry: the neighbour and the edge weight, in
// 12 bytes. The neighbour is kept as two 32-bit halves so the entry has
// 4-byte alignment; a VertexID field would pad it to 16. Snapshot
// versioning (§III-D) is not stored per entry: the store keeps the edges a
// snapshot must hide in a side set while that snapshot is active
// (Store.BeginSnapshot).
type HalfEdge struct {
	lo, hi uint32
	W      Weight
}

// MakeHalfEdge returns the entry for an edge to nbr with weight w.
func MakeHalfEdge(nbr VertexID, w Weight) HalfEdge {
	return HalfEdge{lo: uint32(nbr), hi: uint32(nbr >> 32), W: w}
}

// Nbr returns the entry's neighbour.
func (e HalfEdge) Nbr() VertexID { return VertexID(e.hi)<<32 | VertexID(e.lo) }
