package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"

	"incregraph/internal/graph"
)

// Checkpointing serializes an engine's complete state — topology and every
// program's per-vertex values — so analysis can resume after a restart.
// It substitutes for the persistence role DegAwareRHH's NVRAM tier plays
// in the paper's prototype (§III-B): the dynamic graph outlives the
// process. A checkpoint is legal whenever the engine's evolution is not in
// flight: before Start, after termination, or — the live-service case —
// while the engine is Paused at a quiescent point. A fresh engine loaded
// from it continues ingesting new streams with all algorithm state intact;
// for a paused-run checkpoint the metadata block records how far the
// writing run had ingested so the operator can re-attach the remainder of
// the stream.
//
// Limitations, by design: the rank count, program set, and partitioner of
// the loading engine must match the writing one (vertex placement is
// derived from the partitioner; a mismatch is detected at load). Trigger
// fired-once bitmaps are not persisted — the once-only guarantee is per
// engine lifetime.

// Format v3 (the only one read or written): after the rank count and flags
// words comes the run-metadata block (ingested count, paused flag,
// generation counter), and after each vertex's program values one witness
// block per witness-capable program (generation, lane mask, and the
// recorded witness per set lane). Witness state MUST be persisted: loading
// values without their witnesses would misclassify every later deletion as
// safe (empty masks silently skip invalidation), while treating them all
// as unsafe would reset values — like an Init'd source — that no replayed
// event can rebuild. That is why v1 and v2 files, which carry no witness
// state, are rejected rather than loaded.
var ckptMagic = [8]byte{'I', 'G', 'C', 'K', 'P', 'T', '0', '3'}

// maxCheckpointRanks bounds the rank count a checkpoint header may claim.
// Far above any real deployment; its job is to keep a corrupt header from
// sizing the engine allocation.
const maxCheckpointRanks = 1 << 16

// CheckpointMeta is the run metadata recorded in a checkpoint.
type CheckpointMeta struct {
	// Ingested is the number of topology events the writing run had pulled
	// from its streams when the checkpoint was taken — the stream offset a
	// resuming operator re-attaches from.
	Ingested uint64
	// Paused reports that the checkpoint captured a paused live run rather
	// than a terminated (or never-started) one.
	Paused bool
}

// CheckpointMeta returns the metadata block of the checkpoint this engine
// was loaded from (the zero value for an engine built fresh).
func (e *Engine) CheckpointMeta() CheckpointMeta { return e.loadedMeta }

// WriteCheckpoint serializes the engine's state. The engine must not be
// mid-run: checkpoint before Start, after termination, or — for a live
// run — after Pause, which drains to the consistent quiescent point the
// checkpoint captures.
func (e *Engine) WriteCheckpoint(w io.Writer) error {
	if !e.mayInspect() {
		return fmt.Errorf("core: checkpoint requires an idle, paused, or terminated engine (state %s)", e.State())
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(ckptMagic[:]); err != nil {
		return err
	}
	writeU32 := func(v uint32) { binary.Write(bw, binary.LittleEndian, v) }
	writeU64 := func(v uint64) { binary.Write(bw, binary.LittleEndian, v) }
	writeU32(uint32(e.opts.Ranks))
	flags := uint32(0)
	if e.opts.Undirected {
		flags |= 1
	}
	flags |= uint32(e.opts.WeightPolicy) << 1
	writeU32(flags)
	// Run-metadata block.
	writeU64(e.ingested.Load())
	pausedByte := byte(0)
	if e.State() == StatePaused {
		pausedByte = 1
	}
	bw.WriteByte(pausedByte)
	// The generation counter, so resumed runs keep minting generations
	// strictly above every generation the checkpointed state carries.
	writeU32(e.genCounter.Load())
	writeU32(uint32(len(e.programs)))
	for _, r := range e.ranks {
		writeU32(uint32(r.store.NumVertices()))
		r.store.ForEachVertex(func(slot graph.Slot, id graph.VertexID) bool {
			writeU64(uint64(id))
			for a := range e.programs {
				var v uint64
				if vals := r.values[a]; int(slot) < len(vals) {
					v = vals[slot]
				}
				writeU64(v)
			}
			// Witness blocks, one per witness-capable program: the
			// vertex's generation, its witnessed-lane mask, and the witness
			// of each set lane in ascending lane order.
			for a := range e.programs {
				if e.witness[a] == nil {
					continue
				}
				var gen uint32
				if int(slot) < len(r.gens[a]) {
					gen = r.gens[a][slot]
				}
				var mask uint64
				if int(slot) < len(r.witMask[a]) {
					mask = r.witMask[a][slot]
				}
				writeU32(gen)
				writeU64(mask)
				base := int(slot) * r.witLanes[a]
				for m := mask; m != 0; m &= m - 1 {
					lane := bits.TrailingZeros64(m)
					writeU64(uint64(r.wits[a][base+lane]))
				}
			}
			writeU32(uint32(r.store.Degree(slot)))
			r.store.Neighbors(slot, func(nbr graph.VertexID, w graph.Weight) bool {
				writeU64(uint64(nbr))
				writeU32(uint32(w))
				return true
			})
			return true
		})
	}
	// bufio carries any underlying write error to Flush.
	return bw.Flush()
}

// ReadCheckpoint builds a fresh, not-yet-started engine from a checkpoint.
// opts must describe the same rank count and partitioner as the writer
// (vertex placement is validated); programs must match the writer's
// program count and order. The checkpoint's metadata block is available
// through CheckpointMeta — for a paused-run checkpoint it tells
// the caller where to resume the interrupted streams.
func ReadCheckpoint(r io.Reader, opts Options, programs ...Program) (*Engine, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("core: checkpoint header: %w", err)
	}
	switch string(magic[:]) {
	case string(ckptMagic[:]):
	case "IGCKPT01", "IGCKPT02":
		return nil, fmt.Errorf("core: checkpoint format %q has no witness state and is no longer read (a later delete would skip invalidation); only %q is", magic[:], ckptMagic[:])
	default:
		return nil, fmt.Errorf("core: not a checkpoint (bad magic %q)", magic[:])
	}
	readU32 := func() (uint32, error) {
		var v uint32
		err := binary.Read(br, binary.LittleEndian, &v)
		return v, err
	}
	readU64 := func() (uint64, error) {
		var v uint64
		err := binary.Read(br, binary.LittleEndian, &v)
		return v, err
	}
	ranks, err := readU32()
	if err != nil {
		return nil, err
	}
	// Validate before New: a corrupt rank word must not drive the engine
	// allocation (ranks=0 silently became a 1-rank engine; a huge value
	// allocated that many rank structs before any shard data was read).
	if ranks < 1 || ranks > maxCheckpointRanks {
		return nil, fmt.Errorf("core: checkpoint rank count %d out of range [1, %d]", ranks, maxCheckpointRanks)
	}
	flags, err := readU32()
	if err != nil {
		return nil, err
	}
	var meta CheckpointMeta
	if meta.Ingested, err = readU64(); err != nil {
		return nil, fmt.Errorf("core: checkpoint metadata: %w", err)
	}
	pausedByte, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint metadata: %w", err)
	}
	meta.Paused = pausedByte != 0
	genCounter, err := readU32()
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint metadata: %w", err)
	}
	nProgs, err := readU32()
	if err != nil {
		return nil, err
	}
	if int(nProgs) != len(programs) {
		return nil, fmt.Errorf("core: checkpoint has %d programs, got %d", nProgs, len(programs))
	}
	opts.Ranks = int(ranks)
	opts.Undirected = flags&1 != 0
	opts.WeightPolicy = graph.WeightPolicy(flags >> 1 & 3)
	e := New(opts, programs...)
	e.loadedMeta = meta
	e.genCounter.Store(genCounter)

	for ri, rk := range e.ranks {
		// A restored rank cannot know whether its edges ever lost one, so
		// it keeps the live-edge guard on from the start.
		rk.removedEdge = true
		nVerts, err := readU32()
		if err != nil {
			return nil, fmt.Errorf("core: rank %d header: %w", ri, err)
		}
		for i := uint32(0); i < nVerts; i++ {
			id64, err := readU64()
			if err != nil {
				return nil, fmt.Errorf("core: rank %d vertex %d: %w", ri, i, err)
			}
			id := graph.VertexID(id64)
			if e.part.Owner(id) != ri {
				return nil, fmt.Errorf("core: vertex %d belongs to rank %d, found in shard %d — partitioner mismatch",
					id, e.part.Owner(id), ri)
			}
			slot, _ := rk.store.EnsureVertex(id)
			rk.growValues(slot)
			for a := range programs {
				v, err := readU64()
				if err != nil {
					return nil, err
				}
				// No Publisher.Touch: nothing is published yet, and the
				// first two publishes copy every slot.
				rk.values[a][slot] = v
			}
			for a := range programs {
				if e.witness[a] == nil {
					continue
				}
				gen, err := readU32()
				if err != nil {
					return nil, err
				}
				mask, err := readU64()
				if err != nil {
					return nil, err
				}
				lanes := rk.witLanes[a]
				if lanes < 64 && mask>>lanes != 0 {
					return nil, fmt.Errorf("core: vertex %d witness mask %#x has bits beyond program %d's %d lanes",
						id, mask, a, lanes)
				}
				rk.gens[a][slot] = gen
				rk.witMask[a][slot] = mask
				base := int(slot) * lanes
				for m := mask; m != 0; m &= m - 1 {
					wit, err := readU64()
					if err != nil {
						return nil, err
					}
					rk.wits[a][base+bits.TrailingZeros64(m)] = graph.VertexID(wit)
				}
			}
			deg, err := readU32()
			if err != nil {
				return nil, err
			}
			for d := uint32(0); d < deg; d++ {
				nbr, err := readU64()
				if err != nil {
					return nil, err
				}
				w, err := readU32()
				if err != nil {
					return nil, err
				}
				// All checkpointed edges belong to "the past": sequence 0
				// keeps them visible to every future snapshot marker.
				rk.store.AddEdge(id, graph.VertexID(nbr), graph.Weight(w), 0)
			}
		}
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("core: trailing bytes after checkpoint")
	}
	return e, nil
}
