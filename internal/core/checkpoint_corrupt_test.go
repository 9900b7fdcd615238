package core_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"incregraph/internal/algo"
	"incregraph/internal/core"
	"incregraph/internal/gen"
	"incregraph/internal/stream"
)

// craft assembles checkpoint bytes field by field: []byte and string
// segments are written raw, uint32/uint64 little-endian, byte as itself.
func craft(parts ...any) []byte {
	var buf bytes.Buffer
	for _, p := range parts {
		switch v := p.(type) {
		case []byte:
			buf.Write(v)
		case string:
			buf.WriteString(v)
		case byte:
			buf.WriteByte(v)
		case uint32:
			binary.Write(&buf, binary.LittleEndian, v)
		case uint64:
			binary.Write(&buf, binary.LittleEndian, v)
		default:
			panic("craft: unsupported part type")
		}
	}
	return buf.Bytes()
}

// validCheckpoint produces real checkpoint bytes from a small converged
// run (1 rank, 1 program, a handful of edges).
func validCheckpoint(t testing.TB) []byte {
	t.Helper()
	e := core.New(core.Options{Ranks: 1, Undirected: true}, algo.BFS{})
	e.InitVertex(0, 0)
	if _, err := e.Run(stream.Split(gen.Path(8), 1)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadCheckpointCorrupt drives the v3 decoder through the corrupt
// inputs a damaged or hostile file could present. Every case must return
// an error — never panic, never silently coerce.
func TestReadCheckpointCorrupt(t *testing.T) {
	valid := validCheckpoint(t)
	magic := valid[:8]
	cases := []struct {
		name string
		in   []byte
	}{
		{"empty", nil},
		{"bad magic", craft("NOTACKPT", uint32(1))},
		{"future version", craft("IGCKPT04", valid[8:])},
		{"rank count zero", craft(magic, uint32(0))},
		{"rank count huge", craft(magic, uint32(1)<<20)},
		{"rank count above cap", craft(magic, uint32(1)<<16+1)},
		{"vertex count huge, no data", craft(magic, uint32(1), uint32(1),
			uint64(0), byte(0), uint32(0), uint32(1), uint32(0xFFFFFFFF))},
		{"degree huge, no data", craft(magic, uint32(1), uint32(1),
			uint64(0), byte(0), uint32(0), uint32(1), uint32(1),
			uint64(0), uint64(7), uint32(0), uint64(0), uint32(0xFFFFFFFF))},
		{"trailing garbage", append(append([]byte{}, valid...), 0x00)},
	}
	for i := 1; i < len(valid); i++ {
		cases = append(cases, struct {
			name string
			in   []byte
		}{"truncated", valid[:i]})
	}
	for _, tc := range cases {
		if _, err := core.ReadCheckpoint(bytes.NewReader(tc.in), core.Options{}, algo.BFS{}); err == nil {
			t.Errorf("%s (%d bytes): corrupt checkpoint accepted", tc.name, len(tc.in))
		}
	}
	// The intact bytes still load, so the cases above fail for the right
	// reason.
	if _, err := core.ReadCheckpoint(bytes.NewReader(valid), core.Options{}, algo.BFS{}); err != nil {
		t.Fatalf("valid checkpoint rejected: %v", err)
	}
	// v1 and v2 files carry no witness state; the rejection says so rather
	// than reading as an arbitrary bad magic.
	for _, old := range []string{"IGCKPT01", "IGCKPT02"} {
		_, err := core.ReadCheckpoint(bytes.NewReader(craft(old, valid[8:])), core.Options{}, algo.BFS{})
		if err == nil || !strings.Contains(err.Error(), "no witness state") {
			t.Errorf("%s: error %v, want a no-witness-state rejection", old, err)
		}
	}
}

// TestReadCheckpointRankCountRegression pins the bug the checkpoint fuzz
// target surfaced while it was being built: a header whose rank-count
// word is corrupt used to drive the engine allocation directly — ranks=0
// silently became a 1-rank engine (loading a sharded checkpoint into the
// wrong layout), and a huge value allocated that many rank structs before
// a single shard byte was validated. Both must now fail fast with a
// bounds error.
func TestReadCheckpointRankCountRegression(t *testing.T) {
	magic := []byte("IGCKPT03")
	for _, ranks := range []uint32{0, 1 << 16 << 1, 0xFFFFFFFF} {
		in := craft(magic, ranks, uint32(0), uint64(0), byte(0), uint32(0), uint32(1), uint32(0))
		_, err := core.ReadCheckpoint(bytes.NewReader(in), core.Options{}, algo.BFS{})
		if err == nil {
			t.Errorf("rank count %d accepted", ranks)
		} else if want := fmt.Sprintf("rank count %d out of range", ranks); !strings.Contains(err.Error(), want) {
			t.Errorf("rank count %d: error %q does not name it (want %q)", ranks, err, want)
		}
	}
}

// FuzzReadCheckpoint hardens the checkpoint decoder: arbitrary bytes must
// never panic or exhaust memory, and anything the decoder accepts must
// itself checkpoint back to loadable bytes.
func FuzzReadCheckpoint(f *testing.F) {
	f.Add(validCheckpoint(f))
	f.Add([]byte{})
	f.Add([]byte("IGCKPT03"))
	f.Add(craft("IGCKPT03", uint32(0)))
	f.Add(craft("IGCKPT03", uint32(1), uint32(1), uint64(0), byte(0), uint32(0), uint32(1), uint32(0)))
	f.Fuzz(func(t *testing.T, in []byte) {
		e, err := core.ReadCheckpoint(bytes.NewReader(in), core.Options{}, algo.BFS{})
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := e.WriteCheckpoint(&buf); err != nil {
			t.Fatalf("accepted checkpoint failed to re-serialize: %v", err)
		}
		if _, err := core.ReadCheckpoint(bytes.NewReader(buf.Bytes()), core.Options{}, algo.BFS{}); err != nil {
			t.Fatalf("re-serialized checkpoint failed to load: %v", err)
		}
	})
}
