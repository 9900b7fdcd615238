package core

import (
	"bytes"
	"io"
	"math/rand"
	"strings"
	"testing"

	"incregraph/internal/graph"
)

// Wire-codec round-trip properties, mirroring
// TestLifecycleCheckpointRoundTripProperty for the transport's frame
// format: every frame type and every event kind must survive
// encode → parse → re-encode byte-identically (the canonicality the fuzz
// target then hammers with arbitrary bytes).

func randWireEvent(rng *rand.Rand, kind Kind) Event {
	return Event{
		To:   graph.VertexID(rng.Uint64()),
		From: graph.VertexID(rng.Uint64()),
		Val:  rng.Uint64(),
		W:    graph.Weight(rng.Uint32()),
		Seq:  rng.Uint32(),
		Kind: kind,
		Algo: uint8(rng.Intn(256)),
	}
}

// TestWireEventRoundTripProperty: every event kind, random field values,
// byte-identical re-encode; since wire v3 the Trace tag travels with the
// event (cross-process lineage).
func TestWireEventRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for kind := KindAdd; kind <= KindSignal; kind++ {
		for i := 0; i < 256; i++ {
			ev := randWireEvent(rng, kind)
			ev.Trace = rng.Uint64() // must survive the wire since v3
			enc := appendEvent(nil, &ev)
			if len(enc) != eventWireSize {
				t.Fatalf("kind %v: encoded %d bytes, want %d", kind, len(enc), eventWireSize)
			}
			dec, err := parseEvent(enc)
			if err != nil {
				t.Fatalf("kind %v: parse: %v", kind, err)
			}
			if dec != ev {
				t.Fatalf("kind %v: round trip changed the event:\n got %+v\nwant %+v", kind, dec, ev)
			}
			re := appendEvent(nil, &dec)
			if !bytes.Equal(re, enc) {
				t.Fatalf("kind %v: re-encode not byte-identical", kind)
			}
		}
	}
	if _, err := parseEvent(appendEvent(nil, &Event{Kind: KindSignal + 1})); err == nil {
		t.Fatalf("parseEvent accepted an out-of-range kind")
	}
}

// randPayload builds one random, valid payload of the given frame type
// with the typed appender, returning also a re-encoder that parses it with
// the typed parser and encodes the result again.
func randPayload(t *testing.T, rng *rand.Rand, ft frameType) (payload []byte, reencode func([]byte) []byte) {
	t.Helper()
	switch ft {
	case frameHello:
		nodes := uint32(1 + rng.Intn(8))
		h := helloFrame{
			Node:         uint32(rng.Intn(int(nodes))),
			Nodes:        nodes,
			RanksPerNode: uint32(1 + rng.Intn(8)),
			Addr:         strings.Repeat("a", rng.Intn(maxWireAddr+1)),
		}
		return appendHelloPayload(nil, h), func(b []byte) []byte {
			g, err := parseHelloPayload(b)
			if err != nil {
				t.Fatalf("parseHelloPayload: %v", err)
			}
			return appendHelloPayload(nil, g)
		}
	case frameRoster:
		r := rosterFrame{Addrs: make([]string, 1+rng.Intn(8))}
		for i := range r.Addrs {
			r.Addrs[i] = strings.Repeat("b", rng.Intn(32))
		}
		return appendRosterPayload(nil, r), func(b []byte) []byte {
			g, err := parseRosterPayload(b)
			if err != nil {
				t.Fatalf("parseRosterPayload: %v", err)
			}
			return appendRosterPayload(nil, g)
		}
	case frameEvents, frameExt:
		events := make([]Event, rng.Intn(16))
		for i := range events {
			events[i] = randWireEvent(rng, Kind(rng.Intn(int(KindSignal)+1)))
		}
		from, dest := uint32(rng.Intn(64)), uint32(rng.Intn(64))
		if ft == frameExt {
			from, dest = extWireRank, extWireRank
		}
		seq := rng.Uint64()
		for i := range events {
			events[i].Trace = rng.Uint64()
		}
		return appendEventsPayload(nil, seq, from, dest, events), func(b []byte) []byte {
			g, err := parseEventsPayload(b)
			if err != nil {
				t.Fatalf("parseEventsPayload: %v", err)
			}
			return appendEventsPayload(nil, g.Seq, g.From, g.Dest, g.Events)
		}
	case frameReport:
		n := 1 + rng.Intn(8)
		r := reportFrame{
			Probe:       rng.Uint64(),
			Node:        uint32(rng.Intn(n)),
			Quiescent:   rng.Intn(2) == 0,
			StreamsDone: rng.Intn(2) == 0,
			Sent:        make([]uint64, n),
			Recv:        make([]uint64, n),
		}
		for i := 0; i < n; i++ {
			r.Sent[i], r.Recv[i] = rng.Uint64(), rng.Uint64()
		}
		return appendReportPayload(nil, r), func(b []byte) []byte {
			g, err := parseReportPayload(b)
			if err != nil {
				t.Fatalf("parseReportPayload: %v", err)
			}
			return appendReportPayload(nil, g)
		}
	case frameProbe, frameTerminate, frameAck, frameStatsReq:
		return appendU64Payload(nil, rng.Uint64()), func(b []byte) []byte {
			v, err := parseU64Payload(b)
			if err != nil {
				t.Fatalf("parseU64Payload: %v", err)
			}
			return appendU64Payload(nil, v)
		}
	case frameLineage:
		nc := rng.Intn(4)
		r := lineageReport{
			ID:        rng.Uint32(),
			From:      uint32(rng.Intn(8)),
			Truncated: rng.Intn(2) == 0,
		}
		for i := 0; i < nc; i++ {
			r.Procs = append(r.Procs, uint32(rng.Intn(8)))
			r.Sent = append(r.Sent, rng.Uint64())
			r.Recv = append(r.Recv, rng.Uint64())
		}
		for i := rng.Intn(8); i > 0; i-- {
			ev := randWireEvent(rng, Kind(rng.Intn(int(KindSignal)+1)))
			r.Nodes = append(r.Nodes, LineageNode{
				ID: rng.Uint32(), Parent: rng.Uint32(), Rank: rng.Intn(64),
				Kind: ev.Kind, Algo: ev.Algo, Merged: rng.Intn(2) == 0,
				MergedInto: rng.Uint32(), To: ev.To, From: ev.From,
				Val: ev.Val, W: ev.W, Seq: ev.Seq,
			})
		}
		return appendLineagePayload(nil, r), func(b []byte) []byte {
			g, err := parseLineagePayload(b)
			if err != nil {
				t.Fatalf("parseLineagePayload: %v", err)
			}
			return appendLineagePayload(nil, g)
		}
	case frameStatsResp:
		f := statsRespFrame{
			Req:  rng.Uint64(),
			Node: uint32(rng.Intn(8)),
			JSON: []byte(strings.Repeat("{}", rng.Intn(64))),
		}
		return appendStatsRespPayload(nil, f), func(b []byte) []byte {
			g, err := parseStatsRespPayload(b)
			if err != nil {
				t.Fatalf("parseStatsRespPayload: %v", err)
			}
			return appendStatsRespPayload(nil, g)
		}
	default:
		t.Fatalf("unknown frame type %v", ft)
		return nil, nil
	}
}

// TestWireFrameRoundTripProperty: every frame type with random typed
// payloads — frame, parse, typed parse, and both re-encodes are
// byte-identical; a second frame concatenated after the first comes back
// as rest.
func TestWireFrameRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for ft := frameHello; ft <= frameStatsResp; ft++ {
		for i := 0; i < 64; i++ {
			payload, reencode := randPayload(t, rng, ft)
			frame := appendFrame(nil, ft, payload)
			tail := appendFrame(nil, frameProbe, appendU64Payload(nil, 7))
			gotFT, gotPayload, rest, err := parseFrame(append(append([]byte(nil), frame...), tail...))
			if err != nil {
				t.Fatalf("%v: parseFrame: %v", ft, err)
			}
			if gotFT != ft {
				t.Fatalf("parseFrame returned type %v, want %v", gotFT, ft)
			}
			if !bytes.Equal(gotPayload, payload) {
				t.Fatalf("%v: payload changed across the frame layer", ft)
			}
			if !bytes.Equal(rest, tail) {
				t.Fatalf("%v: rest is not the trailing frame", ft)
			}
			if re := appendFrame(nil, gotFT, gotPayload); !bytes.Equal(re, frame) {
				t.Fatalf("%v: frame re-encode not byte-identical", ft)
			}
			if re := reencode(gotPayload); !bytes.Equal(re, payload) {
				t.Fatalf("%v: typed re-encode not byte-identical", ft)
			}
		}
	}
}

// TestWireReadFrameStream: readFrame consumes a concatenated frame stream
// one frame at a time with buffer reuse, then reports EOF cleanly.
func TestWireReadFrameStream(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var stream []byte
	var want []frameType
	for i := 0; i < 50; i++ {
		ft := frameType(1 + rng.Intn(int(frameStatsResp)))
		payload, _ := randPayload(t, rng, ft)
		stream = appendFrame(stream, ft, payload)
		want = append(want, ft)
	}
	r := bytes.NewReader(stream)
	var buf []byte
	for i, ft := range want {
		var gotFT frameType
		var err error
		gotFT, _, buf, err = readFrame(r, buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if gotFT != ft {
			t.Fatalf("frame %d: got %v, want %v", i, gotFT, ft)
		}
	}
	if _, _, _, err := readFrame(r, buf); err != io.EOF {
		t.Fatalf("after the last frame: err=%v, want io.EOF", err)
	}
}

// TestWireRejects: the canonicality and bounds rules — non-exact payloads,
// oversized counts, bad headers — are all hard errors.
func TestWireRejects(t *testing.T) {
	ok := appendFrame(nil, frameProbe, appendU64Payload(nil, 1))
	cases := map[string][]byte{
		"short header":      ok[:frameHeaderSize-1],
		"bad magic":         append([]byte("XX"), ok[2:]...),
		"bad version":       append([]byte{wireMagic0, wireMagic1, 99}, ok[3:]...),
		"version below min": append([]byte{wireMagic0, wireMagic1, wireVersionMin - 1}, ok[3:]...),
		"zero frame type":   append([]byte{wireMagic0, wireMagic1, wireVersion, 0}, ok[4:]...),
		"huge frame type":   append([]byte{wireMagic0, wireMagic1, wireVersion, 250}, ok[4:]...),
		"truncated":         ok[:len(ok)-1],
		"length oversized":  append([]byte{wireMagic0, wireMagic1, wireVersion, byte(frameProbe), 0xff, 0xff, 0xff, 0xff}, make([]byte, 16)...),
	}
	for name, b := range cases {
		if _, _, _, err := parseFrame(b); err == nil {
			t.Errorf("parseFrame accepted %s", name)
		}
	}

	if _, err := parseU64Payload(make([]byte, 9)); err == nil {
		t.Errorf("parseU64Payload accepted a 9-byte payload")
	}
	evp := appendEventsPayload(nil, 1, 0, 1, []Event{{Kind: KindAdd}})
	if _, err := parseEventsPayload(append(evp, 0)); err == nil {
		t.Errorf("parseEventsPayload accepted a trailing byte")
	}
	hp := appendHelloPayload(nil, helloFrame{Nodes: 2, RanksPerNode: 1, Addr: "x"})
	if _, err := parseHelloPayload(append(hp, 0)); err == nil {
		t.Errorf("parseHelloPayload accepted a trailing byte")
	}
	if _, err := parseHelloPayload(appendHelloPayload(nil, helloFrame{Node: 2, Nodes: 2, RanksPerNode: 1})); err == nil {
		t.Errorf("parseHelloPayload accepted node >= nodes")
	}
	rp := appendRosterPayload(nil, rosterFrame{Addrs: []string{"a", "b"}})
	if _, err := parseRosterPayload(append(rp, 0)); err == nil {
		t.Errorf("parseRosterPayload accepted a trailing byte")
	}
	rep := appendReportPayload(nil, reportFrame{Probe: 1, Sent: []uint64{0}, Recv: []uint64{0}})
	if _, err := parseReportPayload(append(rep, 0)); err == nil {
		t.Errorf("parseReportPayload accepted a trailing byte")
	}
	badFlags := append([]byte(nil), rep...)
	badFlags[12] |= 0x80
	if _, err := parseReportPayload(badFlags); err == nil {
		t.Errorf("parseReportPayload accepted unknown flag bits")
	}
}

// TestWireVersionCompat pins the version rule: a decoder accepts only
// [wireVersionMin, wireVersion], which is the current version alone, and
// decodes a current EVENTS frame with every Trace tag intact. Older headers
// (v2 without the Trace word, v1) are rejected at the frame layer, before
// any payload is read.
func TestWireVersionCompat(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	events := make([]Event, 5)
	for i := range events {
		events[i] = randWireEvent(rng, Kind(rng.Intn(int(KindSignal)+1)))
		events[i].Trace = rng.Uint64()
	}
	r := bytes.NewReader(appendFrame(nil, frameEvents, appendEventsPayload(nil, 9, 1, 2, events)))
	ft, payload, buf, err := readFrame(r, nil)
	if err != nil || ft != frameEvents {
		t.Fatalf("readFrame: ft=%v err=%v, want EVENTS", ft, err)
	}
	f, err := parseEventsPayload(payload)
	if err != nil {
		t.Fatalf("parseEventsPayload: %v", err)
	}
	if f.Seq != 9 || f.From != 1 || f.Dest != 2 || len(f.Events) != len(events) {
		t.Fatalf("header fields changed: %+v", f)
	}
	for i := range events {
		if f.Events[i] != events[i] {
			t.Fatalf("event %d:\n got %+v\nwant %+v", i, f.Events[i], events[i])
		}
	}
	if _, _, _, err := readFrame(r, buf); err != io.EOF {
		t.Fatalf("after the frame: err=%v, want io.EOF", err)
	}

	for _, old := range []byte{1, 2} {
		frame := append([]byte{wireMagic0, wireMagic1, old, byte(frameProbe)}, 8, 0, 0, 0)
		frame = append(frame, appendU64Payload(nil, 5)...)
		if _, _, _, err := parseFrame(frame); err == nil {
			t.Fatalf("parseFrame accepted a v%d frame", old)
		}
		if _, _, _, err := readFrame(bytes.NewReader(frame), nil); err == nil {
			t.Fatalf("readFrame accepted a v%d frame", old)
		}
	}
}
