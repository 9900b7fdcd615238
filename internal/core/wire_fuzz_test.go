package core

import (
	"bytes"
	"testing"
)

// wireFuzzSeeds are the checked-in interesting inputs (mirrored under
// testdata/fuzz/FuzzFrameDecode/): one well-formed frame of each type plus
// classic decoder traps — an older version, bad magic, huge claimed
// lengths, truncation.
func wireFuzzSeeds() [][]byte {
	ev := Event{To: 1, From: 2, Val: 3, W: 4, Seq: 0, Kind: KindUpdate, Algo: 0}
	return [][]byte{
		appendFrame(nil, frameHello, appendHelloPayload(nil,
			helloFrame{Node: 1, Nodes: 2, RanksPerNode: 2, Addr: "127.0.0.1:7070"})),
		appendFrame(nil, frameRoster, appendRosterPayload(nil,
			rosterFrame{Addrs: []string{"127.0.0.1:7070", "127.0.0.1:7071"}})),
		appendFrame(nil, frameEvents, appendEventsPayload(nil, 1, 2, 0, []Event{ev})),
		appendFrame(nil, frameExt, appendEventsPayload(nil, 1, extWireRank, extWireRank, []Event{ev})),
		appendFrame(nil, frameProbe, appendU64Payload(nil, 1)),
		appendFrame(nil, frameReport, appendReportPayload(nil, reportFrame{
			Probe: 1, Node: 1, Quiescent: true, StreamsDone: true,
			Sent: []uint64{5, 0}, Recv: []uint64{3, 0}})),
		appendFrame(nil, frameTerminate, appendU64Payload(nil, 2)),
		appendFrame(nil, frameAck, appendU64Payload(nil, 42)),
		appendFrame(nil, frameLineage, appendLineagePayload(nil, lineageReport{
			ID: 0x01000007, From: 1, Procs: []uint32{0}, Sent: []uint64{2}, Recv: []uint64{1},
			Nodes: []LineageNode{{ID: 1 << 24, Parent: 0, Rank: 3, Kind: KindUpdate, To: 9}}})),
		appendFrame(nil, frameStatsReq, appendU64Payload(nil, 7)),
		appendFrame(nil, frameStatsResp, appendStatsRespPayload(nil,
			statsRespFrame{Req: 7, Node: 1, JSON: []byte(`{"state":"running"}`)})),
		append([]byte{wireMagic0, wireMagic1, wireVersionMin - 1, byte(frameProbe), 8, 0, 0, 0}, appendU64Payload(nil, 1)...),
		[]byte("XXXXXXXXXXXX"),
		{wireMagic0, wireMagic1, wireVersion, byte(frameEvents), 0xff, 0xff, 0xff, 0xff},
		appendFrame(nil, frameEvents, appendEventsPayload(nil, 1, 2, 0, []Event{ev}))[:20],
	}
}

// FuzzFrameDecode hardens the transport's frame decoder the way
// FuzzReadCheckpoint hardens the checkpoint decoder: arbitrary bytes must
// produce either a clean error or a successfully parsed frame — never a
// panic or an over-sized allocation — and every successful parse must be
// canonical: re-encoding the parsed form reproduces the consumed bytes
// exactly, at both the frame layer and every typed payload layer.
func FuzzFrameDecode(f *testing.F) {
	for _, seed := range wireFuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ft, payload, rest, err := parseFrame(data)
		if err != nil {
			return
		}
		consumed := data[:len(data)-len(rest)]
		if re := appendFrame(nil, ft, payload); !bytes.Equal(re, consumed) {
			t.Fatalf("frame re-encode differs from consumed bytes")
		}
		switch ft {
		case frameHello:
			if h, err := parseHelloPayload(payload); err == nil {
				if !bytes.Equal(appendHelloPayload(nil, h), payload) {
					t.Fatalf("hello re-encode not byte-identical")
				}
			}
		case frameRoster:
			if r, err := parseRosterPayload(payload); err == nil {
				if !bytes.Equal(appendRosterPayload(nil, r), payload) {
					t.Fatalf("roster re-encode not byte-identical")
				}
			}
		case frameEvents, frameExt:
			if ef, err := parseEventsPayload(payload); err == nil {
				if !bytes.Equal(appendEventsPayload(nil, ef.Seq, ef.From, ef.Dest, ef.Events), payload) {
					t.Fatalf("events re-encode not byte-identical")
				}
				for i := range ef.Events {
					if ef.Events[i].Kind > KindSignal {
						t.Fatalf("parse accepted event kind %d", ef.Events[i].Kind)
					}
				}
			}
		case frameReport:
			if r, err := parseReportPayload(payload); err == nil {
				if len(r.Sent) != len(r.Recv) || len(r.Sent) > maxWireNodes {
					t.Fatalf("report counters out of bounds: %d/%d", len(r.Sent), len(r.Recv))
				}
				if !bytes.Equal(appendReportPayload(nil, r), payload) {
					t.Fatalf("report re-encode not byte-identical")
				}
			}
		case frameProbe, frameTerminate, frameAck, frameStatsReq:
			if v, err := parseU64Payload(payload); err == nil {
				if !bytes.Equal(appendU64Payload(nil, v), payload) {
					t.Fatalf("u64 re-encode not byte-identical")
				}
			}
		case frameLineage:
			if r, err := parseLineagePayload(payload); err == nil {
				if len(r.Procs) != len(r.Sent) || len(r.Procs) != len(r.Recv) ||
					len(r.Procs) > maxWireNodes || len(r.Nodes) > maxLineageNodes {
					t.Fatalf("lineage report out of bounds: %d chans, %d nodes", len(r.Procs), len(r.Nodes))
				}
				if !bytes.Equal(appendLineagePayload(nil, r), payload) {
					t.Fatalf("lineage re-encode not byte-identical")
				}
			}
		case frameStatsResp:
			if sr, err := parseStatsRespPayload(payload); err == nil {
				if len(sr.JSON) > maxStatsJSON {
					t.Fatalf("stats-resp JSON over limit: %d", len(sr.JSON))
				}
				if !bytes.Equal(appendStatsRespPayload(nil, sr), payload) {
					t.Fatalf("stats-resp re-encode not byte-identical")
				}
			}
		}
	})
}
