package main

import (
	"strings"
	"testing"
	"time"

	"incregraph"
)

// TestRenderWatchClampsUnacked renders a frame whose peer ack leads its
// send count — Send counts events only after queueing the frame, so a
// snapshot can see the ack first — and expects 0 unacked, not a wrapped
// uint64. The ingest lag clamps the same way.
func TestRenderWatchClampsUnacked(t *testing.T) {
	cur := incregraph.EngineStats{
		State:    incregraph.StateRunning,
		Ingested: 10,
		Events:   incregraph.EventCounts{Adds: 12},
		Transport: incregraph.TransportStats{Kind: "tcp", Node: 0, Nodes: 2,
			Peers: []incregraph.PeerTransportStats{{Node: 1, SentEvents: 40, AckedEvents: 41}}},
	}
	var b strings.Builder
	renderWatch(&b, cur, incregraph.EngineStats{}, time.Second)
	out := b.String()
	if !strings.Contains(out, " 0 unacked") {
		t.Errorf("ack ahead of sends should render 0 unacked:\n%s", out)
	}
	if !strings.Contains(out, "ingested−applied 0,") {
		t.Errorf("applied ahead of ingested should render lag 0:\n%s", out)
	}
}
