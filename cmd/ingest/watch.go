package main

import (
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"incregraph"
	"incregraph/internal/metrics"
)

// watcher renders a live terminal telemetry view of a running graph:
// ingest/apply rates from snapshot deltas, lag gauges, and the sampled
// latency percentiles. It owns stdout while running, so main starts it
// right before Run and joins it (stop then <-done) before printing the
// final report.
type watcher struct {
	g    *incregraph.Graph
	out  io.Writer
	stop chan struct{}
	done chan struct{}
}

func startWatcher(g *incregraph.Graph, interval time.Duration) *watcher {
	w := &watcher{
		g:    g,
		out:  os.Stdout,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go w.loop(interval)
	return w
}

// join stops the render loop and waits for the last frame to finish, so
// the caller can print without interleaving.
func (w *watcher) join() {
	close(w.stop)
	<-w.done
}

func (w *watcher) loop(interval time.Duration) {
	defer close(w.done)
	fmt.Fprint(w.out, "\x1b[2J") // clear once; frames then repaint in place
	prev := w.g.Stats()
	prevT := time.Now()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-w.stop:
			// Park the cursor below the last frame so the final report
			// starts on a fresh line.
			fmt.Fprintln(w.out)
			return
		case <-tick.C:
		}
		cur := w.g.Stats()
		now := time.Now()
		renderWatch(w.out, cur, prev, now.Sub(prevT))
		prev, prevT = cur, now
	}
}

// renderWatch paints one frame: cursor home, then each line cleared to the
// right before being rewritten, so shrinking numbers leave no residue.
func renderWatch(out io.Writer, cur, prev incregraph.EngineStats, dt time.Duration) {
	var b strings.Builder
	b.WriteString("\x1b[H")
	line := func(format string, args ...any) {
		b.WriteString("\x1b[2K")
		fmt.Fprintf(&b, format, args...)
		b.WriteByte('\n')
	}
	rate := func(curN, prevN uint64) string {
		if dt <= 0 {
			return metrics.HumanRate(0)
		}
		return metrics.HumanRate(float64(curN-prevN) / dt.Seconds())
	}

	line("incregraph ingest — %s, uptime %s", cur.State, cur.Uptime.Round(100*time.Millisecond))
	line("")
	line("ingest    %12s   (total %s)", rate(cur.Ingested, prev.Ingested), metrics.HumanCount(cur.Ingested))
	line("applied   %12s   topo, %12s algo", rate(cur.Events.Topo(), prev.Events.Topo()),
		rate(cur.Events.Algo(), prev.Events.Algo()))
	line("lag       ingested−applied %d, in-flight %d, mailbox depth %d (hwm %s)",
		cur.IngestLag(), cur.InFlight, cur.MailboxDepth, metrics.HumanCount(cur.MailboxHWM))
	line("traffic   %12s msgs   %12s combined away   %12s self",
		rate(cur.MessagesSent, prev.MessagesSent),
		rate(cur.CombinedAway, prev.CombinedAway),
		rate(cur.SelfDelivered, prev.SelfDelivered))
	if ts := cur.Transport; len(ts.Peers) > 0 {
		var sent, recv, prevSent, prevRecv, unacked uint64
		var sentB, recvB, prevSentB, prevRecvB uint64
		var rtt incregraph.HistogramSnapshot
		for i, p := range ts.Peers {
			sent += p.SentEvents
			recv += p.RecvEvents
			unacked += p.Unacked()
			sentB += p.SentBytes
			recvB += p.RecvBytes
			if p.AckRTT.Count > rtt.Count {
				rtt = p.AckRTT // slowest-sampled peer's round trips
			}
			if i < len(prev.Transport.Peers) {
				prevSent += prev.Transport.Peers[i].SentEvents
				prevRecv += prev.Transport.Peers[i].RecvEvents
				prevSentB += prev.Transport.Peers[i].SentBytes
				prevRecvB += prev.Transport.Peers[i].RecvBytes
			}
		}
		line("wire      %s node %d/%d   %12s sent   %12s recv   %d unacked",
			ts.Kind, ts.Node, ts.Nodes, rate(sent, prevSent), rate(recv, prevRecv), unacked)
		byteRate := func(curB, prevB uint64) string {
			if dt <= 0 {
				return metrics.HumanBytes(0) + "/s"
			}
			return metrics.HumanBytes(uint64(float64(curB-prevB)/dt.Seconds())) + "/s"
		}
		line("          %12s out   %12s in   ack rtt p99 %-10s   flightrec %s (%d watchdog fires)",
			byteRate(sentB, prevSentB), byteRate(recvB, prevRecvB),
			rtt.Quantile(0.99),
			metrics.HumanCount(cur.Flight.Recorded), cur.Flight.WatchdogFires)
	} else {
		line("wire      %s (single process)", ts.Kind)
	}
	if sv := cur.Serve; sv.Enabled {
		line("serve     epoch %d (published %d)   %12s publishes   %12s reads/s   point p99 %-10s",
			sv.Epoch, sv.PublishedEpoch,
			rate(sv.Publishes, prev.Serve.Publishes),
			rate(sv.PointReads+sv.BatchReads+sv.TopKReads+sv.NbhdReads,
				prev.Serve.PointReads+prev.Serve.BatchReads+prev.Serve.TopKReads+prev.Serve.NbhdReads),
			cur.Latency.QueryPoint.Quantile(0.99))
	}
	if st := cur.Storage; st.Hybrid {
		extra := ""
		if cur.AutoTune {
			extra = fmt.Sprintf("   autotune %s adjusts", metrics.HumanCount(cur.TuneAdjusts))
		}
		line("storage   %12s compactions   %s seg edges   delta hit %.2f%s",
			rate(st.Compactions, prev.Storage.Compactions),
			metrics.HumanCount(st.SegmentEdges), st.DeltaHitRate(), extra)
	}
	line("")
	if lat := cur.Latency; lat.SampleEvery > 0 {
		h := lat.IngestToQuiesce
		line("latency   ingest→quiesce  p50 %-10s p99 %-10s p99.9 %-10s (n=%d, 1/%d)",
			h.Quantile(0.50), h.Quantile(0.99), h.Quantile(0.999), h.Count, lat.SampleEvery)
		line("          mailbox p99 %-10s drain p99 %-10s flush-gap p50 %-10s",
			lat.MailboxResidency.Quantile(0.99), lat.BatchDrain.Quantile(0.99),
			lat.FlushInterval.Quantile(0.50))
	} else {
		line("latency   sampling disabled (-sample >= 0 to enable)")
		line("")
	}
	b.WriteString("\x1b[2K")
	io.WriteString(out, b.String()) //nolint:errcheck // terminal paint
}
