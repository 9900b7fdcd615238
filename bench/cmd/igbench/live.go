package main

import (
	"time"

	"incregraph"
	"incregraph/bench/stat"
)

// lagEvery is how often a traced window probes visibility lag; the probe
// spins on ReadPoint, so it is kept off the untraced pass.
const lagEvery = 20

// spinMargin is how long before a tick is due the generator stops sleeping
// and spins. time.Sleep on this box overshoots by up to ~0.7 ms; with the
// 200 µs margin first tried the median tick began 0.5 ms late.
const spinMargin = time.Millisecond

// runLive drives the open loop: one goroutine (this one) pushes tickEvents
// events every tickEvery, calls Drain, then issues one ReadBatch. Update
// latency counts from the tick's due time, so a stall is charged to every
// tick queued behind it. The generator sleeps to within spinMargin of the
// due time and spins the rest, and reports how late it still ran.
func (pr *prepared) runLive(exp *expected, p params, rec *stat.Recorder, parent int, t *tally) rep {
	var rep rep
	g, ls := pr.graphs[0], pr.live
	heap0 := liveHeap()
	g.InitVertex(0, exp.Source)
	sp := rec.Begin("core.start", parent, 0)
	err := g.Start(ls)
	rec.End(sp)
	t.expect(1, b2u(err != nil), "start: %v", err)
	if err != nil {
		return rep
	}

	ticks := len(pr.events) / tickEvents
	ids := make([]incregraph.VertexID, readIDs)
	var out []incregraph.ReadValue
	gen := pr.w.idGen(p)
	var lastEpoch uint64
	window := rec.Begin("window", parent, 0)
	t0 := time.Now().Add(tickEvery)
	for i := 0; i < ticks; i++ {
		due := t0.Add(time.Duration(i) * tickEvery)
		if d := time.Until(due) - spinMargin; d > 0 {
			time.Sleep(d)
		}
		for time.Now().Before(due) {
		}
		tick := rec.Begin("tick", window, 0)
		begin := time.Now()
		late := begin.Sub(due)
		if behind := int(late / tickEvery); behind > rep.backlogMax {
			rep.backlogMax = behind
		}

		sp := rec.Begin("stream.push", tick, 0)
		batch := pr.events[i*tickEvents : (i+1)*tickEvents]
		for _, ev := range batch {
			ls.Push(ev)
		}
		pushed := time.Now()
		rec.End(sp)
		sp = rec.Begin("core.drain", tick, 0)
		g.Drain(ls)
		drained := time.Now()
		rec.End(sp)

		gen.fill(ids)
		sp = rec.Begin("serve.readbatch", tick, 0)
		tr := time.Now()
		var epoch uint64
		out, epoch = g.ReadBatch(0, ids, out[:0])
		read := time.Since(tr)
		rec.End(sp)
		t.expect(1, b2u(epoch < lastEpoch || len(out) != readIDs),
			"tick %d: read epoch %d after %d, %d answers", i, epoch, lastEpoch, len(out))
		lastEpoch = epoch

		if rec != nil && i%lagEvery == 0 {
			sp = rec.Begin("serve.visible", tick, 0)
			last := batch[len(batch)-1].Src
			for time.Since(drained) < 50*time.Millisecond {
				if v, _ := g.ReadPoint(0, last); v.Found {
					rep.lagMS = append(rep.lagMS, ms(time.Since(drained)))
					break
				}
			}
			rec.End(sp)
		}
		rec.End(tick)

		rep.lateUS = append(rep.lateUS, us(late))
		rep.pushUS = append(rep.pushUS, us(pushed.Sub(begin)))
		rep.drainUS = append(rep.drainUS, us(drained.Sub(pushed)))
		rep.updateMS = append(rep.updateMS, ms(drained.Sub(due)))
		rep.readUS = append(rep.readUS, us(read))
	}
	rep.wallS = time.Since(t0).Seconds()
	rec.End(window)

	sp = rec.Begin("core.wait", parent, 0)
	ls.Close()
	g.Wait()
	rec.End(sp)
	rep.rssMB = peakRSSMB()
	err = g.Err()
	t.expect(1, b2u(err != nil), "after Wait: %v", err)
	rep.stats = []incregraph.EngineStats{g.Stats()}

	rep.halfEdges = countHalfEdges(g.Topology())
	rep.heapB = liveHeap() - heap0

	// After termination the read plane must serve exactly what Collect
	// returns.
	sp = rec.Begin("serve.final", parent, 0)
	collected := g.Collect(0)
	all := make([]incregraph.VertexID, len(collected))
	for i, vv := range collected {
		all[i] = vv.ID
	}
	served, _ := g.ReadBatch(0, all, nil)
	var bad uint64
	for i, vv := range collected {
		if i >= len(served) || !served[i].Found || served[i].Val != vv.Val {
			bad++
		}
	}
	t.expect(uint64(len(collected)), bad, "final ReadBatch differs from Collect on %d of %d vertices", bad, len(collected))
	rec.End(sp)
	return rep
}
