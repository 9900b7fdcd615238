package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime/pprof"

	"incregraph"
	"incregraph/bench/stat"
)

// childMain runs one repetition of one workload (or its whole traced pass)
// in this process and prints the Result as the last line of standard
// output. The parent started this process fresh, with GOMAXPROCS pinned, so
// nothing of another workload or repetition is in its heap or its peak RSS.
func childMain(w workload, p params, o options) error {
	exp, err := readExpected(o.expected)
	if err != nil {
		return err
	}
	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	var res Result
	if o.trace == 1 {
		res, err = runTraced(w, p, exp, o.outDir)
	} else {
		res, err = runRep(w, p, exp)
	}
	if err != nil {
		return err
	}
	if o.memProfile != "" {
		f, err := os.Create(o.memProfile)
		if err != nil {
			return err
		}
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

func newResult(w workload, traced bool, exp *expected) Result {
	return Result{
		Workload:    w.name,
		Traced:      traced,
		InputEvents: exp.InputEvents,
		InputFNV64:  fmt.Sprintf("%016x", exp.InputFNV64),
		Metrics:     map[string]Metric{},
	}
}

func (r *Result) finish(t *tally) {
	r.Ops, r.Failed, r.Failures = t.ops, t.failed, t.msgs
}

// percentile adds name as percentile pct of samples, with the sample count,
// when the samples support that percentile (stat.MinBeyond beyond it).
func (r *Result) percentile(name, unit string, samples []float64, pct float64) {
	if !stat.Supported(len(samples), pct) {
		return
	}
	r.Metrics[name] = Metric{Value: stat.Percentile(stat.Sorted(samples), pct), Unit: unit, N: len(samples)}
}

// runRep is one repetition of the untraced pass, the pass every end-to-end
// metric comes from: the workload set up once and run once, through the
// public API only, and checked. It reports the run's whole-run quantities
// and its raw per-tick (or per-chunk) samples; the parent takes medians over
// repetitions and percentiles over the pooled samples (mergeReps).
func runRep(w workload, p params, exp *expected) (Result, error) {
	var t tally
	res := newResult(w, false, exp)
	pr, err := w.prepare(p, nil, nil, -1)
	if err != nil {
		return res, err
	}
	r := pr.run(exp, p, nil, -1, &t)
	pr.verify(exp, r.halfEdges, &t)
	fmt.Fprintf(os.Stderr, "%s: set-up %.3f s, %.0f ev/s over %.3f s, peak %.0f MB resident, %.1f MB live for %d half-edges\n",
		w.name, pr.setupS, pr.evPerS(r), r.wallS, r.rssMB, r.heapB/1e6, r.halfEdges)

	res.Metrics["setup_s"] = Metric{Value: pr.setupS, Unit: "s"}
	res.Metrics["ingest_ev_s"] = Metric{Value: pr.evPerS(r), Unit: "ev/s"}
	res.Metrics["heap_b_per_edge"] = Metric{Value: r.heapB / float64(r.halfEdges), Unit: "B/edge"}
	if r.rssMB > 0 {
		res.Metrics["peak_rss_mb"] = Metric{Value: r.rssMB, Unit: "MB"}
	}
	res.Samples = map[string][]float64{"update_ms": r.updateMS, "read_us": r.readUS}
	var ev incregraph.EventCounts
	for _, s := range r.stats {
		ev = addCounts(ev, s.Events)
	}
	res.Metrics["core.processed_events"] = Metric{Value: float64(ev.Total()), Unit: "count"}
	res.Metrics["core.deletes"] = Metric{Value: float64(ev.Deletes), Unit: "count"}
	res.Metrics["core.invalidations"] = Metric{Value: float64(ev.Invalidates), Unit: "count"}
	res.finish(&t)
	return res, nil
}
