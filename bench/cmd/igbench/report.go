package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"

	"incregraph/bench/stat"
)

// Metric is one named measurement with its unit. N is the number of samples
// behind a percentile; Reps are the values of the repetitions a median was
// taken over, in the order they ran.
type Metric struct {
	Value float64   `json:"value"`
	Unit  string    `json:"unit"`
	N     int       `json:"n,omitempty"`
	Reps  []float64 `json:"reps,omitempty"`
}

// Result is what one pass of one workload reports. A workload process
// prints the Result of its own repetition, Samples included, as a JSON line;
// the benchmark merges a workload's repetitions into the Result it reports.
type Result struct {
	Workload    string               `json:"workload"`
	Traced      bool                 `json:"traced"`
	InputEvents int                  `json:"input_events"`
	InputFNV64  string               `json:"input_fnv64"`
	Ops         uint64               `json:"ops"`
	Failed      uint64               `json:"failed"`
	Failures    []string             `json:"failures,omitempty"`
	Metrics     map[string]Metric    `json:"metrics"`
	Samples     map[string][]float64 `json:"samples,omitempty"`
}

// Header records where and on what a report was measured.
type Header struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Kernel     string `json:"kernel"`
	GOGC       string `json:"gogc"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Smoke      bool   `json:"smoke"`
}

// Report is the file -out writes and -compare reads: one pass, or two with
// -trace 1, over the selected workloads.
type Report struct {
	Header  Header   `json:"header"`
	Results []Result `json:"results"`
}

func newHeader(seed uint64, seconds int, smoke bool) Header {
	h := Header{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: childProcs,
		NumCPU:     runtime.NumCPU(),
		Kernel:     "unknown",
		GOGC:       os.Getenv("GOGC"),
		Seed:       seed,
		Seconds:    seconds,
		Smoke:      smoke,
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	if h.GOGC == "" {
		h.GOGC = "100"
	}
	return h
}

func readReport(path string) (Report, error) {
	var r Report
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

func writeReport(path string, r Report) error {
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printResult lists every metric of a result by name with its unit.
func printResult(w io.Writer, r Result) {
	pass := "untraced"
	if r.Traced {
		pass = "traced"
	}
	fmt.Fprintf(w, "== %s (%s)  input_events=%d input_fnv64=%s ops=%d failed=%d\n",
		r.Workload, pass, r.InputEvents, r.InputFNV64, r.Ops, r.Failed)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		switch {
		case m.N > 0:
			fmt.Fprintf(w, "  %-28s %14.6g %-8s n=%d\n", name, m.Value, m.Unit, m.N)
		case len(m.Reps) > 0:
			fmt.Fprintf(w, "  %-28s %14.6g %-8s reps=%.6g\n", name, m.Value, m.Unit, m.Reps)
		default:
			fmt.Fprintf(w, "  %-28s %14.6g %s\n", name, m.Value, m.Unit)
		}
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
}

// repMedians are the metrics a pass reports as the median of its
// repetitions; every repetition is a whole run in a process of its own.
var repMedians = []string{"setup_s", "ingest_ev_s", "heap_b_per_edge", "peak_rss_mb"}

// exactCounts are the engine's own counts of a run. Where one rank pulls
// pre-materialised streams the order of work is fixed (workload.exact), so
// they repeat exactly from run to run and a change in one is a change in the
// program, not noise.
var exactCounts = []string{"core.processed_events", "core.deletes", "core.invalidations"}

// mergeReps folds the repetitions of one workload into the Result the pass
// reports: the median repetition for each whole-run quantity, percentiles
// over the pooled raw samples of all repetitions for the per-tick and
// per-chunk ones, operations and failures added up. Nothing is filtered: a
// stall in any repetition is in the pool.
func mergeReps(reps []Result) Result {
	out := reps[0]
	out.Metrics = map[string]Metric{}
	out.Samples = nil
	out.Ops, out.Failed, out.Failures = 0, 0, nil
	pool := map[string][]float64{}
	for _, r := range reps {
		out.Ops += r.Ops
		out.Failed += r.Failed
		out.Failures = append(out.Failures, r.Failures...)
		if out.InputFNV64 == "" {
			out.InputEvents, out.InputFNV64 = r.InputEvents, r.InputFNV64
		}
		for name, v := range r.Samples {
			pool[name] = append(pool[name], v...)
		}
	}
	for _, name := range append(repMedians[:len(repMedians):len(repMedians)], exactCounts...) {
		var m Metric
		for _, r := range reps {
			if v, ok := r.Metrics[name]; ok {
				m.Unit = v.Unit
				m.Reps = append(m.Reps, v.Value)
			}
		}
		if len(m.Reps) > 0 {
			m.Value = stat.Median(m.Reps)
			out.Metrics[name] = m
		}
	}
	if update := stat.Sorted(pool["update_ms"]); len(update) > 0 {
		out.Metrics["update_p50_ms"] = Metric{Value: stat.Percentile(update, 50), Unit: "ms", N: len(update)}
		out.Metrics["update_p90_ms"] = Metric{Value: stat.Percentile(update, 90), Unit: "ms", N: len(update)}
	}
	if read := pool["read_us"]; len(read) > 0 {
		out.Metrics["read_p50_us"] = Metric{Value: stat.Median(read), Unit: "us", N: len(read)}
	}
	out.Metrics["ops"] = Metric{Value: float64(out.Ops), Unit: "count"}
	out.Metrics["failed_frac"] = Metric{Value: float64(out.Failed) / float64(out.Ops), Unit: "frac"}
	return out
}

// side is the reports of one commit that -compare was given.
type side []Report

// values collects metric name of workload from the untraced result of each
// report.
func (s side) values(workload, name string) []float64 {
	var out []float64
	for _, r := range s {
		for _, res := range r.Results {
			if res.Workload == workload && !res.Traced {
				if m, ok := res.Metrics[name]; ok {
					out = append(out, m.Value)
				}
			}
		}
	}
	return out
}

// countsBySeed collects every value an exact count took, over all reports
// and all their repetitions, under the seed it was measured at.
func (s side) countsBySeed(workload, name string, into map[uint64]map[float64]bool) {
	for _, r := range s {
		for _, res := range r.Results {
			if res.Workload != workload || res.Traced {
				continue
			}
			if into[r.Header.Seed] == nil {
				into[r.Header.Seed] = map[float64]bool{}
			}
			for _, v := range res.Metrics[name].Reps {
				into[r.Header.Seed][v] = true
			}
		}
	}
}

func (s side) commits() string {
	seen := map[string]bool{}
	var out []string
	for _, r := range s {
		if !seen[r.Header.Commit] {
			seen[r.Header.Commit] = true
			out = append(out, r.Header.Commit)
		}
	}
	return strings.Join(out, ",")
}

// compare prints, for each end-to-end metric on each workload, the median
// of the change's reports against the median of the parent's, the parent's
// own quartile spread, and the verdict; then whether the exactly repeating
// workloads' counts took one value per seed. It returns how many rows
// regressed (a differing count and a rise in failures are regressions too)
// and how many stayed unresolved.
func compare(w io.Writer, parent, change side) (regressed, unresolved int) {
	fmt.Fprintf(w, "parent %s (%d reports)  change %s (%d reports)\n",
		parent.commits(), len(parent), change.commits(), len(change))
	fmt.Fprintf(w, "%-12s %-16s %14s %14s %8s %7s %7s  %s\n",
		"workload", "metric", "parent", "change", "worse", "bound", "spread", "verdict")
	for _, wl := range workloads {
		for _, m := range endToEnd {
			p, c := parent.values(wl.name, m.name), change.values(wl.name, m.name)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			pm, cm := stat.Median(p), stat.Median(c)
			spread := stat.Spread(p)
			worse, verdict := stat.Judge(pm, cm, m.higher, m.bound, spread)
			switch verdict {
			case stat.Regress:
				regressed++
			case stat.Unresolved:
				unresolved++
			}
			noise := "    n/a" // one report has no spread
			if !math.IsNaN(spread) {
				noise = fmt.Sprintf("%6.1f%%", 100*spread)
			}
			fmt.Fprintf(w, "%-12s %-16s %14.6g %14.6g %+7.1f%% %6.0f%% %s  %s\n",
				wl.name, m.name, pm, cm, 100*worse, 100*m.bound, noise, verdict)
		}
		if wl.exact() {
			for _, name := range exactCounts {
				// Every repetition of every report of either side, by seed:
				// one rank must count the same each time it is fed the same
				// input, whichever commit ran it.
				bySeed := map[uint64]map[float64]bool{}
				parent.countsBySeed(wl.name, name, bySeed)
				change.countsBySeed(wl.name, name, bySeed)
				seeds, differ := 0, 0
				for _, vals := range bySeed {
					if len(vals) > 0 {
						seeds++
					}
					if len(vals) > 1 {
						differ++
					}
				}
				if differ > 0 {
					regressed++
					fmt.Fprintf(w, "%-12s %-22s exact count: differs at %d of %d seeds\n", wl.name, name, differ, seeds)
				} else if seeds > 0 {
					fmt.Fprintf(w, "%-12s %-22s exact count: same at %d seeds\n", wl.name, name, seeds)
				}
			}
		}
		pf, cf := parent.values(wl.name, "failed_frac"), change.values(wl.name, "failed_frac")
		if stat.Median(cf) > stat.Median(pf) {
			regressed++
			fmt.Fprintf(w, "%-12s %-16s %14.6g %14.6g  more operations fail: regress\n",
				wl.name, "failed_frac", stat.Median(pf), stat.Median(cf))
		}
	}
	fmt.Fprintf(w, "%d regressed, %d unresolved\n", regressed, unresolved)
	return regressed, unresolved
}
