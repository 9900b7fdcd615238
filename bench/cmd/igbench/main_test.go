package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The benchmark starts each workload as a child of its own executable; under
// go test that executable is the test binary, which becomes the workload
// process here.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload through both passes at smoke size: every
// check must hold, every metric of both tables must be reported, and every
// span file's self-times must account for the wall time of its run, which
// the traced pass measures apart from the spans.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-trace", "1", "-outdir", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	report, err := readReport(filepath.Join(dir, "report.json"))
	if err != nil {
		t.Fatal(err)
	}
	if h := report.Header; h.GoVersion == "" || h.GOMAXPROCS != childProcs || h.NumCPU == 0 || h.Seed != 202 {
		t.Errorf("header incomplete: %+v", h)
	}
	if len(report.Results) != 2*len(workloads) {
		t.Fatalf("want %d results, got %d", 2*len(workloads), len(report.Results))
	}
	for _, res := range report.Results {
		if res.Failed != 0 || res.Ops == 0 || res.InputEvents == 0 || len(res.InputFNV64) != 16 {
			t.Errorf("%s traced=%v: ops %d failed %d events %d fnv %q %v",
				res.Workload, res.Traced, res.Ops, res.Failed, res.InputEvents, res.InputFNV64, res.Failures)
		}
		if res.Traced {
			for _, m := range perLayer {
				if _, ok := res.Metrics[m.name]; !ok {
					t.Errorf("%s: per-layer metric %s missing", res.Workload, m.name)
				}
			}
			continue
		}
		for _, m := range endToEnd {
			if v, ok := res.Metrics[m.name]; !ok || v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want a positive value", res.Workload, m.name, v.Value)
			}
		}
	}
	for _, w := range workloads {
		b, err := os.ReadFile(filepath.Join(dir, "trace-"+w.name+".json"))
		if err != nil {
			t.Error(err)
			continue
		}
		var tr struct {
			WallNS    int64 `json:"wall_ns"`
			SelfSumNS int64 `json:"self_sum_ns"`
			Spans     []struct {
				Name     string `json:"name"`
				Workload string `json:"workload"`
			} `json:"spans"`
		}
		if err := json.Unmarshal(b, &tr); err != nil {
			t.Errorf("%s: %v", w.name, err)
			continue
		}
		if len(tr.Spans) < 10 || tr.Spans[0].Name != "run" || tr.Spans[0].Workload != w.name {
			t.Errorf("%s: unexpected spans %+v", w.name, tr.Spans)
		}
		if tr.WallNS <= 0 || tr.SelfSumNS > tr.WallNS {
			t.Errorf("%s: self-times sum to %d ns, more than the %d ns the run took", w.name, tr.SelfSumNS, tr.WallNS)
		}
		if diff := tr.WallNS - tr.SelfSumNS; diff < -tr.WallNS/20 || diff > tr.WallNS/20 {
			t.Errorf("%s: self-times sum to %d ns of a %d ns run", w.name, tr.SelfSumNS, tr.WallNS)
		}
	}
}

// TestDriverContract checks the last line a single-workload run prints, for
// each value of --trace, in the driver's double-dash spelling.
func TestDriverContract(t *testing.T) {
	for _, tc := range []struct {
		trace string
		want  int
	}{{"0", len(endToEnd)}, {"1", len(perLayer)}} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "churn-cc-r1", "--seed", "7", "--seconds", "1", "--trace", tc.trace, "-smoke", "-outdir", t.TempDir()}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d\n%s", code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
		}
		if len(line) != 4 {
			t.Errorf("trace %s: keys %v, want correct, attempted, failed, metrics", tc.trace, line)
		}
		var metrics map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		}
		if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != tc.want {
			t.Errorf("trace %s: %d metrics, want %d", tc.trace, len(metrics), tc.want)
		}
		for name, m := range metrics {
			if m.Value == nil || m.Unit == "" {
				t.Errorf("trace %s: metric %s lacks value or unit", tc.trace, name)
			}
		}
		if string(line["correct"]) != "true" || string(line["failed"]) != "0" || string(line["attempted"]) == "0" {
			t.Errorf("trace %s: correct=%s attempted=%s failed=%s", tc.trace, line["correct"], line["attempted"], line["failed"])
		}
	}
}

// A workload process that dies without a result must be reported as every
// operation failed, not kill the benchmark.
func TestDeadChildCountsAsFailed(t *testing.T) {
	w, _ := findWorkload("con-r1")
	p := params{seed: 1, seconds: 1, smoke: true}
	exp := w.expect(p)
	// No oracle file was written, so the workload process fails at once.
	o := options{outDir: t.TempDir(), expected: filepath.Join(t.TempDir(), "missing.gob")}
	var stderr bytes.Buffer
	res := runReps(w, p, exp, o, &stderr)
	if want := uint64(exp.InputEvents + exp.Vertices); res.Ops != want || res.Failed != want || len(res.Failures) == 0 {
		t.Errorf("dead child reported ops %d failed %d %v, want %d of each", res.Ops, res.Failed, res.Failures, want)
	}
	if got := contractLine(res, res.Ops, res.Failed); !strings.Contains(got, `"correct":false`) {
		t.Errorf("contract line for a dead child: %s", got)
	}
}

// The end-to-end figures are real runs: the median repetition, and
// percentiles over every sample of every repetition.
func TestMergeRepsPoolsEverySample(t *testing.T) {
	rep := func(rate float64, update ...float64) Result {
		return Result{Workload: "live-bfs-r1", Ops: 10, Metrics: map[string]Metric{
			"ingest_ev_s":           {Value: rate, Unit: "ev/s"},
			"core.processed_events": {Value: 7, Unit: "count"},
		}, Samples: map[string][]float64{"update_ms": update, "read_us": {1, 2, 3}}}
	}
	// A stall in one repetition only, four ticks of its ten. It must move
	// the pooled p90, which a per-position minimum over repetitions would hide.
	stalled := rep(90, 1, 1, 1, 1, 1, 1, 50, 50, 50, 50)
	calm := rep(100, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1)
	m := mergeReps([]Result{calm, stalled, rep(110, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1)})
	if got := m.Metrics["update_p90_ms"]; got.Value != 50 || got.N != 30 {
		t.Errorf("update_p90_ms = %+v, want the stall's 50 over 30 pooled samples", got)
	}
	if got := m.Metrics["update_p50_ms"].Value; got != 1 {
		t.Errorf("update_p50_ms = %v, want 1", got)
	}
	if got := m.Metrics["ingest_ev_s"]; got.Value != 100 || len(got.Reps) != 3 {
		t.Errorf("ingest_ev_s = %+v, want the median repetition, 100, of 3", got)
	}
	if m.Ops != 30 || m.Failed != 0 || m.Samples != nil {
		t.Errorf("merged ops %d failed %d samples %v", m.Ops, m.Failed, m.Samples)
	}
}

func TestCompareVerdicts(t *testing.T) {
	report := func(seed uint64, metrics map[string]float64, counts ...float64) Report {
		res := Result{Workload: "con-r1", Metrics: map[string]Metric{}}
		for name, v := range metrics {
			res.Metrics[name] = Metric{Value: v}
		}
		res.Metrics["core.processed_events"] = Metric{Reps: counts}
		return Report{Header: Header{Seed: seed, Commit: "c"}, Results: []Result{res}}
	}
	parent := side{
		report(1, map[string]float64{"ingest_ev_s": 1000, "setup_s": 1.00, "read_p50_us": 100, "failed_frac": 0}, 50, 50, 50),
		report(2, map[string]float64{"ingest_ev_s": 1010, "setup_s": 1.01, "read_p50_us": 200}, 60, 60),
		report(3, map[string]float64{"ingest_ev_s": 990, "setup_s": 0.99, "read_p50_us": 300}, 70),
		report(4, map[string]float64{"ingest_ev_s": 1005, "setup_s": 1.02, "read_p50_us": 400}, 80),
	}
	change := side{
		report(1, map[string]float64{"ingest_ev_s": 600, "setup_s": 1.05, "read_p50_us": 500, "failed_frac": 0.5}, 51, 51, 51),
		report(2, map[string]float64{"ingest_ev_s": 610, "setup_s": 1.04, "read_p50_us": 500, "failed_frac": 0.5}, 60, 60, 60),
	}
	var out bytes.Buffer
	// ingest_ev_s, the differing count and the failures regress;
	// read_p50_us is the one row the parent's spread leaves unresolved.
	if regressed, unresolved := compare(&out, parent, change); regressed != 3 || unresolved != 1 {
		t.Errorf("compare counted %d regressed, %d unresolved, want 3 and 1:\n%s", regressed, unresolved, out.String())
	}
	for _, want := range []string{
		"ingest_ev_s", "regress", // worse by more than the bound
		"setup_s", "pass", // within the bound
		"unresolved",                           // read_p50_us: the parent's own spread exceeds the bound
		"exact count: differs at 1 of 4 seeds", // seed 1 counted 50 on one side, 51 on the other
		"more operations fail",                 // failed_frac rose
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	if regressed, unresolved := compare(&out, parent[:1], parent[:1]); regressed+unresolved != 0 {
		t.Errorf("a report compared with itself is not ok:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "exact count: same at 1 seeds") {
		t.Errorf("compare output lacks the exact-count line:\n%s", out.String())
	}
}

func TestReadSides(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	for _, name := range []string{"p1", "p2", "c1", "c2", "c3"} {
		path := filepath.Join(dir, name+".json")
		if err := writeReport(path, Report{Header: Header{Commit: name}}); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	parent, change, err := readSides([]string{paths[0], paths[1], "--", paths[2], paths[3], paths[4]})
	if err != nil || len(parent) != 2 || len(change) != 3 || parent.commits() != "p1,p2" || change.commits() != "c1,c2,c3" {
		t.Errorf("readSides split %d | %d (%v)", len(parent), len(change), err)
	}
	parent, change, err = readSides(paths[:2])
	if err != nil || len(parent) != 1 || len(change) != 1 {
		t.Errorf("two files alone: %d | %d (%v)", len(parent), len(change), err)
	}
	for _, bad := range [][]string{nil, paths[:1], paths[:3], {"--", paths[0]}, {paths[0], "--"}} {
		if _, _, err := readSides(bad); err == nil {
			t.Errorf("readSides(%v) accepted", bad)
		}
	}
}

// BENCHMARK.json is written by igbench -spec from the workload and metric
// tables; the copy at the repository root must be that output.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		RunSeconds int `json:"run_seconds"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatal(err)
	}
	if want := benchmarkJSON(file.RunSeconds); strings.TrimSpace(string(b)) != want {
		t.Errorf("BENCHMARK.json differs from igbench -spec -seconds %d; regenerate it", file.RunSeconds)
	}
	for _, w := range workloads {
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	for _, m := range endToEnd {
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.name, m.bound)
		}
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the driver takes 128", len(perLayer))
	}
}
