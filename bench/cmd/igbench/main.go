// Command igbench is the repository's benchmark: five sized workloads, each
// run in a fresh child process through the public incregraph API, checked
// against static oracles, with every metric printed by name and unit.
//
//	go run ./bench/cmd/igbench                      all workloads, untraced
//	go run ./bench/cmd/igbench -trace 1             plus the traced pass (per-layer metrics, span files)
//	go run ./bench/cmd/igbench -workload con-r1     one workload; the last line is the driver's JSON
//	go run ./bench/cmd/igbench -compare parent-*.json -- change-*.json
//
// See bench/README.md for what each workload and metric is for.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	// childProcs pins GOMAXPROCS of every workload process, so a report
	// from a bigger box measures the same schedule.
	childProcs = 2
	// childDeadline and childMemLimit bound a workload process; one that
	// passes either is killed and all its operations count as failed.
	childDeadline = 120 * time.Second
	childMemLimit = 4 << 30
	childEnv      = "IGBENCH_CHILD"
	// defaultSeconds is run_seconds of BENCHMARK.json.
	defaultSeconds = 16
)

type options struct {
	workload   string
	seed       uint64
	seconds    int
	trace      int
	smoke      bool
	out        string
	outDir     string
	cpuProfile string
	memProfile string
	compare    bool
	spec       bool
	expected   string // a workload process: the file its parent wrote the oracle to
}

func parseFlags(args []string, stderr io.Writer) (options, []string, error) {
	var o options
	fs := flag.NewFlagSet("igbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run only this workload and print the driver's JSON line last")
	fs.Uint64Var(&o.seed, "seed", 202, "input seed")
	fs.IntVar(&o.seconds, "seconds", defaultSeconds, "how long a pass measures a workload: the least time its repetitions fill, and what its live windows add up to")
	fs.IntVar(&o.trace, "trace", 0, "1 adds the traced pass: spans, per-layer timers, tax ledger")
	fs.BoolVar(&o.smoke, "smoke", false, "small graphs, one repetition, short live window: checks the harness, measures nothing")
	fs.StringVar(&o.outDir, "outdir", "bench/out", "directory for the report and the span files")
	fs.StringVar(&o.out, "out", "", "write the JSON report here (default <outdir>/report.json)")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write <prefix>-<workload>.pprof CPU profiles from the workload processes")
	fs.StringVar(&o.memProfile, "memprofile", "", "write <prefix>-<workload>.pprof heap profiles from the workload processes")
	fs.BoolVar(&o.compare, "compare", false, "compare reports: igbench -compare parent.json... -- change.json...")
	fs.BoolVar(&o.spec, "spec", false, "print BENCHMARK.json as the workload and metric tables define it")
	fs.StringVar(&o.expected, "expected", "", "internal: the oracle file of a workload process")
	if err := fs.Parse(args); err != nil {
		return o, nil, err
	}
	if o.trace != 0 && o.trace != 1 {
		return o, nil, errors.New("-trace takes 0 or 1")
	}
	if o.seconds < 1 {
		return o, nil, errors.New("-seconds must be at least 1")
	}
	return o, fs.Args(), nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the exit, so the tests can call it. A process started
// with childEnv set is a workload process.
func run(args []string, stdout, stderr io.Writer) int {
	o, rest, err := parseFlags(args, stderr)
	if err != nil {
		return 2
	}
	p := params{seed: o.seed, seconds: o.seconds, smoke: o.smoke}
	if os.Getenv(childEnv) != "" {
		w, ok := findWorkload(o.workload)
		if !ok {
			fmt.Fprintf(stderr, "igbench: unknown workload %q\n", o.workload)
			return 2
		}
		if err := childMain(w, p, o); err != nil {
			fmt.Fprintln(stderr, "igbench:", err)
			return 1
		}
		return 0
	}
	if o.spec {
		fmt.Fprintln(stdout, benchmarkJSON(o.seconds))
		return 0
	}
	if o.compare {
		parent, change, err := readSides(rest)
		if err != nil {
			fmt.Fprintln(stderr, "igbench:", err)
			return 2
		}
		// 1: something got worse by more than its bound; 3: nothing did, but
		// the parent's own spread left something unresolved.
		switch regressed, unresolved := compare(stdout, parent, change); {
		case regressed > 0:
			return 1
		case unresolved > 0:
			return 3
		}
		return 0
	}

	selected := workloads
	if o.workload != "" {
		w, ok := findWorkload(o.workload)
		if !ok {
			fmt.Fprintf(stderr, "igbench: unknown workload %q\n", o.workload)
			return 2
		}
		selected = []workload{w}
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "igbench:", err)
		return 1
	}
	report := Report{Header: newHeader(o.seed, o.seconds, o.smoke)}
	for _, w := range selected {
		exp := w.expect(p)
		o.expected = filepath.Join(o.outDir, fmt.Sprintf("expected-%s-%d.gob", w.name, p.seed))
		if err := exp.write(o.expected); err != nil {
			fmt.Fprintln(stderr, "igbench:", err)
			return 1
		}
		// Over all workloads -trace 1 adds the traced pass after the untraced
		// one; for a single workload it selects the pass, which is what the
		// driver asks for.
		for traced := 0; traced <= o.trace; traced++ {
			if o.workload != "" && traced != o.trace {
				continue
			}
			var res Result
			if traced == 1 {
				res = runChild(w, p, exp, true, 1, o, stderr)
			} else {
				res = runReps(w, p, exp, o, stderr)
			}
			printResult(stdout, res)
			report.Results = append(report.Results, res)
		}
		_ = os.Remove(o.expected) // scratch of this pass; a failure to remove it changes nothing
	}
	out := o.out
	if out == "" {
		out = filepath.Join(o.outDir, "report.json")
	}
	if err := writeReport(out, report); err != nil {
		fmt.Fprintln(stderr, "igbench:", err)
		return 1
	}

	var attempted, failed uint64
	for _, res := range report.Results {
		attempted += res.Ops
		failed += res.Failed
	}
	if o.workload != "" {
		// The driver's contract: one JSON object last, holding exactly the
		// end-to-end metrics untraced, exactly the per-layer ones traced.
		fmt.Fprintln(stdout, contractLine(report.Results[0], attempted, failed))
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// readSides reads the reports -compare was given: the parent's, then "--",
// then the change's; two files alone are one of each.
func readSides(paths []string) (parent, change side, err error) {
	cut := -1
	for i, p := range paths {
		if p == "--" {
			cut = i
		}
	}
	if cut < 0 && len(paths) == 2 {
		paths, cut = []string{paths[0], "--", paths[1]}, 1
	}
	if cut < 1 || cut == len(paths)-1 {
		return nil, nil, errors.New("usage: igbench -compare parent.json... -- change.json...")
	}
	for i, p := range paths {
		if i == cut {
			continue
		}
		r, err := readReport(p)
		if err != nil {
			return nil, nil, err
		}
		if i < cut {
			parent = append(parent, r)
		} else {
			change = append(change, r)
		}
	}
	return parent, change, nil
}

// runReps is the untraced pass over one workload: repetitions, each a fresh
// process that sets the workload up and runs it once, until there are
// minReps of them and --seconds have passed; then the merge. A repetition
// that died ends the pass: the next would likely die the same way, and take
// as long doing it.
func runReps(w workload, p params, exp *expected, o options, stderr io.Writer) Result {
	began := time.Now()
	var reps []Result
	for n := 1; ; n++ {
		res := runChild(w, p, exp, false, n, o, stderr)
		reps = append(reps, res)
		dead := res.Failed == res.Ops
		if dead || p.smoke || (n >= minReps && time.Since(began) >= time.Duration(p.seconds)*time.Second) {
			break
		}
	}
	return mergeReps(reps)
}

// benchmarkJSON renders BENCHMARK.json from the tables, so that the file at
// the repository root is written from the same source the benchmark reads.
func benchmarkJSON(runSeconds int) string {
	type workloadSpec struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metricSpec struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	better := map[bool]string{true: "higher", false: "lower"}
	spec := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}{Command: []string{"sh", "bench/igbench.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, workloadSpec{w.name, w.why})
	}
	for _, m := range endToEnd {
		bound := m.bound
		spec.EndToEnd = append(spec.EndToEnd, metricSpec{m.name, m.unit, better[m.higher], &bound})
	}
	for _, m := range perLayer {
		spec.PerLayer = append(spec.PerLayer, metricSpec{m.name, m.unit, better[m.higher], nil})
	}
	b, _ := json.MarshalIndent(spec, "", "  ")
	return string(b)
}

// contractLine renders the driver's result object from the pass it asked
// for.
func contractLine(res Result, attempted, failed uint64) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if res.Traced {
		for _, m := range perLayer {
			metrics[m.name] = value{res.Metrics[m.name].Value, m.unit}
		}
	} else {
		for _, m := range endToEnd {
			metrics[m.name] = value{res.Metrics[m.name].Value, m.unit}
		}
	}
	b, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0, attempted, failed, metrics})
	return string(b)
}

// runChild runs repetition rep of one workload's untraced pass, or its
// traced pass, in a fresh process and returns its Result. A child that
// dies, overruns its deadline or its memory limit yields a Result in which
// every operation it was to attempt (each offered event, each vertex to
// check) failed.
func runChild(w workload, p params, exp *expected, traced bool, rep int, o options, stderr io.Writer) Result {
	planned := uint64(exp.InputEvents + exp.Vertices)
	exe, err := os.Executable()
	if err != nil {
		return deadChild(w, traced, planned, err.Error())
	}
	args := []string{
		"-workload", w.name,
		"-seed", strconv.FormatUint(p.seed, 10),
		"-seconds", strconv.Itoa(p.seconds),
		"-trace", strconv.Itoa(int(b2u(traced))),
		"-outdir", o.outDir,
		"-expected", o.expected,
	}
	if p.smoke {
		args = append(args, "-smoke")
	}
	suffix := fmt.Sprintf("-%s-rep%d.pprof", w.name, rep)
	if traced {
		suffix = "-" + w.name + "-traced.pprof"
	}
	if o.cpuProfile != "" {
		args = append(args, "-cpuprofile", o.cpuProfile+suffix)
	}
	if o.memProfile != "" {
		args = append(args, "-memprofile", o.memProfile+suffix)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1", "GOMAXPROCS="+strconv.Itoa(childProcs))
	cmd.Stderr = stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Start(); err != nil {
		return deadChild(w, traced, planned, err.Error())
	}

	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	deadline := time.After(childDeadline)
	poll := time.NewTicker(250 * time.Millisecond)
	defer poll.Stop()
	killed := ""
	for running := true; running; {
		select {
		case err := <-done:
			running = false
			if err != nil && killed == "" {
				killed = err.Error()
			}
		case <-deadline:
			killed = fmt.Sprintf("deadline of %s passed", childDeadline)
			_ = cmd.Process.Kill() // it may have just exited; Wait reports either way
		case <-poll.C:
			if rss := residentBytes(cmd.Process.Pid); rss > childMemLimit {
				killed = fmt.Sprintf("resident memory %d MB passed the %d MB limit", rss>>20, childMemLimit>>20)
				_ = cmd.Process.Kill()
			}
		}
	}

	// The child prints its Result as its last line.
	var res Result
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		if json.Unmarshal(sc.Bytes(), &res) != nil {
			res = Result{}
		}
	}
	if killed != "" || res.Workload == "" || res.Ops == 0 {
		if killed == "" {
			killed = "no result printed"
		}
		return deadChild(w, traced, planned, killed)
	}
	// Where /proc did not give the child its peak at convergence, its
	// lifetime peak stands in.
	if _, ok := res.Metrics["peak_rss_mb"]; !ok && !traced {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			res.Metrics["peak_rss_mb"] = Metric{Value: float64(ru.Maxrss) / 1024, Unit: "MB"}
		}
	}
	return res
}

func deadChild(w workload, traced bool, ops uint64, why string) Result {
	return Result{
		Workload: w.name, Traced: traced, Ops: ops, Failed: ops,
		Failures: []string{"workload process: " + why},
		Metrics: map[string]Metric{
			"ops":         {Value: float64(ops), Unit: "count"},
			"failed_frac": {Value: 1, Unit: "frac"},
		},
	}
}

// residentBytes reads a process's resident set from /proc (0 if it is gone).
func residentBytes(pid int) uint64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/statm", pid))
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(b))
	if len(fields) < 2 {
		return 0
	}
	pages, _ := strconv.ParseUint(fields[1], 10, 64)
	return pages * uint64(os.Getpagesize())
}
