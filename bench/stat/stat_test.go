package stat

import (
	"math"
	"testing"
)

// A percentile is reported only when at least MinBeyond samples lie beyond
// it, so the highest one a sample supports rises with its size.
func TestSupportedPercentile(t *testing.T) {
	ladder := []float64{50, 90, 99, 99.9, 99.99}
	highest := func(n int) float64 {
		best := 0.0
		for _, p := range ladder {
			if Supported(n, p) {
				best = p
			}
		}
		return best
	}
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90},
		{1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := highest(tc.n); got != tc.want {
			t.Errorf("highest percentile %d samples support = %v, want %v", tc.n, got, tc.want)
		}
	}
	if Supported(99, 90) || !Supported(100, 90) {
		t.Error("p90 needs exactly 100 samples to leave 10 beyond it")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if got := Percentile(s, tc.p); got != tc.want {
			t.Errorf("Percentile(p%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty sample must read 0")
	}
}

// The expected quartiles are what Python's statistics.quantiles(v, n=4)
// prints for the same lists.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 2, 38, 23, 38, 23, 21}, 10, 38},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
	} {
		q1, q3 := Quartiles(tc.v)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("Quartiles(%v) = %v, %v, want %v, %v", tc.v, q1, q3, tc.q1, tc.q3)
		}
	}
	if s := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-12 {
		t.Errorf("Spread = %v, want (8.25-2.75)/5.5 = 1", s)
	}
	if !math.IsNaN(Spread([]float64{4})) {
		t.Error("one value has no spread")
	}
}

func TestJudge(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		name           string
		parent, change float64
		higher         bool
		bound, spread  float64
		worse          float64
		verdict        string
	}{
		{"lower-is-better within bound", 100, 104, false, 0.05, 0.01, 0.04, Pass},
		{"lower-is-better past bound", 100, 106, false, 0.05, 0.01, 0.06, Regress},
		{"higher-is-better drop past bound", 1000, 880, true, 0.10, 0.02, 0.12, Regress},
		{"higher-is-better gain", 1000, 1300, true, 0.10, 0.02, -0.30, Pass},
		{"spread wider than bound", 100, 120, false, 0.05, 0.08, 0.20, Unresolved},
		{"spread wider than bound hides a gain too", 100, 80, false, 0.05, 0.08, -0.20, Unresolved},
		{"unknown spread still judged", 100, 120, false, 0.05, nan, 0.20, Regress},
		{"zero parent, zero change", 0, 0, false, 0.05, nan, 0, Pass},
	} {
		worse, verdict := Judge(tc.parent, tc.change, tc.higher, tc.bound, tc.spread)
		if math.Abs(worse-tc.worse) > 1e-12 || verdict != tc.verdict {
			t.Errorf("%s: got %v %s, want %v %s", tc.name, worse, verdict, tc.worse, tc.verdict)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{Name: "root", Parent: -1, StartNS: 0, EndNS: 100},
		{Name: "a", Parent: 0, StartNS: 10, EndNS: 40},
		{Name: "b", Parent: 0, StartNS: 30, EndNS: 60},                // overlaps a: covered once
		{Name: "a.child", Parent: 1, StartNS: 15, EndNS: 25},          // nested
		{Name: "beside", Parent: 0, Track: 1, StartNS: 0, EndNS: 100}, // another goroutine
		{Name: "overhang", Parent: 2, StartNS: 55, EndNS: 70},         // clipped to its parent
	}
	want := []int64{50, 20, 25, 10, 100, 15}
	got := SelfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestRecorder(t *testing.T) {
	var off *Recorder
	off.End(off.Begin("nothing", -1, 0)) // the untraced pass: no-ops
	if off.Spans() != nil {
		t.Error("nil recorder recorded")
	}
	r := NewRecorder("w")
	root := r.Begin("root", -1, 0)
	kid := r.Begin("kid", root, 0)
	r.End(kid)
	r.End(root)
	s := r.Spans()
	if len(s) != 2 || s[1].Parent != root || s[0].Workload != "w" || s[1].EndNS < s[1].StartNS || s[0].EndNS < s[1].EndNS {
		t.Errorf("unexpected spans %+v", s)
	}
	var sum int64
	for _, v := range SelfTimes(s) {
		sum += v
	}
	if sum != s[0].EndNS-s[0].StartNS {
		t.Errorf("self-times sum to %d, root lasted %d", sum, s[0].EndNS-s[0].StartNS)
	}
}
