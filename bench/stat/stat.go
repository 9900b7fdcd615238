// Package stat holds the benchmark's arithmetic: percentiles and which of
// them a sample supports, quartile spread, the regression verdict, and span
// recording with self-time. It depends on nothing else in the repo so its
// rules can be tested on their own.
package stat

import (
	"math"
	"sort"
)

// MinBeyond is how many samples must lie beyond a percentile before it is
// reported: with fewer, the figure is one or two outliers, not a tail.
const MinBeyond = 10

// Supported reports whether n samples leave at least MinBeyond beyond
// percentile p.
func Supported(n int, p float64) bool {
	return float64(n)*(100-p) >= MinBeyond*100-1e-6 // 10000 samples do support p99.9
}

// Percentile returns the nearest-rank percentile p of sorted values (0 for
// an empty sample).
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// Sorted returns a sorted copy of values.
func Sorted(values []float64) []float64 {
	out := append([]float64(nil), values...)
	sort.Float64s(out)
	return out
}

// Median returns the middle value (mean of the middle two for an even
// count; 0 for an empty sample).
func Median(values []float64) float64 {
	s := Sorted(values)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), so the spread
// computed here is the spread the driver computes. It needs two values.
func Quartiles(values []float64) (q1, q3 float64) {
	s := Sorted(values)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// Spread is the distance between the quartiles as a share of the median:
// the run-to-run noise a bound is compared with. NaN below two values.
func Spread(values []float64) float64 {
	q1, q3 := Quartiles(values)
	return (q3 - q1) / Median(values)
}

// Verdicts of Judge.
const (
	Pass       = "pass"
	Regress    = "regress"
	Unresolved = "unresolved"
)

// Judge compares a change's median with its parent's for one end-to-end
// metric on one workload. worse is the share by which the change is worse
// (negative when better). The verdict is Unresolved when the parent's own
// run-to-run spread is wider than the bound, because then a difference of
// the bound's size cannot be told from noise; a NaN spread (too few runs to
// know) does not block a verdict.
func Judge(parent, change float64, higherIsBetter bool, bound, spread float64) (worse float64, verdict string) {
	if parent == 0 {
		if change == 0 {
			return 0, Pass
		}
		return math.Inf(1), Regress
	}
	worse = (change - parent) / parent
	if higherIsBetter {
		worse = -worse
	}
	switch {
	case spread > bound:
		return worse, Unresolved
	case worse > bound:
		return worse, Regress
	}
	return worse, Pass
}
