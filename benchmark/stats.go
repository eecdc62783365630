package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending sample, or 0 for an empty one.
func percentile(asc []float64, p float64) float64 {
	n := len(asc)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return asc[rank-1]
}

// median returns the middle value of xs (the mean of the middle two when the
// count is even), or 0 for an empty sample.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs, computed as Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), so the spread
// this program prints is the one the benchmark's acceptance rule is stated
// in. Fewer than two values have no spread: both quartiles are the value.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		return median(xs), median(xs)
	}
	s := sorted(xs)
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// tailPercentile returns the highest of p50, p90, p99 that still has at least
// ten samples beyond it in a sample of n values. A p99 printed from fewer than
// a thousand values would be set by a handful of requests, so smaller samples
// fall back to the percentile they can support.
func tailPercentile(n int) float64 {
	switch {
	case n >= 1000:
		return 99
	case n >= 100:
		return 90
	default:
		return 50
	}
}

// sliceSummary reduces the per-slice values of a measured window. Slices that
// hold no value (NaN: no request completed in them) are left out, so a stall
// shows as a missing slice in Slices and not as a zero pulled into the
// quartiles.
type sliceSummary struct {
	Median, Q1, Q3 float64
	Slices         int
}

func summarize(perSlice []float64) sliceSummary {
	kept := make([]float64, 0, len(perSlice))
	for _, v := range perSlice {
		if !math.IsNaN(v) {
			kept = append(kept, v)
		}
	}
	s := sliceSummary{Median: median(kept), Slices: len(kept)}
	s.Q1, s.Q3 = quartiles(kept)
	return s
}
