package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		name string
		asc  []float64
		p    float64
		want float64
	}{
		{"empty", nil, 50, 0},
		{"single p50", []float64{7}, 50, 7},
		{"single p99", []float64{7}, 99, 7},
		{"all equal", []float64{3, 3, 3, 3}, 90, 3},
		{"ten p50", ten, 50, 5},
		{"ten p90", ten, 90, 9},
		{"ten p99", ten, 99, 10},
		{"ten p100", ten, 100, 10},
		{"ten p1", ten, 1, 1},
	} {
		if got := percentile(c.asc, c.p); got != c.want {
			t.Errorf("%s: percentile(%v, %v) = %v, want %v", c.name, c.asc, c.p, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{4}, 4},
		{"odd unsorted", []float64{9, 1, 5}, 5},
		{"even", []float64{4, 1, 3, 2}, 2.5},
		{"all equal", []float64{2, 2, 2, 2}, 2},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("%s: median(%v) = %v, want %v", c.name, c.xs, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median reordered its argument: %v", xs)
	}
}

// The expected values are those of Python's statistics.quantiles(xs, n=4),
// the rule the benchmark's acceptance spread is stated in.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		name   string
		xs     []float64
		q1, q3 float64
	}{
		{"empty", nil, 0, 0},
		{"single", []float64{5}, 5, 5},
		{"all equal", []float64{2, 2, 2, 2, 2}, 2, 2},
		{"two", []float64{1, 3}, 0.5, 3.5},
		{"three unsorted", []float64{1, 3, 2}, 1, 3},
		{"one to ten", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{"one to eleven", []float64{11, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 3, 9},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("%s: quartiles(%v) = %v, %v, want %v, %v", c.name, c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// A tail percentile is printed only with ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {1, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {50000, 99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if c.n > 0 {
			if beyond := float64(c.n) * (1 - tailPercentile(c.n)/100); tailPercentile(c.n) > 50 && beyond < 10-1e-9 {
				t.Errorf("tailPercentile(%d) leaves only %.1f samples beyond it", c.n, beyond)
			}
		}
	}
}

func TestSummarize(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct {
		name   string
		slices []float64
		want   sliceSummary
	}{
		{"no slices", nil, sliceSummary{}},
		{"one slice", []float64{8}, sliceSummary{Median: 8, Q1: 8, Q3: 8, Slices: 1}},
		{"all equal", []float64{5, 5, 5, 5}, sliceSummary{Median: 5, Q1: 5, Q3: 5, Slices: 4}},
		{"every slice empty", []float64{nan, nan}, sliceSummary{}},
		{"an empty slice is left out", []float64{1, nan, 3, 2}, sliceSummary{Median: 2, Q1: 1, Q3: 3, Slices: 3}},
		{"one stalled slice moves neither median nor upper quartile", []float64{100, 101, 99, 100, 12, 100, 102, 98, 100, 101},
			sliceSummary{Median: 100, Q1: 98.75, Q3: 101, Slices: 10}},
	} {
		if got := summarize(c.slices); got != c.want {
			t.Errorf("%s: summarize(%v) = %+v, want %+v", c.name, c.slices, got, c.want)
		}
	}
}
