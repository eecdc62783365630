package metrics

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// quantile is the p-quantile of h's observations so far (0 when empty), for
// any p in [0, 1]: quantileLocked under the lock, as Snapshot reads its
// fixed ladder.
func quantile(h *Histogram, p float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.quantileLocked(p)
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(0.01, 1e9)
	if snap := h.Snapshot(); snap != (HistogramSnapshot{}) {
		t.Errorf("empty snapshot = %+v", snap)
	}
	if q := quantile(h, 0.99); q != 0 {
		t.Errorf("empty quantile = %v", q)
	}
}

// TestHistogramQuantileAccuracy checks every reported quantile lands within
// the configured relative error of the exact sample quantile, across three
// shapes (uniform, exponential tail, bimodal).
func TestHistogramQuantileAccuracy(t *testing.T) {
	const eps = 0.01
	rng := rand.New(rand.NewSource(7))
	shapes := map[string]func() float64{
		"uniform":     func() float64 { return 1 + 9999*rng.Float64() },
		"exponential": func() float64 { return 100 * rng.ExpFloat64() },
		"bimodal": func() float64 {
			if rng.Intn(10) == 0 {
				return 50000 + 1000*rng.Float64() // the overloaded tail
			}
			return 200 + 50*rng.Float64()
		},
	}
	for name, draw := range shapes {
		t.Run(name, func(t *testing.T) {
			h := NewHistogram(eps, 1e9)
			samples := make([]float64, 20000)
			for i := range samples {
				samples[i] = draw()
				h.Observe(samples[i])
			}
			sort.Float64s(samples)
			for _, p := range []float64{0.5, 0.95, 0.99, 0.999} {
				rank := int(math.Ceil(p*float64(len(samples)))) - 1
				exact := samples[rank]
				got := quantile(h, p)
				if relErr := math.Abs(got-exact) / exact; relErr > 2*eps {
					t.Errorf("p%v: got %v, exact %v (rel err %.4f > %.4f)", p*100, got, exact, relErr, 2*eps)
				}
			}
			snap := h.Snapshot()
			if snap.Count != 20000 {
				t.Errorf("count = %d", snap.Count)
			}
			if snap.Min != samples[0] || snap.Max != samples[len(samples)-1] {
				t.Errorf("min/max = %v/%v, want %v/%v", snap.Min, snap.Max, samples[0], samples[len(samples)-1])
			}
			if snap.P50 > snap.P95 || snap.P95 > snap.P99 || snap.P99 > snap.P999 || snap.P999 > snap.Max {
				t.Errorf("quantiles not monotone: %+v", snap)
			}
		})
	}
}

// TestHistogramBounds checks the clamping edges: sub-unit and negative values
// share the first bucket, values beyond the configured max land in the last
// bucket, and tail quantiles never exceed the exact observed max.
func TestHistogramBounds(t *testing.T) {
	h := NewHistogram(0.01, 1000)
	h.Observe(-5)
	h.Observe(0.25)
	h.Observe(1e12) // far beyond maxValue: clamps, exact max still tracked
	snap := h.Snapshot()
	if snap.Count != 3 {
		t.Errorf("count = %d", snap.Count)
	}
	if snap.Min != 0 {
		t.Errorf("min = %v, want 0 (negative clamps to zero)", snap.Min)
	}
	if snap.Max != 1e12 {
		t.Errorf("max = %v", snap.Max)
	}
	if snap.P999 > snap.Max {
		t.Errorf("p99.9 %v exceeds exact max %v", snap.P999, snap.Max)
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	h := NewHistogram(0.01, 1e9)
	h.ObserveDuration(3 * time.Millisecond)
	snap := h.Snapshot()
	if snap.Count != 1 || snap.Mean != 3000 {
		t.Errorf("3ms observed as %v µs (snapshot %+v)", snap.Mean, snap)
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines while
// snapshotting (run under -race).
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(0.02, 1e7)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				h.Observe(float64(w*500 + i + 1))
				if i%100 == 0 {
					_ = h.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != 4000 {
		t.Errorf("count = %d, want 4000", got)
	}
}

// TestHistogramSingleSample pins the n=1 distribution edge: every quantile of
// a one-sample histogram must report exactly that sample (the clamp against
// the tracked min/max must hide the eps-wide bucket interior).
func TestHistogramSingleSample(t *testing.T) {
	for _, v := range []float64{0.5, 1, 37, 999, 5e5} {
		h := NewHistogram(0.01, 1e6)
		h.Observe(v)
		snap := h.Snapshot()
		if snap.Count != 1 {
			t.Fatalf("v=%v: count %d", v, snap.Count)
		}
		// One exact expectation for every v — including sub-unit values,
		// which share bucket 0 but keep exact min/max, and the clamp must
		// surface those rather than the bucket representative.
		want := v
		for name, got := range map[string]float64{
			"p50": snap.P50, "p95": snap.P95, "p99": snap.P99, "p999": snap.P999,
			"min": snap.Min, "max": snap.Max, "mean": snap.Mean,
		} {
			if got != want {
				t.Fatalf("v=%v: %s = %v, want exactly the sample", v, name, got)
			}
		}
		if q := quantile(h, 0); q != want {
			t.Fatalf("v=%v: Quantile(0) = %v", v, q)
		}
		if q := quantile(h, 1); q != want {
			t.Fatalf("v=%v: Quantile(1) = %v", v, q)
		}
	}
}

// TestHistogramAllEqualSamples pins the degenerate distribution: when every
// observation is the same value, all quantiles collapse to it exactly — the
// bucket midpoint may sit up to eps away, but min/max clamping must win.
func TestHistogramAllEqualSamples(t *testing.T) {
	for _, v := range []float64{1, 2.5, 128, 77777} {
		h := NewHistogram(0.01, 1e6)
		for i := 0; i < 1000; i++ {
			h.Observe(v)
		}
		snap := h.Snapshot()
		if snap.P50 != v || snap.P95 != v || snap.P99 != v || snap.P999 != v {
			t.Fatalf("v=%v: quantiles %+v, want all exactly %v", v, snap, v)
		}
		if snap.Mean != v || snap.Min != v || snap.Max != v {
			t.Fatalf("v=%v: mean/min/max %+v", v, snap)
		}
	}
}

// TestHistogramBelowSmallestBucket pins the sub-unit edge: values in [0, 1]
// share the first bucket (below the resolution of a latency histogram), so a
// distribution living entirely under 1 must still report sane, clamped
// quantiles inside the exactly tracked [min, max] — never bucket 0's nominal
// representative when the data sits below it.
func TestHistogramBelowSmallestBucket(t *testing.T) {
	h := NewHistogram(0.01, 1e6)
	vals := []float64{0.001, 0.01, 0.2, 0.4, 0.9}
	for _, v := range vals {
		h.Observe(v)
	}
	snap := h.Snapshot()
	if snap.Min != 0.001 || snap.Max != 0.9 {
		t.Fatalf("min/max %v/%v, want exact 0.001/0.9", snap.Min, snap.Max)
	}
	for name, q := range map[string]float64{"p50": snap.P50, "p99": snap.P99, "p999": snap.P999} {
		if q < snap.Min || q > snap.Max {
			t.Fatalf("%s = %v escapes the observed range [%v, %v]", name, q, snap.Min, snap.Max)
		}
	}
	// Mixing one large value: the sub-unit mass still dominates p50.
	h.Observe(5000)
	snap = h.Snapshot()
	if snap.P50 > 1 {
		t.Fatalf("p50 %v > 1 with 5/6 of mass below 1", snap.P50)
	}
	if snap.Max != 5000 || snap.P999 > 5000 {
		t.Fatalf("tail %+v", snap)
	}
}

// TestHistogramOverflowBucketInterpolation pins the wide-bucket quantile bug:
// when every observation clamps into the overflow bucket (values beyond the
// configured maxValue), the nearest-rank answer used to collapse to the
// bucket's clamped lower edge — reporting p50 = min for a distribution
// spanning 2000..10000. Rank interpolation within the bucket must recover the
// interior quantiles.
func TestHistogramOverflowBucketInterpolation(t *testing.T) {
	h := NewHistogram(0.01, 1000) // maxValue 1000: everything below lands beyond the last resolved bucket
	n := 8001
	for i := 0; i < n; i++ {
		h.Observe(2000 + float64(i)) // uniform over [2000, 10000]
	}
	snap := h.Snapshot()
	for _, q := range []struct {
		name string
		got  float64
		p    float64
	}{
		{"p50", snap.P50, 0.5},
		{"p95", snap.P95, 0.95},
		{"p99", snap.P99, 0.99},
	} {
		exact := 2000 + q.p*8000
		if relErr := math.Abs(q.got-exact) / exact; relErr > 0.05 {
			t.Errorf("%s = %v, exact %v (rel err %.3f): overflow-bucket quantile collapsed", q.name, q.got, exact, relErr)
		}
	}
	if snap.P50 >= snap.P95 || snap.P95 >= snap.P99 {
		t.Errorf("quantiles not strictly ordered inside the overflow bucket: %+v", snap)
	}
}

// TestHistogramSubUnitBucketInterpolation pins the same bug at the other
// clamped edge: a distribution living entirely inside bucket 0 (sub-unit
// values) used to report every quantile as the clamped bucket representative
// (= max), biasing p50 to the top of the range.
func TestHistogramSubUnitBucketInterpolation(t *testing.T) {
	h := NewHistogram(0.01, 1e6)
	n := 901
	for i := 0; i < n; i++ {
		h.Observe(0.05 + 0.001*float64(i)) // uniform over [0.05, 0.95]
	}
	p50 := quantile(h, 0.5)
	if p50 < 0.4 || p50 > 0.6 {
		t.Errorf("p50 = %v for uniform [0.05, 0.95], want ~0.5", p50)
	}
	p90 := quantile(h, 0.9)
	if p90 <= p50 {
		t.Errorf("p90 %v <= p50 %v inside bucket 0", p90, p50)
	}
}

// TestHistogramRelativeErrorBound asserts the documented eps relative-error
// contract across magnitudes (1e0..1e6, log-uniform) for several resolutions:
// every reported quantile lands within 2*eps of the exact sample quantile
// (the bucket width is a factor of gamma = (1+eps)/(1-eps), so any in-bucket
// answer is within gamma-1 ~= 2*eps of the truth).
func TestHistogramRelativeErrorBound(t *testing.T) {
	for _, eps := range []float64{0.005, 0.01, 0.02} {
		rng := rand.New(rand.NewSource(42))
		h := NewHistogram(eps, 1e7)
		samples := make([]float64, 30000)
		for i := range samples {
			samples[i] = math.Pow(10, 6*rng.Float64()) // log-uniform 1..1e6
			h.Observe(samples[i])
		}
		sort.Float64s(samples)
		for _, p := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999} {
			rank := int(math.Ceil(p*float64(len(samples)))) - 1
			exact := samples[rank]
			got := quantile(h, p)
			if relErr := math.Abs(got-exact) / exact; relErr > 2*eps {
				t.Errorf("eps=%v p%v: got %v, exact %v (rel err %.5f > %.5f)", eps, p*100, got, exact, relErr, 2*eps)
			}
		}
	}
}
