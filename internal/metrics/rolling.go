package metrics

import (
	"sync"
	"time"
)

// Rolling is a fixed-capacity, thread-safe ring of timestamped observations.
// It backs the serving /stats endpoint: the ring keeps the most recent N
// samples, and Snapshot summarises them (order statistics plus an arrival
// rate over the retained span). A running sum of the retained samples makes
// Mean O(1), cheap enough for a per-request reader.
type Rolling struct {
	mu    sync.Mutex
	vals  []float64
	times []time.Time
	head  int     // next write position
	n     int     // live samples, <= len(vals)
	total uint64  // lifetime observation count
	sum   float64 // sum of the live samples
}

// NewRolling creates a ring retaining the last `capacity` observations.
func NewRolling(capacity int) *Rolling {
	if capacity < 1 {
		capacity = 1
	}
	return &Rolling{
		vals:  make([]float64, capacity),
		times: make([]time.Time, capacity),
	}
}

// Observe records one sample at the given time. Times are expected to be
// roughly monotone (the rate estimate divides by the retained span).
func (r *Rolling) Observe(now time.Time, v float64) {
	r.mu.Lock()
	if r.n == len(r.vals) {
		r.sum -= r.vals[r.head] // the sample being overwritten leaves the window
	}
	r.sum += v
	r.vals[r.head] = v
	r.times[r.head] = now
	r.head = (r.head + 1) % len(r.vals)
	if r.n < len(r.vals) {
		r.n++
	}
	r.total++
	r.mu.Unlock()
}

// Mean is the mean of the retained samples (0 when empty), kept as a running
// sum so it costs no sort. Integer-valued samples (nanosecond durations) sum
// exactly, so it then equals Snapshot's Summary.Mean bit for bit.
func (r *Rolling) Mean() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n == 0 {
		return 0
	}
	return r.sum / float64(r.n)
}

// RollingSnapshot is a point-in-time view of a Rolling window.
type RollingSnapshot struct {
	// Summary holds order statistics over the retained samples.
	Summary Summary
	// RatePerSec is the observation rate (e.g. QPS) over the retained
	// window: (n-1) inter-arrival intervals divided by the oldest→newest
	// sample span. Zero with fewer than two samples or a zero span.
	RatePerSec float64
	// Total is the lifetime observation count.
	Total uint64
}

// Snapshot summarises the retained window. n samples delimit n-1 intervals,
// so the rate is (n-1) over the oldest→newest span — dividing n by the
// oldest→now span (the previous behaviour) overstated the rate for small n
// and made it depend on when the snapshot was taken.
func (r *Rolling) Snapshot(now time.Time) RollingSnapshot {
	r.mu.Lock()
	n := r.n
	vals := make([]float64, n)
	var oldest, newest time.Time
	if n > 0 {
		start := (r.head - n + len(r.vals)) % len(r.vals)
		for i := 0; i < n; i++ {
			vals[i] = r.vals[(start+i)%len(r.vals)]
		}
		oldest = r.times[start]
		newest = r.times[(start+n-1)%len(r.vals)]
	}
	total := r.total
	r.mu.Unlock()

	snap := RollingSnapshot{Summary: Summarize(vals), Total: total}
	if n >= 2 {
		if span := newest.Sub(oldest).Seconds(); span > 0 {
			snap.RatePerSec = float64(n-1) / span
		}
	}
	return snap
}
