package metrics

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestRollingBasics(t *testing.T) {
	r := NewRolling(8)
	base := time.Unix(0, 0)
	snap := r.Snapshot(base)
	if snap.Summary.Count != 0 || snap.RatePerSec != 0 || snap.Total != 0 {
		t.Errorf("empty snapshot = %+v", snap)
	}
	for i := 0; i < 4; i++ {
		r.Observe(base.Add(time.Duration(i)*time.Second), float64(i+1))
	}
	snap = r.Snapshot(base.Add(4 * time.Second))
	if snap.Summary.Count != 4 || snap.Summary.Min != 1 || snap.Summary.Max != 4 {
		t.Errorf("snapshot = %+v", snap.Summary)
	}
	// 4 samples delimit 3 intervals over the 3s oldest→newest span.
	if snap.RatePerSec != 1 {
		t.Errorf("rate = %v, want 1", snap.RatePerSec)
	}
	if snap.Total != 4 {
		t.Errorf("total = %d", snap.Total)
	}
}

func TestRollingWraparound(t *testing.T) {
	r := NewRolling(4)
	base := time.Unix(100, 0)
	for i := 0; i < 10; i++ {
		r.Observe(base.Add(time.Duration(i)*time.Millisecond), float64(i))
	}
	snap := r.Snapshot(base.Add(10 * time.Millisecond))
	// Only the last 4 samples (6..9) are retained.
	if snap.Summary.Count != 4 || snap.Summary.Min != 6 || snap.Summary.Max != 9 {
		t.Errorf("after wrap: %+v", snap.Summary)
	}
	if snap.Total != 10 {
		t.Errorf("total = %d, want 10", snap.Total)
	}
	if snap.RatePerSec <= 0 {
		t.Errorf("rate = %v", snap.RatePerSec)
	}
}

// TestRollingRateSmallN pins the rate estimate for small sample counts: n
// samples delimit n-1 intervals, so two samples 1s apart are exactly 1/s —
// not 2 divided by however long ago the oldest sample is, which both
// overstated the rate and made it drift with the snapshot time.
func TestRollingRateSmallN(t *testing.T) {
	r := NewRolling(8)
	base := time.Unix(50, 0)
	r.Observe(base, 1)
	r.Observe(base.Add(time.Second), 2)
	for _, lag := range []time.Duration{0, time.Second, 10 * time.Second} {
		if got := r.Snapshot(base.Add(time.Second + lag)).RatePerSec; got != 1 {
			t.Errorf("2 samples 1s apart, snapshot +%v: rate = %v, want exactly 1", lag, got)
		}
	}
	// A third sample 500ms later: 2 intervals over 1.5s = 4/3 per second.
	r.Observe(base.Add(1500*time.Millisecond), 3)
	if got, want := r.Snapshot(base.Add(time.Minute)).RatePerSec, 2/1.5; got != want {
		t.Errorf("3 samples over 1.5s: rate = %v, want exactly %v", got, want)
	}
	// A single sample has no interval to estimate from.
	one := NewRolling(4)
	one.Observe(base, 9)
	if got := one.Snapshot(base.Add(time.Second)).RatePerSec; got != 0 {
		t.Errorf("1 sample: rate = %v, want 0", got)
	}
}

// TestRollingMeanMatchesSummary pins the running-sum mean against the sorted
// summary's, exactly, on nanosecond-valued samples before and long after the
// ring wraps: the samples leaving the window must leave the sum with them.
func TestRollingMeanMatchesSummary(t *testing.T) {
	r := NewRolling(16)
	if got := r.Mean(); got != 0 {
		t.Fatalf("empty mean = %v, want 0", got)
	}
	rng := rand.New(rand.NewSource(3))
	base := time.Unix(0, 0)
	for i := 0; i < 200; i++ {
		// Durations from about a microsecond to a second, so a stale sample
		// left in the sum would show.
		r.Observe(base.Add(time.Duration(i)*time.Millisecond), float64(rng.Int63n(int64(1)<<(10+rng.Intn(21)))))
		if got, want := r.Mean(), r.Snapshot(base).Summary.Mean; got != want {
			t.Fatalf("after %d samples: Mean %v, Summarize mean %v", i+1, got, want)
		}
	}
}

func TestRollingZeroCapacity(t *testing.T) {
	r := NewRolling(0) // clamped to 1
	now := time.Unix(0, 0)
	r.Observe(now, 7)
	r.Observe(now, 9)
	snap := r.Snapshot(now)
	if snap.Summary.Count != 1 || snap.Summary.P50 != 9 {
		t.Errorf("snapshot = %+v", snap.Summary)
	}
}

// TestRollingConcurrent hammers one ring from many goroutines (run under
// -race).
func TestRollingConcurrent(t *testing.T) {
	r := NewRolling(128)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Observe(start.Add(time.Duration(i)*time.Microsecond), float64(w*200+i))
				if i%50 == 0 {
					r.Snapshot(time.Now())
				}
			}
		}(w)
	}
	wg.Wait()
	snap := r.Snapshot(time.Now())
	if snap.Total != 1600 {
		t.Errorf("total = %d, want 1600", snap.Total)
	}
	if snap.Summary.Count != 128 {
		t.Errorf("count = %d, want 128", snap.Summary.Count)
	}
}
