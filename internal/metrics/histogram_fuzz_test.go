package metrics

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzHistogramQuantile feeds the log-bucketed histogram raw float64
// observations (including the non-finite bit patterns that used to panic the
// bucket-index conversion) and checks the quantile invariants that every
// consumer of a latency summary leans on: quantiles are finite, lie inside
// the exact observed [min, max], and are monotone in p — both at arbitrary p
// (quantileLocked) and through the Snapshot's fixed p50/p95/p99/p999 ladder.
func FuzzHistogramQuantile(f *testing.F) {
	seed := func(vals ...float64) []byte {
		b := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	f.Add(0.01, 1e9, seed(1, 10, 100, 1000, 1e6))
	f.Add(0.05, 1e6, seed(0.25, 0.5, 0.75))
	f.Add(0.01, 1e9, seed(math.NaN(), math.Inf(1), math.Inf(-1), 42))
	f.Add(0.3, 2.0, seed(-5, 0, 1e18)) // negatives clamp, overflow bucket
	f.Add(0.001, 1e12, seed(7))
	f.Fuzz(func(t *testing.T, eps, maxValue float64, data []byte) {
		h := NewHistogram(eps, maxValue) // constructor guards bad eps/max itself
		var (
			n   int
			min = math.Inf(1)
			max = math.Inf(-1)
		)
		for len(data) >= 8 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[:8]))
			data = data[8:]
			h.Observe(v)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue // dropped by contract
			}
			if v < 0 {
				v = 0 // clamped by contract
			}
			n++
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		if n == 0 {
			if q := quantile(h, 0.5); q != 0 {
				t.Fatalf("empty histogram Quantile(0.5) = %v, want 0", q)
			}
			return
		}
		if got := h.Snapshot().Count; got != uint64(n) {
			t.Fatalf("Count = %d, want %d", got, n)
		}
		ps := []float64{0, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1}
		prev := math.Inf(-1)
		for _, p := range ps {
			q := quantile(h, p)
			if math.IsNaN(q) || math.IsInf(q, 0) {
				t.Fatalf("Quantile(%v) = %v on %d finite observations", p, q, n)
			}
			if q < min || q > max {
				t.Fatalf("Quantile(%v) = %v outside observed [%v, %v]", p, q, min, max)
			}
			if q < prev {
				t.Fatalf("Quantile(%v) = %v < Quantile at lower p = %v: quantiles not monotone", p, q, prev)
			}
			prev = q
		}
		snap := h.Snapshot()
		if snap.P50 > snap.P95 || snap.P95 > snap.P99 || snap.P99 > snap.P999 {
			t.Fatalf("snapshot quantile ladder not monotone: %+v", snap)
		}
		if snap.Min != min || snap.Max != max {
			t.Fatalf("snapshot min/max = %v/%v, want exact %v/%v", snap.Min, snap.Max, min, max)
		}
		if snap.P999 > snap.Max || snap.P50 < snap.Min {
			t.Fatalf("snapshot quantiles escape [min, max]: %+v", snap)
		}
	})
}
