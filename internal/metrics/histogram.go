package metrics

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// Histogram is a thread-safe, log-bucketed latency histogram: observations
// land in exponentially spaced buckets, so tail quantiles (p50/p95/p99/p99.9)
// are recoverable within a configured relative error without storing a single
// sample. This is what the open-loop load harness records into — at overload
// the sample count is exactly what explodes, so the recorder must be O(1) per
// observation and fixed-size overall (a DDSketch-style store; the Rolling
// ring, which keeps raw samples, stays the right tool for the bounded /stats
// windows).
//
// Bucket i covers (gamma^i, gamma^(i+1)] with gamma = (1+eps)/(1-eps); a
// quantile reported from a bucket's geometric interior is within eps of the
// true sample quantile. Values in [0, 1] share the first bucket (sub-unit
// values are below the resolution anyone asks of a latency histogram in µs or
// ns); values beyond the configured maximum clamp into the last bucket.
type Histogram struct {
	mu       sync.Mutex
	counts   []uint64
	logGamma float64
	gamma    float64

	count    uint64
	sum      float64
	min, max float64
}

// NewHistogram builds a histogram resolving quantiles within eps relative
// error over the value range [1, maxValue] (same unit as the observations).
// eps outside (0, 0.5) defaults to 1%; maxValue below gamma is raised to it.
func NewHistogram(eps, maxValue float64) *Histogram {
	if math.IsNaN(eps) || eps <= 0 || eps >= 0.5 {
		eps = 0.01
	}
	gamma := (1 + eps) / (1 - eps)
	logGamma := math.Log(gamma)
	if math.IsNaN(maxValue) || math.IsInf(maxValue, 0) || maxValue < gamma {
		maxValue = gamma
	}
	buckets := int(math.Ceil(math.Log(maxValue)/logGamma)) + 1
	return &Histogram{
		counts:   make([]uint64, buckets),
		logGamma: logGamma,
		gamma:    gamma,
		min:      math.Inf(1),
	}
}

// bucket maps a value to its bucket index, clamping at both ends.
func (h *Histogram) bucket(v float64) int {
	if v <= 1 {
		return 0
	}
	i := int(math.Log(v) / h.logGamma)
	if i >= len(h.counts) {
		i = len(h.counts) - 1
	}
	return i
}

// bucketRange returns the value range a bucket covers for interpolation:
// nominally (gamma^i, gamma^(i+1)], with bucket 0 opening down to 0 (it
// absorbs every sub-unit value) and the edges clamped into the exactly
// tracked [min, max] — the first occupied bucket contains min, the last
// contains max, and the overflow bucket holds values well past its nominal
// upper edge.
func (h *Histogram) bucketRange(i int) (lo, hi float64) {
	if i == 0 {
		lo = 0
	} else {
		lo = math.Pow(h.gamma, float64(i))
	}
	if i == len(h.counts)-1 {
		hi = h.max
	} else {
		hi = math.Pow(h.gamma, float64(i+1))
	}
	if lo < h.min {
		lo = h.min
	}
	if hi > h.max {
		hi = h.max
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// Observe records one value. Negative values count as zero; NaN and ±Inf
// are dropped — a latency can be neither, and the bucket-index conversion
// int(Log(v)/logGamma) turns both into an enormous negative index.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	if v < 0 {
		v = 0
	}
	h.mu.Lock()
	h.counts[h.bucket(v)]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// ObserveDuration records a duration in microseconds — the unit the serving
// and load-harness latency figures share.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(float64(d) / float64(time.Microsecond))
}

// HistogramSnapshot is a point-in-time quantile summary of a Histogram.
// Count/Mean/Min/Max are exact; the quantiles carry the histogram's relative
// error.
type HistogramSnapshot struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
}

// Snapshot summarises the histogram. Quantiles locate the nearest-rank bucket
// and interpolate within it by rank; bucket edges are clamped to the exact
// observed min/max so an eps-wide bucket never reports a tail beyond reality.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return HistogramSnapshot{}
	}
	snap := HistogramSnapshot{
		Count: h.count,
		Mean:  h.sum / float64(h.count),
		Min:   h.min,
		Max:   h.max,
	}
	qs := [...]struct {
		p   float64
		dst *float64
	}{
		{0.50, &snap.P50},
		{0.95, &snap.P95},
		{0.99, &snap.P99},
		{0.999, &snap.P999},
	}
	for i := range qs {
		*qs[i].dst = h.quantileLocked(qs[i].p)
	}
	return snap
}

// quantileLocked locates the bucket holding the nearest-rank sample and
// interpolates within it by rank: the rank's relative position among the
// bucket's occupants maps linearly onto the bucket's (clamped) value range.
// Returning a fixed per-bucket representative instead would bias every
// quantile toward one edge of a wide bucket — catastrophically so in the
// clamped overflow and sub-unit buckets, whose real value span is unbounded
// by gamma. Callers hold h.mu.
func (h *Histogram) quantileLocked(p float64) float64 {
	rank := uint64(math.Ceil(p * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		if cum+c >= rank && c > 0 {
			lo, hi := h.bucketRange(i)
			// Midpoint rule: rank r of c occupants sits at fraction
			// (r-0.5)/c through the bucket, so a single occupant reports
			// the bucket middle and c occupants spread evenly across it.
			frac := (float64(rank-cum) - 0.5) / float64(c)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	return h.max
}

// CumulativeBucket is one Prometheus-style cumulative histogram bucket:
// Count observations landed at or below the bucket's upper edge.
type CumulativeBucket struct {
	UpperEdge float64
	Count     uint64
}

// CumulativeBuckets renders the histogram as Prometheus cumulative buckets:
// only occupied log-buckets are emitted (each with its nominal upper edge and
// the running count), so the /metrics exposition stays proportional to the
// observed value spread rather than the configured range. The final +Inf
// bucket is the caller's to write (its count is the returned total). Also
// returns the exact sum and total count for the _sum/_count series.
func (h *Histogram) CumulativeBuckets() (buckets []CumulativeBucket, sum float64, count uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		buckets = append(buckets, CumulativeBucket{
			UpperEdge: math.Pow(h.gamma, float64(i+1)),
			Count:     cum,
		})
	}
	return buckets, h.sum, h.count
}

// String renders a compact one-line summary for logs.
func (s HistogramSnapshot) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%.1f p95=%.1f p99=%.1f p99.9=%.1f max=%.1f",
		s.Count, s.Mean, s.P50, s.P95, s.P99, s.P999, s.Max)
}
