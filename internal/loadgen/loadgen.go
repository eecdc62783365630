// Package loadgen is the open-loop load harness for the serving subsystem:
// arrival processes (Poisson, or any Arrivals) that offer requests at a
// configured rate *regardless of completions*, plus a runner and a load
// sweep that locate the knee — the highest offered rate whose admitted-tail
// latency still meets the SLA.
//
// Open-loop matters because it is the only measurement discipline under
// which overload is visible: a closed-loop driver (fixed client count, next
// request after the previous response) slows down in lockstep with a
// saturated server, so queues never build and the tail looks healthy — the
// coordinated-omission failure mode. Production recommendation traffic is
// open-loop by nature (users do not wait for each other), bursty, and
// strictly tail-SLA-bound, which is exactly the regime the serving stack's
// admission control (bounded queue + shed + deadline drops) exists for; this
// package is the instrument that drives the system past saturation and
// verifies the defenses hold.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"microrec/internal/embedding"
	"microrec/internal/metrics"
	"microrec/internal/serving"
)

// Arrivals yields successive inter-arrival gaps of an arrival process.
// Implementations need not be safe for concurrent use; the runner consumes
// them from a single goroutine.
type Arrivals interface {
	Next() time.Duration
}

// Poisson is a memoryless open-loop arrival process: exponentially
// distributed gaps at a fixed offered rate, the standard model for
// independent user traffic (and the arrival process the CPU baseline's
// batching-queue simulation in internal/experiments uses).
type Poisson struct {
	rng  *rand.Rand
	mean float64 // mean gap in ns
}

// NewPoisson builds a deterministic Poisson process offering `qps` requests
// per second.
func NewPoisson(qps float64, seed int64) (*Poisson, error) {
	if qps <= 0 {
		return nil, fmt.Errorf("loadgen: offered rate %v qps", qps)
	}
	return &Poisson{rng: rand.New(rand.NewSource(seed)), mean: float64(time.Second) / qps}, nil
}

// Next returns the next exponential gap.
func (p *Poisson) Next() time.Duration { return time.Duration(p.rng.ExpFloat64() * p.mean) }

// Target is the slice of the serving subsystem the runner drives;
// *serving.Server implements it directly.
type Target interface {
	Submit(ctx context.Context, q embedding.Query) (serving.Result, error)
}

// Options configures one open-loop run.
type Options struct {
	// Requests is the number of arrivals to offer. Required.
	Requests int
	// SLA bounds each request: it becomes the per-request context deadline,
	// and admitted p99 is judged against it. Required.
	SLA time.Duration
	// HistEps is the latency histogram's relative quantile error.
	// Default 1%.
	HistEps float64
}

func (o Options) validate() error {
	if o.Requests < 1 {
		return fmt.Errorf("loadgen: %d requests", o.Requests)
	}
	if o.SLA <= 0 {
		return fmt.Errorf("loadgen: SLA %v", o.SLA)
	}
	return nil
}

// Result summarises one open-loop run. Latencies are in µs.
type Result struct {
	// Offered is the number of arrivals fired.
	Offered int `json:"offered"`
	// Admitted counts requests that completed with a prediction.
	Admitted int `json:"admitted"`
	// Shed counts fast-fail rejections (serving.ErrOverloaded).
	Shed int `json:"shed"`
	// Expired counts requests that were admitted into the queue but missed
	// their deadline (dropped at plane-fill time or timed out waiting).
	Expired int `json:"expired"`
	// Failed counts any other error.
	Failed int `json:"failed"`
	// Duration spans the first arrival to the last completion.
	Duration time.Duration `json:"duration_ns"`
	// OfferedQPS is the realised offered rate (arrivals over the offer
	// span); AdmittedQPS is the goodput (admitted completions over the full
	// run).
	OfferedQPS  float64 `json:"offered_qps"`
	AdmittedQPS float64 `json:"admitted_qps"`
	// AdmittedLatencyUS is the latency distribution of admitted requests;
	// ShedLatencyUS is the fail-fast time of shed requests (µs). Both run
	// from when the request was due, not from when the generator got round
	// to sending it, so a generator stall is charged to every request it
	// delayed instead of being omitted.
	AdmittedLatencyUS metrics.HistogramSnapshot `json:"admitted_latency_us"`
	ShedLatencyUS     metrics.HistogramSnapshot `json:"shed_latency_us"`
	// LateP99US is the p99 of how long after its due time a request was
	// actually sent (µs): the generator's own share of the latencies above.
	LateP99US float64 `json:"late_p99_us"`
}

// MeetsSLA reports whether the run sustained its offered load: some traffic
// was admitted, the admitted p99 fit the budget, and losses (shed + expired
// + failed) stayed within tol as a fraction of offered — a server that meets
// the tail by rejecting half its traffic has not met the SLA at that load.
func (r Result) MeetsSLA(sla time.Duration, tol float64) bool {
	if r.Admitted == 0 {
		return false
	}
	if r.AdmittedLatencyUS.P99 > float64(sla)/float64(time.Microsecond) {
		return false
	}
	return float64(r.Shed+r.Expired+r.Failed) <= tol*float64(r.Offered)
}

// Run drives one open-loop run: requests fire at the arrival process's
// schedule (never waiting for completions; if the runner falls behind it
// fires immediately, preserving the offered count), each bounded by the SLA
// as its context deadline. Queries are taken round-robin from qs. A request
// is timed from its scheduled arrival: the generator sleeps between arrivals,
// a sleep overshoots by up to a millisecond on an idle host, and timing from
// the send would leave exactly that stall out of every latency.
func Run(target Target, qs []embedding.Query, arr Arrivals, opts Options) (Result, error) {
	if target == nil {
		return Result{}, fmt.Errorf("loadgen: nil target")
	}
	if len(qs) == 0 {
		return Result{}, fmt.Errorf("loadgen: no queries")
	}
	if arr == nil {
		return Result{}, fmt.Errorf("loadgen: nil arrival process")
	}
	if err := opts.validate(); err != nil {
		return Result{}, err
	}
	eps := opts.HistEps
	if eps == 0 {
		eps = 0.01
	}
	// Range: 1µs to 1e9µs (~17min) covers any latency a run can observe.
	admittedHist := metrics.NewHistogram(eps, 1e9)
	shedHist := metrics.NewHistogram(eps, 1e9)
	lateHist := metrics.NewHistogram(eps, 1e9)

	var (
		wg                              sync.WaitGroup
		admitted, shed, expired, failed atomic.Int64
	)
	start := time.Now()
	next := start
	for i := 0; i < opts.Requests; i++ {
		next = next.Add(arr.Next())
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		q := qs[i%len(qs)]
		wg.Add(1)
		go func(q embedding.Query, due time.Time) {
			defer wg.Done()
			ctx, cancel := context.WithDeadline(context.Background(), due.Add(opts.SLA))
			defer cancel()
			lateHist.ObserveDuration(time.Since(due))
			_, err := target.Submit(ctx, q)
			lat := time.Since(due)
			switch {
			case err == nil:
				admitted.Add(1)
				admittedHist.ObserveDuration(lat)
			case errors.Is(err, serving.ErrOverloaded):
				shed.Add(1)
				shedHist.ObserveDuration(lat)
			case errors.Is(err, serving.ErrExpired),
				errors.Is(err, context.DeadlineExceeded),
				errors.Is(err, context.Canceled):
				expired.Add(1)
			default:
				failed.Add(1)
			}
		}(q, next)
	}
	offerSpan := time.Since(start)
	wg.Wait()
	total := time.Since(start)

	res := Result{
		Offered:           opts.Requests,
		Admitted:          int(admitted.Load()),
		Shed:              int(shed.Load()),
		Expired:           int(expired.Load()),
		Failed:            int(failed.Load()),
		Duration:          total,
		AdmittedLatencyUS: admittedHist.Snapshot(),
		ShedLatencyUS:     shedHist.Snapshot(),
		LateP99US:         lateHist.Snapshot().P99,
	}
	if offerSpan > 0 {
		res.OfferedQPS = float64(opts.Requests) / offerSpan.Seconds()
	}
	if total > 0 {
		res.AdmittedQPS = float64(res.Admitted) / total.Seconds()
	}
	return res, nil
}

// SweepOptions configures a load sweep.
type SweepOptions struct {
	// Loads is the offered-rate ladder in qps, ascending. Required.
	Loads []float64
	// Requests is the arrivals offered per load level. Required.
	Requests int
	// SLA is the per-request deadline and the knee criterion. Required.
	SLA time.Duration
	// Tolerance is the loss fraction (shed+expired+failed over offered)
	// still counted as meeting the SLA. Zero is meaningful — strictly no
	// losses at the knee; negative is rejected.
	Tolerance float64
	// Seed drives the per-level Poisson processes deterministically.
	Seed int64
}

// Point is one sweep level: the configured offered rate plus its run result.
type Point struct {
	TargetQPS float64 `json:"target_qps"`
	Result
}

// SweepResult is a full sweep: every level plus the located knee.
type SweepResult struct {
	Points []Point `json:"points"`
	// KneeQPS is the highest offered rate that met the SLA (0 when none
	// did) — the serving capacity figure the paper's tail-latency claims
	// are made at.
	KneeQPS float64 `json:"knee_qps"`
}

// Sweep runs one open-loop Poisson run per load level, in order, and locates
// the knee. Levels after the first SLA miss still run: the points past the
// knee are the interesting ones (they demonstrate whether shedding holds the
// admitted tail or the server collapses).
func Sweep(target Target, qs []embedding.Query, opts SweepOptions) (SweepResult, error) {
	if len(opts.Loads) == 0 {
		return SweepResult{}, fmt.Errorf("loadgen: empty load ladder")
	}
	for i := 1; i < len(opts.Loads); i++ {
		if opts.Loads[i] <= opts.Loads[i-1] {
			return SweepResult{}, fmt.Errorf("loadgen: load ladder not ascending at position %d (%v after %v)", i, opts.Loads[i], opts.Loads[i-1])
		}
	}
	if opts.Tolerance < 0 || opts.Tolerance >= 1 {
		return SweepResult{}, fmt.Errorf("loadgen: tolerance %v outside [0, 1)", opts.Tolerance)
	}
	tol := opts.Tolerance
	var sweep SweepResult
	for i, qps := range opts.Loads {
		arr, err := NewPoisson(qps, opts.Seed+int64(i))
		if err != nil {
			return SweepResult{}, err
		}
		res, err := Run(target, qs, arr, Options{Requests: opts.Requests, SLA: opts.SLA})
		if err != nil {
			return SweepResult{}, err
		}
		sweep.Points = append(sweep.Points, Point{TargetQPS: qps, Result: res})
		if res.MeetsSLA(opts.SLA, tol) && qps > sweep.KneeQPS {
			sweep.KneeQPS = qps
		}
	}
	return sweep, nil
}
