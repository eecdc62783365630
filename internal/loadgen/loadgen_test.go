package loadgen

import (
	"context"
	"math"
	"testing"
	"time"

	"microrec/internal/embedding"
	"microrec/internal/metrics"
	"microrec/internal/serving"
)

// fakeTarget models a loss-system server with a fixed concurrency (slots)
// and per-request service time: capacity = slots/service. Requests beyond
// the free slots shed immediately with ErrOverloaded — the admission
// behaviour the runner classifies.
type fakeTarget struct {
	service time.Duration
	slots   chan struct{}
}

func newFakeTarget(slots int, service time.Duration) *fakeTarget {
	return &fakeTarget{service: service, slots: make(chan struct{}, slots)}
}

func (f *fakeTarget) Submit(ctx context.Context, q embedding.Query) (serving.Result, error) {
	select {
	case f.slots <- struct{}{}:
	default:
		return serving.Result{}, serving.ErrOverloaded
	}
	defer func() { <-f.slots }()
	select {
	case <-time.After(f.service):
		return serving.Result{CTR: 0.5}, nil
	case <-ctx.Done():
		return serving.Result{}, ctx.Err()
	}
}

var testQueries = []embedding.Query{{[]int64{1}}, {[]int64{2}}}

func TestPoissonDeterministicMean(t *testing.T) {
	if _, err := NewPoisson(0, 1); err == nil {
		t.Error("zero rate: want error")
	}
	a, err := NewPoisson(1000, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewPoisson(1000, 42)
	var sum time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		ga, gb := a.Next(), b.Next()
		if ga != gb {
			t.Fatalf("same seed diverged at gap %d: %v vs %v", i, ga, gb)
		}
		sum += ga
	}
	// Mean gap of a 1000 qps process is 1ms; 20k samples pin it within 5%.
	mean := float64(sum) / n
	if want := float64(time.Millisecond); math.Abs(mean-want)/want > 0.05 {
		t.Errorf("mean gap %v, want ~1ms", time.Duration(mean))
	}
}

// TestRunClassification overloads the loss-system fake 5x past its capacity
// and checks the runner's accounting: every arrival is classified exactly
// once, sheds fail fast, and admitted latencies sit at the service time.
func TestRunClassification(t *testing.T) {
	// 4 slots x 10ms service = 400 qps capacity; offer 2000 qps.
	target := newFakeTarget(4, 10*time.Millisecond)
	arr, err := NewPoisson(2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(target, testQueries, arr, Options{Requests: 300, SLA: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Offered != 300 {
		t.Errorf("offered = %d", res.Offered)
	}
	if got := res.Admitted + res.Shed + res.Expired + res.Failed; got != res.Offered {
		t.Errorf("classification leak: %d+%d+%d+%d != %d", res.Admitted, res.Shed, res.Expired, res.Failed, res.Offered)
	}
	if res.Admitted == 0 || res.Shed == 0 {
		t.Fatalf("5x overload should both admit and shed: %+v", res)
	}
	if res.Failed != 0 {
		t.Errorf("failed = %d", res.Failed)
	}
	if uint64(res.Admitted) != res.AdmittedLatencyUS.Count || uint64(res.Shed) != res.ShedLatencyUS.Count {
		t.Errorf("histogram counts disagree with counters: %+v", res)
	}
	// Admitted requests hold a slot for the full 10ms service.
	if res.AdmittedLatencyUS.P50 < 9000 {
		t.Errorf("admitted p50 = %vµs, want >= ~10ms", res.AdmittedLatencyUS.P50)
	}
	// Sheds never touch a slot: beyond however late the generator sent them,
	// a generous 5ms bound for scheduler noise.
	if res.ShedLatencyUS.P99 > res.LateP99US+5000 {
		t.Errorf("shed p99 = %vµs with the generator %vµs late — the fast-fail path blocked",
			res.ShedLatencyUS.P99, res.LateP99US)
	}
	if res.OfferedQPS <= 0 || res.AdmittedQPS <= 0 {
		t.Errorf("rates = %v / %v", res.OfferedQPS, res.AdmittedQPS)
	}
}

// stallingArrivals schedules every request for the same instant and stalls
// the generator once, before the arrival numbered stallAt: everything from
// there on is sent at least stall late.
type stallingArrivals struct {
	calls, stallAt int
	stall          time.Duration
}

func (a *stallingArrivals) Next() time.Duration {
	if a.calls++; a.calls == a.stallAt {
		time.Sleep(a.stall)
	}
	return 0
}

// TestRunTimesFromDueNotFromSend pins the open-loop timing rule: a request is
// timed from when it was due. A generator that runs late must raise the
// reported latency by its lateness (and report the lateness itself); timed
// from the send, the instant target below would read a few microseconds
// whatever the generator did.
func TestRunTimesFromDueNotFromSend(t *testing.T) {
	const stall = 20 * time.Millisecond
	target := newFakeTarget(64, 0)
	res, err := Run(target, testQueries, &stallingArrivals{stallAt: 5, stall: stall},
		Options{Requests: 40, SLA: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted != 40 {
		t.Fatalf("admitted %d of 40: %+v", res.Admitted, res)
	}
	stallUS := float64(stall) / float64(time.Microsecond)
	// 36 of the 40 requests were due before the stall and sent after it.
	if res.AdmittedLatencyUS.P50 < 0.98*stallUS {
		t.Errorf("admitted p50 = %.0f µs behind a %v generator stall: latency is not timed from the due time",
			res.AdmittedLatencyUS.P50, stall)
	}
	if res.LateP99US < 0.98*stallUS {
		t.Errorf("late_p99_us = %.0f after a %v generator stall", res.LateP99US, stall)
	}
	// The four requests sent before the stall were on time.
	if res.AdmittedLatencyUS.Min > stallUS/2 {
		t.Errorf("admitted min = %.0f µs: the requests sent before the stall read late too", res.AdmittedLatencyUS.Min)
	}
}

func TestRunValidation(t *testing.T) {
	target := newFakeTarget(1, time.Millisecond)
	arr, _ := NewPoisson(100, 1)
	cases := []struct {
		name string
		run  func() error
	}{
		{"nil target", func() error { _, err := Run(nil, testQueries, arr, Options{Requests: 1, SLA: time.Second}); return err }},
		{"no queries", func() error { _, err := Run(target, nil, arr, Options{Requests: 1, SLA: time.Second}); return err }},
		{"nil arrivals", func() error {
			_, err := Run(target, testQueries, nil, Options{Requests: 1, SLA: time.Second})
			return err
		}},
		{"zero requests", func() error { _, err := Run(target, testQueries, arr, Options{SLA: time.Second}); return err }},
		{"zero SLA", func() error { _, err := Run(target, testQueries, arr, Options{Requests: 1}); return err }},
	}
	for _, tc := range cases {
		if tc.run() == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
}

func TestMeetsSLA(t *testing.T) {
	sla := 10 * time.Millisecond
	good := Result{Offered: 100, Admitted: 100, AdmittedLatencyUS: metrics.HistogramSnapshot{P99: 9000}}
	if !good.MeetsSLA(sla, 0.01) {
		t.Error("clean run should meet the SLA")
	}
	slow := good
	slow.AdmittedLatencyUS.P99 = 11000
	if slow.MeetsSLA(sla, 0.01) {
		t.Error("p99 over budget should fail")
	}
	lossy := good
	lossy.Admitted, lossy.Shed = 80, 20
	if lossy.MeetsSLA(sla, 0.01) {
		t.Error("20% shed should fail the loss tolerance")
	}
	if (Result{Offered: 10}).MeetsSLA(sla, 0.01) {
		t.Error("nothing admitted should fail")
	}
}

// TestSweepKnee sweeps the loss-system fake across its known capacity
// (8 slots x 10ms = 800 qps) and checks the knee lands below it while the
// past-saturation point sheds without collapsing the admitted tail.
func TestSweepKnee(t *testing.T) {
	target := newFakeTarget(8, 10*time.Millisecond)
	sla := 100 * time.Millisecond
	sweep, err := Sweep(target, testQueries, SweepOptions{
		Loads:     []float64{100, 200, 1600},
		Requests:  300,
		SLA:       sla,
		Tolerance: 0.01,
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Points) != 3 {
		t.Fatalf("points = %d", len(sweep.Points))
	}
	if sweep.KneeQPS < 100 || sweep.KneeQPS >= 1600 {
		t.Errorf("knee = %v qps, want within [100, 1600) for an 800 qps target", sweep.KneeQPS)
	}
	over := sweep.Points[2]
	if over.Shed == 0 {
		t.Error("2x-capacity point shed nothing")
	}
	if over.MeetsSLA(sla, 0.01) {
		t.Error("2x-capacity point claims to meet the SLA")
	}
	// The loss system bounds every admitted request at its service time:
	// shedding held the admitted tail through overload.
	if over.AdmittedLatencyUS.P99 > float64(sla)/float64(time.Microsecond) {
		t.Errorf("admitted p99 %vµs collapsed past the SLA under overload", over.AdmittedLatencyUS.P99)
	}

	// Ladder and tolerance validation.
	if _, err := Sweep(target, testQueries, SweepOptions{Loads: nil, Requests: 1, SLA: sla}); err == nil {
		t.Error("empty ladder: want error")
	}
	if _, err := Sweep(target, testQueries, SweepOptions{Loads: []float64{200, 100}, Requests: 1, SLA: sla}); err == nil {
		t.Error("descending ladder: want error")
	}
	if _, err := Sweep(target, testQueries, SweepOptions{Loads: []float64{100}, Requests: 1, SLA: sla, Tolerance: -0.1}); err == nil {
		t.Error("negative tolerance: want error")
	}
}
