package accel

import (
	"math"
	"testing"
	"testing/quick"
)

func mustPipeline(t *testing.T, stages ...Stage) *Pipeline {
	t.Helper()
	p, err := NewPipeline(stages...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewValidates(t *testing.T) {
	if _, err := NewPipeline(); err == nil {
		t.Error("empty pipeline: want error")
	}
	if _, err := NewPipeline(Stage{Name: "bad", LatencyNS: -1}); err == nil {
		t.Error("negative latency: want error")
	}
	if _, err := NewPipeline(Stage{Name: "bad", LatencyNS: 5, IntervalNS: 10}); err == nil {
		t.Error("interval > latency: want error")
	}
	if _, err := NewPipeline(Stage{Name: "bad", LatencyNS: 5, IntervalNS: 5, FIFODepth: -2}); err == nil {
		t.Error("negative FIFO: want error")
	}
}

func TestDefaultFIFOApplied(t *testing.T) {
	p := mustPipeline(t, Stage{Name: "a", LatencyNS: 1, IntervalNS: 1})
	if got := p.stages[0].FIFODepth; got != DefaultFIFODepth {
		t.Errorf("FIFODepth = %d, want default %d", got, DefaultFIFODepth)
	}
}

func TestSingleStage(t *testing.T) {
	p := mustPipeline(t, Stage{Name: "s", LatencyNS: 10, IntervalNS: 10})
	res, err := p.Simulate(5)
	if err != nil {
		t.Fatal(err)
	}
	// Non-pipelined single stage: items serialize at II=10.
	if res.MakespanNS != 50 {
		t.Errorf("makespan = %v, want 50", res.MakespanNS)
	}
	if res.FirstItemNS != 10 {
		t.Errorf("first item = %v, want 10", res.FirstItemNS)
	}
	if res.SteadyIntervalNS != 10 {
		t.Errorf("steady interval = %v, want 10", res.SteadyIntervalNS)
	}
}

func TestBalancedPipelineMakespan(t *testing.T) {
	// Three stages, II == latency == 10 each: makespan = fill (30) +
	// (N-1)*10.
	p := mustPipeline(t,
		Stage{Name: "a", LatencyNS: 10, IntervalNS: 10},
		Stage{Name: "b", LatencyNS: 10, IntervalNS: 10},
		Stage{Name: "c", LatencyNS: 10, IntervalNS: 10},
	)
	res, err := p.Simulate(100)
	if err != nil {
		t.Fatal(err)
	}
	want := 30.0 + 99*10
	if math.Abs(res.MakespanNS-want) > 1e-9 {
		t.Errorf("makespan = %v, want %v", res.MakespanNS, want)
	}
	if math.Abs(res.FirstItemNS-30) > 1e-9 {
		t.Errorf("fill = %v, want 30", res.FirstItemNS)
	}
}

func TestBottleneckDominatesThroughput(t *testing.T) {
	// Middle stage is 5x slower; steady interval must equal its II.
	p := mustPipeline(t,
		Stage{Name: "fast1", LatencyNS: 10, IntervalNS: 10},
		Stage{Name: "slow", LatencyNS: 50, IntervalNS: 50},
		Stage{Name: "fast2", LatencyNS: 10, IntervalNS: 10},
	)
	res, err := p.Simulate(200)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.SteadyIntervalNS-50) > 1e-9 {
		t.Errorf("steady interval = %v, want 50", res.SteadyIntervalNS)
	}
	idx, name := p.Bottleneck()
	if idx != 1 || name != "slow" {
		t.Errorf("Bottleneck = %d %q", idx, name)
	}
	if p.BottleneckIntervalNS() != 50 {
		t.Errorf("BottleneckIntervalNS = %v", p.BottleneckIntervalNS())
	}
}

func TestInternallyPipelinedStage(t *testing.T) {
	// A stage with latency 100 but II 10 sustains one item per 10 ns.
	p := mustPipeline(t,
		Stage{Name: "deep", LatencyNS: 100, IntervalNS: 10, FIFODepth: 64},
	)
	res, err := p.Simulate(100)
	if err != nil {
		t.Fatal(err)
	}
	want := 100.0 + 99*10
	if math.Abs(res.MakespanNS-want) > 1e-9 {
		t.Errorf("makespan = %v, want %v", res.MakespanNS, want)
	}
}

func TestFIFOBackpressure(t *testing.T) {
	// Fast producer into slow consumer through a depth-1 FIFO: the
	// producer must throttle to the consumer's interval.
	shallow := mustPipeline(t,
		Stage{Name: "prod", LatencyNS: 1, IntervalNS: 1, FIFODepth: 1},
		Stage{Name: "cons", LatencyNS: 20, IntervalNS: 20},
	)
	res, err := shallow.Simulate(50)
	if err != nil {
		t.Fatal(err)
	}
	// Steady state is consumer-bound regardless of FIFO depth.
	if math.Abs(res.SteadyIntervalNS-20) > 1e-9 {
		t.Errorf("steady interval = %v, want 20", res.SteadyIntervalNS)
	}
	// With a shallow FIFO, per-item latency stays bounded: the producer
	// holds items back instead of queueing them.
	deep := mustPipeline(t,
		Stage{Name: "prod", LatencyNS: 1, IntervalNS: 1, FIFODepth: 40},
		Stage{Name: "cons", LatencyNS: 20, IntervalNS: 20},
	)
	resDeep, err := deep.Simulate(50)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxLatencyNS >= resDeep.MaxLatencyNS {
		t.Errorf("shallow FIFO latency %v >= deep FIFO latency %v; backpressure not modeled",
			res.MaxLatencyNS, resDeep.MaxLatencyNS)
	}
	// Makespan is the same either way (consumer-bound).
	if math.Abs(res.MakespanNS-resDeep.MakespanNS) > 1e-9 {
		t.Errorf("makespan shallow %v != deep %v", res.MakespanNS, resDeep.MakespanNS)
	}
}

func TestFillLatency(t *testing.T) {
	p := mustPipeline(t,
		Stage{Name: "a", LatencyNS: 3, IntervalNS: 1},
		Stage{Name: "b", LatencyNS: 7, IntervalNS: 2},
	)
	if got := p.FillLatencyNS(); got != 10 {
		t.Errorf("FillLatencyNS = %v, want 10", got)
	}
	res, err := p.Simulate(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstItemNS != 10 || res.MeanLatencyNS != 10 || res.MakespanNS != 10 {
		t.Errorf("single-item result = %+v, want all 10", res)
	}
}

func TestSimulateErrors(t *testing.T) {
	p := mustPipeline(t, Stage{Name: "a", LatencyNS: 1, IntervalNS: 1})
	if _, err := p.Simulate(0); err == nil {
		t.Error("items=0: want error")
	}
	if _, err := p.Simulate(-3); err == nil {
		t.Error("items<0: want error")
	}
}

func TestThroughputNotReciprocalOfLatency(t *testing.T) {
	// §5.3: "the throughput of MicroRec is not the reciprocal of latency,
	// since multiple items are processed by the deep pipeline at the same
	// time". Verify the simulator reproduces that.
	p := mustPipeline(t,
		Stage{Name: "lookup", LatencyNS: 458, IntervalNS: 458},
		Stage{Name: "fc1", LatencyNS: 3000, IntervalNS: 3000},
		Stage{Name: "fc2", LatencyNS: 3200, IntervalNS: 3200},
		Stage{Name: "fc3", LatencyNS: 3400, IntervalNS: 3400},
	)
	res, err := p.Simulate(1000)
	if err != nil {
		t.Fatal(err)
	}
	latencyReciprocal := 1e9 / res.MeanLatencyNS
	if res.ThroughputPerSec < 2*latencyReciprocal {
		t.Errorf("throughput %.0f/s should far exceed 1/latency %.0f/s",
			res.ThroughputPerSec, latencyReciprocal)
	}
}

// Property: makespan is monotone in item count and never below the analytic
// lower bound fill + (N-1)*maxII.
func TestMakespanBoundsProperty(t *testing.T) {
	p := mustPipeline(t,
		Stage{Name: "a", LatencyNS: 5, IntervalNS: 2, FIFODepth: 8},
		Stage{Name: "b", LatencyNS: 9, IntervalNS: 3, FIFODepth: 8},
		Stage{Name: "c", LatencyNS: 4, IntervalNS: 4},
	)
	prop := func(nRaw uint8) bool {
		n := int(nRaw%50) + 1
		res, err := p.Simulate(n)
		if err != nil {
			return false
		}
		lower := p.FillLatencyNS() + float64(n-1)*p.BottleneckIntervalNS()
		if res.MakespanNS < lower-1e-6 {
			return false
		}
		if n > 1 {
			prev, err := p.Simulate(n - 1)
			if err != nil || res.MakespanNS < prev.MakespanNS {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: per-item latency is always at least the fill latency.
func TestLatencyFloorProperty(t *testing.T) {
	prop := func(l1, l2 uint8, n uint8) bool {
		p, err := NewPipeline(
			Stage{Name: "a", LatencyNS: float64(l1%40) + 1, IntervalNS: 1},
			Stage{Name: "b", LatencyNS: float64(l2%40) + 1, IntervalNS: 1},
		)
		if err != nil {
			return false
		}
		res, err := p.Simulate(int(n%20) + 1)
		if err != nil {
			return false
		}
		return res.MeanLatencyNS >= p.FillLatencyNS()-1e-9 &&
			res.MaxLatencyNS >= res.MeanLatencyNS-1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSimulate11Stage(b *testing.B) {
	stages := make([]Stage, 11)
	for i := range stages {
		stages[i] = Stage{Name: "s", LatencyNS: float64(100 + i*10), IntervalNS: float64(50 + i*5), FIFODepth: 4}
	}
	p, err := NewPipeline(stages...)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Simulate(1000); err != nil {
			b.Fatal(err)
		}
	}
}
