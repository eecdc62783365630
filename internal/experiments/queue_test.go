package experiments

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestMaxBatchUnderSLA(t *testing.T) {
	m := SmallCPU()
	// Table 2: B=2048 costs 28.18 ms — so a 30 ms SLA admits ~2048 while
	// a 10 ms SLA admits far fewer.
	big := MaxBatchUnderSLA(m, 30, 4096)
	small := MaxBatchUnderSLA(m, 10, 4096)
	if big < 1800 {
		t.Errorf("30 ms SLA admits B=%d, want ~2048+", big)
	}
	if small >= big || small < 64 {
		t.Errorf("10 ms SLA admits B=%d (30 ms admits %d)", small, big)
	}
	// The chosen batch actually meets the SLA and B+1 does not.
	if m.EndToEndMS(small) > 10 {
		t.Errorf("B=%d misses its own SLA: %.2f ms", small, m.EndToEndMS(small))
	}
	if m.EndToEndMS(small+1) <= 10 {
		t.Errorf("B=%d+1 also fits — not maximal", small)
	}
}

func TestMaxBatchEdgeCases(t *testing.T) {
	m := SmallCPU()
	if got := MaxBatchUnderSLA(m, 0.001, 1024); got != 0 {
		t.Errorf("impossible SLA admits B=%d, want 0 (B=1 costs %.2f ms)", got, m.EndToEndMS(1))
	}
	if got := MaxBatchUnderSLA(m, 100, 0); got != 0 {
		t.Errorf("maxBatch=0 admits %d", got)
	}
	if got := MaxBatchUnderSLA(m, -5, 10); got != 0 {
		t.Errorf("negative SLA admits %d", got)
	}
	if got := MaxBatchUnderSLA(m, 1e9, 256); got != 256 {
		t.Errorf("infinite SLA admits %d, want the cap 256", got)
	}
}

// Property: the admitted batch is monotone in the SLA.
func TestMaxBatchMonotoneProperty(t *testing.T) {
	m := LargeCPU()
	prop := func(a, b uint8) bool {
		s1, s2 := float64(a)+1, float64(a)+1+float64(b)
		return MaxBatchUnderSLA(m, s1, 4096) <= MaxBatchUnderSLA(m, s2, 4096)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestMaxBatchUnderSLAIsMaximal checks the chooser at every SLA the serving
// study prints, on both production models: the batch it returns meets the
// SLA, and one more query would miss it (or the cap binds).
func TestMaxBatchUnderSLAIsMaximal(t *testing.T) {
	const maxBatch = 8192
	for _, m := range []CPUModel{SmallCPU(), LargeCPU()} {
		for _, slaMS := range []float64{10, 20, 50, 100} {
			t.Run(fmt.Sprintf("%s/%gms", m.Spec.Name, slaMS), func(t *testing.T) {
				b := MaxBatchUnderSLA(m, slaMS, maxBatch)
				if b < 1 {
					t.Fatalf("no batch fits %g ms (B=1 costs %.2f ms)", slaMS, m.EndToEndMS(1))
				}
				if got := m.EndToEndMS(b); got > slaMS {
					t.Errorf("B=%d costs %.2f ms, over the %g ms SLA", b, got, slaMS)
				}
				if b < maxBatch && m.EndToEndMS(b+1) <= slaMS {
					t.Errorf("B=%d is not maximal: B+1 costs %.2f ms", b, m.EndToEndMS(b+1))
				}
			})
		}
	}
}

// TestSimulateQueueInvariants runs the queue across load regimes and
// policies and checks what holds in all of them: every query is served once,
// none faster than a batch of one, batches respect MaxBatch, and a seed
// reproduces its run exactly.
func TestSimulateQueueInvariants(t *testing.T) {
	m := SmallCPU()
	for _, c := range []struct {
		rate float64
		pol  QueuePolicy
	}{
		{1, QueuePolicy{MaxBatch: 1, TimeoutMS: 1e6}},
		{500, QueuePolicy{MaxBatch: 64, TimeoutMS: 5}},
		{5000, QueuePolicy{MaxBatch: 256, TimeoutMS: 10}},
		{20000, QueuePolicy{MaxBatch: 2048, TimeoutMS: 10}},
		{60000, QueuePolicy{MaxBatch: 64, TimeoutMS: 1}},
	} {
		t.Run(fmt.Sprintf("%gqps/b%d", c.rate, c.pol.MaxBatch), func(t *testing.T) {
			res, err := SimulateQueue(m, c.rate, 1500, c.pol, 0, 7)
			if err != nil {
				t.Fatal(err)
			}
			if res.Queries != 1500 || res.Latency.Count != 1500 {
				t.Fatalf("served %d queries, summarized %d, want 1500", res.Queries, res.Latency.Count)
			}
			if res.Latency.Min < m.EndToEndMS(1)*(1-1e-9) {
				t.Errorf("min latency %.3f ms below one query's service %.3f ms", res.Latency.Min, m.EndToEndMS(1))
			}
			if res.MeanBatch < 1 || res.MeanBatch > float64(c.pol.MaxBatch) {
				t.Errorf("mean batch %.2f outside [1, %d]", res.MeanBatch, c.pol.MaxBatch)
			}
			again, err := SimulateQueue(m, c.rate, 1500, c.pol, 0, 7)
			if err != nil {
				t.Fatal(err)
			}
			if again != res {
				t.Errorf("same seed, different run: %+v then %+v", res, again)
			}
		})
	}
	// Batches of one are always full: at one query in a thousand seconds
	// nothing queues, and no query waits for the timeout.
	res, err := SimulateQueue(m, 0.001, 200, QueuePolicy{MaxBatch: 1, TimeoutMS: 1e6}, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if want := m.EndToEndMS(1); !approxEqual(res.Latency.Max, want, 1e-6) {
		t.Errorf("full batches of one: max latency %.3f ms, want the service %.3f ms", res.Latency.Max, want)
	}
}

func TestPolicyValidate(t *testing.T) {
	if err := (QueuePolicy{MaxBatch: 0, TimeoutMS: 1}).Validate(); err == nil {
		t.Error("MaxBatch 0: want error")
	}
	if err := (QueuePolicy{MaxBatch: 1, TimeoutMS: -1}).Validate(); err == nil {
		t.Error("negative timeout: want error")
	}
	if err := (QueuePolicy{MaxBatch: 64, TimeoutMS: 5}).Validate(); err != nil {
		t.Errorf("valid policy: %v", err)
	}
}

func TestSimulateQueueBasics(t *testing.T) {
	m := SmallCPU()
	res, err := SimulateQueue(m, 5000, 2000, QueuePolicy{MaxBatch: 256, TimeoutMS: 5}, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries != 2000 || res.Latency.Count != 2000 {
		t.Fatalf("served %d queries, summarized %d", res.Queries, res.Latency.Count)
	}
	if res.MeanBatch < 1 || res.MeanBatch > 256 {
		t.Errorf("mean batch %.1f out of range", res.MeanBatch)
	}
	// Latency must at least include one service time.
	if res.Latency.Min < m.EndToEndMS(1) {
		t.Errorf("min latency %.2f below single-item service %.2f", res.Latency.Min, m.EndToEndMS(1))
	}
	if res.ThroughputPerSec <= 0 {
		t.Error("degenerate throughput")
	}
}

func TestSimulateQueueShortBatchWaitsForTimeout(t *testing.T) {
	m := SmallCPU()
	// A lone query cannot know that nothing follows it: it waits out the
	// whole timeout before its batch of one is served.
	res, err := SimulateQueue(m, 1000, 1, QueuePolicy{MaxBatch: 64, TimeoutMS: 10}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := 10 + m.EndToEndMS(1); !approxEqual(res.Latency.Max, want, 1e-9) {
		t.Errorf("lone query latency %.4f ms, want timeout + service %.4f ms", res.Latency.Max, want)
	}
	// A batch that fills before the timeout leaves the moment it fills:
	// its last member waits for nothing but the service.
	res, err = SimulateQueue(m, 1000, 2, QueuePolicy{MaxBatch: 2, TimeoutMS: 1e6}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanBatch != 2 {
		t.Fatalf("mean batch %.1f, want one full batch of 2", res.MeanBatch)
	}
	if want := m.EndToEndMS(2); !approxEqual(res.Latency.Min, want, 1e-9) {
		t.Errorf("full batch's last query latency %.4f ms, want service %.4f ms", res.Latency.Min, want)
	}
	if res.Latency.Max >= 1e6 {
		t.Errorf("full batch waited for the timeout: max latency %.1f ms", res.Latency.Max)
	}
}

func TestSimulateQueueErrors(t *testing.T) {
	m := SmallCPU()
	if _, err := SimulateQueue(m, 0, 10, QueuePolicy{MaxBatch: 1}, 0, 1); err == nil {
		t.Error("zero rate: want error")
	}
	if _, err := SimulateQueue(m, 100, 0, QueuePolicy{MaxBatch: 1}, 0, 1); err == nil {
		t.Error("zero queries: want error")
	}
	if _, err := SimulateQueue(m, 100, 10, QueuePolicy{MaxBatch: 0}, 0, 1); err == nil {
		t.Error("bad policy: want error")
	}
}

func TestBatchingTradeoffAcrossLoadRegimes(t *testing.T) {
	// The paper's trade-off, both sides:
	// (a) at low load, aggressive batching only adds waiting — the
	//     timeout inflates tail latency for no throughput need;
	// (b) at high load, small batches lack throughput (the server
	//     saturates and the queue — and tail latency — blow up), which is
	//     exactly why CPU baselines must batch large and eat the latency.
	m := SmallCPU()
	smallPol := QueuePolicy{MaxBatch: 64, TimeoutMS: 2}
	bigPol := QueuePolicy{MaxBatch: 2048, TimeoutMS: 20}

	// (a) Low load: 2k queries/s, far below either capacity.
	lowSmall, err := SimulateQueue(m, 2000, 3000, smallPol, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	lowBig, err := SimulateQueue(m, 2000, 3000, bigPol, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if lowBig.Latency.P99 <= lowSmall.Latency.P99 {
		t.Errorf("low load: big-batch p99 %.1f ms should exceed small-batch p99 %.1f ms",
			lowBig.Latency.P99, lowSmall.Latency.P99)
	}

	// (b) High load: 20k queries/s exceeds the small policy's ~12k/s
	// capacity (64 / 5.41 ms) but not the big policy's.
	highSmall, err := SimulateQueue(m, 20000, 4000, smallPol, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	highBig, err := SimulateQueue(m, 20000, 4000, bigPol, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if highBig.MeanBatch <= highSmall.MeanBatch {
		t.Fatalf("high load: big policy batches %.1f <= small policy %.1f",
			highBig.MeanBatch, highSmall.MeanBatch)
	}
	if highSmall.Latency.P99 <= highBig.Latency.P99 {
		t.Errorf("high load: saturated small-batch p99 %.1f ms should exceed big-batch p99 %.1f ms",
			highSmall.Latency.P99, highBig.Latency.P99)
	}
	if highBig.ThroughputPerSec <= highSmall.ThroughputPerSec {
		t.Errorf("high load: big-batch throughput %.0f/s should exceed small-batch %.0f/s",
			highBig.ThroughputPerSec, highSmall.ThroughputPerSec)
	}
}

func TestOverloadDetectedViaViolations(t *testing.T) {
	// Offered load beyond the small-batch service capacity must blow the
	// SLA for most queries.
	m := SmallCPU()
	res, err := SimulateQueue(m, 60000, 3000, QueuePolicy{MaxBatch: 64, TimeoutMS: 1}, 30, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.SLAViolations < res.Queries/2 {
		t.Errorf("only %d/%d violations under overload", res.SLAViolations, res.Queries)
	}
}

func BenchmarkSimulateQueue(b *testing.B) {
	m := SmallCPU()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateQueue(m, 10000, 2000, QueuePolicy{MaxBatch: 512, TimeoutMS: 10}, 50, 1); err != nil {
			b.Fatal(err)
		}
	}
}
