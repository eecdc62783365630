package sla

import (
	"testing"
	"testing/quick"

	"microrec/internal/cpu"
)

func TestMaxBatchUnderSLA(t *testing.T) {
	m := cpu.PaperSmall()
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
	m := cpu.PaperSmall()
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
	m := cpu.PaperLarge()
	prop := func(a, b uint8) bool {
		s1, s2 := float64(a)+1, float64(a)+1+float64(b)
		return MaxBatchUnderSLA(m, s1, 4096) <= MaxBatchUnderSLA(m, s2, 4096)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPolicyValidate(t *testing.T) {
	if err := (Policy{MaxBatch: 0, TimeoutMS: 1}).Validate(); err == nil {
		t.Error("MaxBatch 0: want error")
	}
	if err := (Policy{MaxBatch: 1, TimeoutMS: -1}).Validate(); err == nil {
		t.Error("negative timeout: want error")
	}
	if err := (Policy{MaxBatch: 64, TimeoutMS: 5}).Validate(); err != nil {
		t.Errorf("valid policy: %v", err)
	}
}

func TestSimulateQueueBasics(t *testing.T) {
	m := cpu.PaperSmall()
	res, err := SimulateQueue(m, 5000, 2000, Policy{MaxBatch: 256, TimeoutMS: 5}, 50, 1)
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

func TestSimulateQueueErrors(t *testing.T) {
	m := cpu.PaperSmall()
	if _, err := SimulateQueue(m, 0, 10, Policy{MaxBatch: 1}, 0, 1); err == nil {
		t.Error("zero rate: want error")
	}
	if _, err := SimulateQueue(m, 100, 0, Policy{MaxBatch: 1}, 0, 1); err == nil {
		t.Error("zero queries: want error")
	}
	if _, err := SimulateQueue(m, 100, 10, Policy{MaxBatch: 0}, 0, 1); err == nil {
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
	m := cpu.PaperSmall()
	smallPol := Policy{MaxBatch: 64, TimeoutMS: 2}
	bigPol := Policy{MaxBatch: 2048, TimeoutMS: 20}

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
	m := cpu.PaperSmall()
	res, err := SimulateQueue(m, 60000, 3000, Policy{MaxBatch: 64, TimeoutMS: 1}, 30, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.SLAViolations < res.Queries/2 {
		t.Errorf("only %d/%d violations under overload", res.SLAViolations, res.Queries)
	}
}

func BenchmarkSimulateQueue(b *testing.B) {
	m := cpu.PaperSmall()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateQueue(m, 10000, 2000, Policy{MaxBatch: 512, TimeoutMS: 10}, 50, 1); err != nil {
			b.Fatal(err)
		}
	}
}
