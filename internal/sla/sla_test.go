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

func TestItemServeLatencyMS(t *testing.T) {
	if got := ItemServeLatencyMS(17900); got != 0.0179 {
		t.Errorf("ItemServeLatencyMS = %v", got)
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

func TestValidateWindow(t *testing.T) {
	// 0.2ms window + 2*1.5ms service = 3.2ms fits a 5ms budget.
	if err := ValidateWindow(0.2, 1.5, 5); err != nil {
		t.Errorf("fitting window rejected: %v", err)
	}
	// 3ms window + 2*1.5ms service = 6ms misses a 5ms budget.
	if err := ValidateWindow(3, 1.5, 5); err == nil {
		t.Error("oversized window accepted")
	}
	for _, bad := range [][3]float64{{-1, 1, 5}, {1, -1, 5}, {1, 1, 0}} {
		if err := ValidateWindow(bad[0], bad[1], bad[2]); err == nil {
			t.Errorf("ValidateWindow(%v) accepted", bad)
		}
	}
}

func TestWorstCaseBatchLatencyMS(t *testing.T) {
	if got := WorstCaseBatchLatencyMS(0.2, 1.5); got != 3.2 {
		t.Errorf("worst case = %v, want 3.2", got)
	}
}

func TestWorstCaseAdmittedLatencyMS(t *testing.T) {
	// No backlog degenerates to window + service.
	if got := WorstCaseAdmittedLatencyMS(0.2, 1.5, 0, 1); got != 1.7 {
		t.Errorf("no backlog = %v, want 1.7", got)
	}
	// 7 queued batches on 1 worker: window + (7+1)*service.
	if got := WorstCaseAdmittedLatencyMS(0.2, 1.5, 7, 1); got != 0.2+8*1.5 {
		t.Errorf("7 queued / 1 worker = %v", got)
	}
	// 7 queued batches on 4 workers drain in ceil(7/4)=2 rounds.
	if got := WorstCaseAdmittedLatencyMS(0.2, 1.5, 7, 4); got != 0.2+3*1.5 {
		t.Errorf("7 queued / 4 workers = %v", got)
	}
	// Degenerate inputs clamp instead of exploding.
	if got := WorstCaseAdmittedLatencyMS(0.2, 1.5, -3, 0); got != 1.7 {
		t.Errorf("clamped = %v, want 1.7", got)
	}
}

func TestValidateAdmittedWindow(t *testing.T) {
	// The light-load bound fits a 5ms budget, but 7 batches of backlog on
	// one worker must not.
	if err := ValidateAdmittedWindow(0.2, 1.5, 5, 0, 1); err != nil {
		t.Errorf("no backlog rejected: %v", err)
	}
	if err := ValidateAdmittedWindow(0.2, 1.5, 5, 7, 1); err == nil {
		t.Error("backlogged config accepted")
	}
	// More workers drain the same backlog inside the budget.
	if err := ValidateAdmittedWindow(0.2, 1.5, 13, 7, 8); err != nil {
		t.Errorf("parallel drain rejected: %v", err)
	}
	for _, bad := range [][3]float64{{-1, 1, 5}, {1, -1, 5}, {1, 1, 0}} {
		if err := ValidateAdmittedWindow(bad[0], bad[1], bad[2], 1, 1); err == nil {
			t.Errorf("ValidateAdmittedWindow(%v) accepted", bad)
		}
	}
}

func TestAdmittedLatencyBoundsMS(t *testing.T) {
	// Equal cold/warm service: bounds coincide (the no-cache case).
	worst, expected := AdmittedLatencyBoundsMS(1, 5, 5, 2, 1)
	if worst != expected {
		t.Errorf("equal service: worst %v != expected %v", worst, expected)
	}
	if want := WorstCaseAdmittedLatencyMS(1, 5, 2, 1); worst != want {
		t.Errorf("worst %v, want %v", worst, want)
	}
	// A warm cache shrinks the expectation, never the bound.
	worst, expected = AdmittedLatencyBoundsMS(1, 5, 3, 2, 1)
	if expected >= worst {
		t.Errorf("warm service 3 vs cold 5: expected %v should beat worst %v", expected, worst)
	}
	if want := WorstCaseAdmittedLatencyMS(1, 3, 2, 1); expected != want {
		t.Errorf("expected %v, want %v", expected, want)
	}
}

// TestAdmittedLatencyBoundsPipelineMode pins the bounds in the serving
// layer's pipelined-drain model: the pipeline is treated conservatively as a
// single drain worker (workers=1) with the full un-overlapped batch service
// time. With ring depth 1 batch of backlog the bound is window + 2*service
// (the classic one-in-flight form), and deeper backlogs grow linearly — one
// full service round per queued batch, since one "worker" drains them.
func TestAdmittedLatencyBoundsPipelineMode(t *testing.T) {
	const window, cold, warm = 0.2, 4.0, 2.5
	// Depth-1 backlog, pipeline drain (workers=1).
	worst, expected := AdmittedLatencyBoundsMS(window, cold, warm, 1, 1)
	if want := window + 2*cold; worst != want {
		t.Fatalf("depth-1 worst %v, want window+2*service = %v", worst, want)
	}
	if want := window + 2*warm; expected != want {
		t.Fatalf("depth-1 expected %v, want %v", expected, want)
	}
	if expected >= worst {
		t.Fatalf("warm expectation %v must beat cold bound %v", expected, worst)
	}
	// The pipelined drain's single conservative worker: each extra queued
	// batch adds exactly one cold service to the worst case.
	prevWorst := worst
	for backlog := 2; backlog <= 5; backlog++ {
		w, _ := AdmittedLatencyBoundsMS(window, cold, warm, backlog, 1)
		if diff := w - prevWorst; diff != cold {
			t.Fatalf("backlog %d: bound grew by %v, want one service (%v)", backlog, diff, cold)
		}
		prevWorst = w
	}
	// Sanity against the worker-pool model: with enough workers the same
	// backlog drains in one round, so the pipeline-mode bound dominates.
	poolWorst, _ := AdmittedLatencyBoundsMS(window, cold, warm, 5, 5)
	pipeWorst, _ := AdmittedLatencyBoundsMS(window, cold, warm, 5, 1)
	if pipeWorst <= poolWorst {
		t.Fatalf("pipeline-mode bound %v not conservative vs pool %v", pipeWorst, poolWorst)
	}
}
