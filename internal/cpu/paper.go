// Package cpu provides the CPU-baseline side of the evaluation: an analytic
// performance model of the paper's baseline testbed — TensorFlow Serving on a
// 16-vCPU Xeon E5-2686 v4 with 8-channel DDR4 (§5.1) — calibrated against
// Tables 2 and 4. The float model itself is model.Parameters' (Features and
// Forward); the engine that runs on this host is internal/core.
//
// The analytic model exists because the paper's speedups are measured
// against that specific software stack; reproducing its *numbers* requires
// modelling its framework behaviour (§2.3: 37 embedding-related operator
// types invoked per batch), not just raw arithmetic. See DESIGN.md.
package cpu

import (
	"math"

	"microrec/internal/model"
)

// PhaseModel models one phase (embedding layer or FC tower) of TF-Serving
// batch inference:
//
//	latency_ms(B) = BaseMS + PerItemMS*B + LogMS*log2(1+B)
//
// Mechanistic reading: BaseMS is the per-batch framework dispatch floor (the
// operator-call overhead that makes B=1 and B=64 cost nearly the same,
// Figure 3); PerItemMS is the asymptotic per-item memory/compute cost; LogMS
// captures sub-linear growth of operator scheduling with batch size.
type PhaseModel struct {
	BaseMS    float64
	PerItemMS float64
	LogMS     float64
}

// LatencyMS returns the phase latency for a batch.
func (p PhaseModel) LatencyMS(batch int) float64 {
	if batch < 1 {
		return 0
	}
	return p.BaseMS + p.PerItemMS*float64(batch) + p.LogMS*math.Log2(1+float64(batch))
}

// Model is the full two-phase CPU baseline model for one recommendation
// model.
type Model struct {
	// Spec is the modelled recommendation model.
	Spec *model.Spec
	// Embedding covers the embedding layer (lookups + related operators).
	Embedding PhaseModel
	// DNN covers the FC tower.
	DNN PhaseModel
}

// Calibration constants fitted to the paper's measured CPU latencies
// (Tables 2 and 4; every cell reproduced within 9%, see paper_test.go).
var (
	paperSmallEmbedding = PhaseModel{BaseMS: 2.384, PerItemMS: 0.00408, LogMS: 0.2018}
	paperSmallDNN       = PhaseModel{BaseMS: 0.668, PerItemMS: 0.00670, LogMS: 0.0753}
	paperLargeEmbedding = PhaseModel{BaseMS: 6.020, PerItemMS: 0.011145, LogMS: 0.2187}
	paperLargeDNN       = PhaseModel{BaseMS: 1.182, PerItemMS: 0.012260, LogMS: 0.0354}
)

// PaperSmall returns the calibrated baseline for the small production model.
func PaperSmall() Model {
	return Model{Spec: model.SmallProduction(), Embedding: paperSmallEmbedding, DNN: paperSmallDNN}
}

// PaperLarge returns the calibrated baseline for the large production model.
func PaperLarge() Model {
	return Model{Spec: model.LargeProduction(), Embedding: paperLargeEmbedding, DNN: paperLargeDNN}
}

// EmbeddingMS returns the modelled embedding-layer latency for a batch
// (Table 4's CPU rows).
func (m Model) EmbeddingMS(batch int) float64 { return m.Embedding.LatencyMS(batch) }

// EndToEndMS returns the full inference latency for a batch (Table 2's CPU
// rows).
func (m Model) EndToEndMS(batch int) float64 {
	return m.Embedding.LatencyMS(batch) + m.DNN.LatencyMS(batch)
}

// ThroughputItemsPerSec returns items/s at the given batch size.
func (m Model) ThroughputItemsPerSec(batch int) float64 {
	if batch < 1 {
		return 0
	}
	return float64(batch) * 1e3 / m.EndToEndMS(batch)
}

// ThroughputGOPs returns the FC-tower GOP/s at the given batch size, the
// metric of Table 2.
func (m Model) ThroughputGOPs(batch int) float64 {
	if m.Spec == nil || batch < 1 {
		return 0
	}
	ops := float64(m.Spec.OpsPerItem()) * float64(batch)
	return ops / (m.EndToEndMS(batch) * 1e6)
}

// EmbeddingShare returns the fraction of end-to-end latency spent in the
// embedding layer (Figure 3).
func (m Model) EmbeddingShare(batch int) float64 {
	e2e := m.EndToEndMS(batch)
	if e2e == 0 {
		return 0
	}
	return m.EmbeddingMS(batch) / e2e
}

// FacebookRMC2EmbeddingNSPerItem is the published per-item embedding-layer
// time of Facebook's DLRM-RMC2 baseline (2-socket Broadwell, batch 256),
// back-derived from Table 5: every cell's speedup x latency product equals
// 24.2 µs.
const FacebookRMC2EmbeddingNSPerItem = 24_200.0

// BatchSizes are the batch sizes the paper sweeps in Tables 2 and 4.
var BatchSizes = []int{1, 64, 256, 512, 1024, 2048}
