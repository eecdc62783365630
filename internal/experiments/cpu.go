// The CPU-baseline side of the evaluation: an analytic performance model of
// the paper's baseline testbed — TensorFlow Serving on a 16-vCPU Xeon
// E5-2686 v4 with 8-channel DDR4 (§5.1) — calibrated against Tables 2 and 4.
// The float model itself is model.Parameters' (Features and Forward); the
// engine that runs on this host is internal/core.
//
// The analytic model exists because the paper's speedups are measured
// against that specific software stack; reproducing its *numbers* requires
// modelling its framework behaviour (§2.3: 37 embedding-related operator
// types invoked per batch), not just raw arithmetic. See DESIGN.md.

package experiments

import (
	"math"

	"microrec/internal/model"
)

// phaseModel models one phase (embedding layer or FC tower) of TF-Serving
// batch inference:
//
//	latency_ms(B) = baseMS + perItemMS*B + logMS*log2(1+B)
//
// Mechanistic reading: baseMS is the per-batch framework dispatch floor (the
// operator-call overhead that makes B=1 and B=64 cost nearly the same,
// Figure 3); perItemMS is the asymptotic per-item memory/compute cost; logMS
// captures sub-linear growth of operator scheduling with batch size.
type phaseModel struct {
	baseMS    float64
	perItemMS float64
	logMS     float64
}

// latencyMS returns the phase latency for a batch.
func (p phaseModel) latencyMS(batch int) float64 {
	if batch < 1 {
		return 0
	}
	return p.baseMS + p.perItemMS*float64(batch) + p.logMS*math.Log2(1+float64(batch))
}

// CPUModel is the full two-phase CPU baseline model for one recommendation
// model.
type CPUModel struct {
	// Spec is the modelled recommendation model.
	Spec *model.Spec
	// embedding covers the embedding layer (lookups + related operators);
	// dnn the FC tower.
	embedding, dnn phaseModel
}

// Calibration constants fitted to the paper's measured CPU latencies
// (PaperTable2CPU and PaperTable4CPU; every cell reproduced within 9%, see
// cpu_test.go).
var (
	paperSmallEmbedding = phaseModel{baseMS: 2.384, perItemMS: 0.00408, logMS: 0.2018}
	paperSmallDNN       = phaseModel{baseMS: 0.668, perItemMS: 0.00670, logMS: 0.0753}
	paperLargeEmbedding = phaseModel{baseMS: 6.020, perItemMS: 0.011145, logMS: 0.2187}
	paperLargeDNN       = phaseModel{baseMS: 1.182, perItemMS: 0.012260, logMS: 0.0354}
)

// SmallCPU returns the calibrated baseline for the small production model.
func SmallCPU() CPUModel {
	return CPUModel{Spec: model.SmallProduction(), embedding: paperSmallEmbedding, dnn: paperSmallDNN}
}

// LargeCPU returns the calibrated baseline for the large production model.
func LargeCPU() CPUModel {
	return CPUModel{Spec: model.LargeProduction(), embedding: paperLargeEmbedding, dnn: paperLargeDNN}
}

// EmbeddingMS returns the modelled embedding-layer latency for a batch
// (Table 4's CPU rows).
func (m CPUModel) EmbeddingMS(batch int) float64 { return m.embedding.latencyMS(batch) }

// EndToEndMS returns the full inference latency for a batch (Table 2's CPU
// rows).
func (m CPUModel) EndToEndMS(batch int) float64 {
	return m.embedding.latencyMS(batch) + m.dnn.latencyMS(batch)
}

// ThroughputItemsPerSec returns items/s at the given batch size.
func (m CPUModel) ThroughputItemsPerSec(batch int) float64 {
	if batch < 1 {
		return 0
	}
	return float64(batch) * 1e3 / m.EndToEndMS(batch)
}

// ThroughputGOPs returns the FC-tower GOP/s at the given batch size, the
// metric of Table 2.
func (m CPUModel) ThroughputGOPs(batch int) float64 {
	if m.Spec == nil || batch < 1 {
		return 0
	}
	ops := float64(m.Spec.OpsPerItem()) * float64(batch)
	return ops / (m.EndToEndMS(batch) * 1e6)
}

// EmbeddingShare returns the fraction of end-to-end latency spent in the
// embedding layer (Figure 3).
func (m CPUModel) EmbeddingShare(batch int) float64 {
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
