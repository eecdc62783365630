package experiments

import (
	"testing"
	"testing/quick"
)

// checkCalibration holds one modelled latency curve to a paper row at every
// batch size of PaperBatch, within 9%.
func checkCalibration(t *testing.T, what string, modelled func(int) float64, paper map[int]float64) {
	t.Helper()
	for _, b := range PaperBatch {
		w, ok := paper[b]
		if !ok {
			t.Fatalf("%s: no paper value at B=%d", what, b)
		}
		if got := modelled(b); !approxEqual(got, w, 0.09) {
			t.Errorf("%s B=%d: modeled %.2f ms, paper %.2f (>9%% off)", what, b, got, w)
		}
	}
}

// TestPaperSmallMatchesTable4 validates the embedding-phase calibration
// against every CPU cell of Table 4 (small model).
func TestPaperSmallMatchesTable4(t *testing.T) {
	m := SmallCPU()
	checkCalibration(t, "small embedding", m.EmbeddingMS, PaperTable4CPU[m.Spec.Name])
}

func TestPaperLargeMatchesTable4(t *testing.T) {
	m := LargeCPU()
	checkCalibration(t, "large embedding", m.EmbeddingMS, PaperTable4CPU[m.Spec.Name])
}

// TestPaperMatchesTable2 validates end-to-end latency against Table 2's CPU
// rows for both models.
func TestPaperMatchesTable2(t *testing.T) {
	for _, m := range []CPUModel{SmallCPU(), LargeCPU()} {
		checkCalibration(t, m.Spec.Name+" e2e", m.EndToEndMS, PaperTable2CPU[m.Spec.Name])
	}
}

func TestThroughputMatchesTable2(t *testing.T) {
	// Table 2: small model at B=2048 reaches 7.27e4 items/s and 147.65
	// GOP/s.
	m := SmallCPU()
	if got := m.ThroughputItemsPerSec(2048); !approxEqual(got, 7.27e4, 0.09) {
		t.Errorf("items/s = %.3g, paper 7.27e4", got)
	}
	if got := m.ThroughputGOPs(2048); !approxEqual(got, 147.65, 0.09) {
		t.Errorf("GOP/s = %.1f, paper 147.65", got)
	}
	l := LargeCPU()
	if got := l.ThroughputItemsPerSec(2048); !approxEqual(got, 3.59e4, 0.09) {
		t.Errorf("large items/s = %.3g, paper 3.59e4", got)
	}
}

func TestEmbeddingShareMatchesFigure3(t *testing.T) {
	// Figure 3's message: the embedding layer dominates CPU inference at
	// small batch sizes.
	for _, m := range []CPUModel{SmallCPU(), LargeCPU()} {
		for _, b := range []int{1, 64} {
			share := m.EmbeddingShare(b)
			if share < 0.6 || share > 0.95 {
				t.Errorf("%s B=%d embedding share = %.2f, want dominant (0.6-0.95)", m.Spec.Name, b, share)
			}
		}
	}
}

func TestPhaseModelEdgeCases(t *testing.T) {
	p := phaseModel{baseMS: 1, perItemMS: 1, logMS: 0}
	if p.latencyMS(0) != 0 || p.latencyMS(-1) != 0 {
		t.Error("non-positive batch should cost 0")
	}
	m := SmallCPU()
	if m.ThroughputItemsPerSec(0) != 0 || m.ThroughputGOPs(0) != 0 {
		t.Error("zero batch throughput should be 0")
	}
	if (CPUModel{}).ThroughputGOPs(16) != 0 {
		t.Error("nil-spec GOPs should be 0")
	}
}

// Property: latency is monotone non-decreasing in batch size.
func TestLatencyMonotoneProperty(t *testing.T) {
	m := SmallCPU()
	prop := func(b uint16) bool {
		batch := int(b%4096) + 1
		return m.EndToEndMS(batch+1) >= m.EndToEndMS(batch)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: throughput improves (or holds) with batch size — the motivation
// for the paper's B=2048 baseline choice.
func TestThroughputMonotoneProperty(t *testing.T) {
	for _, m := range []CPUModel{SmallCPU(), LargeCPU()} {
		last := 0.0
		for _, b := range PaperBatch {
			tp := m.ThroughputItemsPerSec(b)
			if tp < last {
				t.Errorf("%s: throughput dropped from %.0f to %.0f at B=%d", m.Spec.Name, last, tp, b)
			}
			last = tp
		}
	}
}
