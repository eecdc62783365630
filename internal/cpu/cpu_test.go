package cpu

import (
	"math"
	"testing"
	"testing/quick"
)

// TestPaperSmallMatchesTable4 validates the embedding-phase calibration
// against every CPU cell of Table 4 (small model).
func TestPaperSmallMatchesTable4(t *testing.T) {
	m := PaperSmall()
	want := map[int]float64{1: 2.59, 64: 3.86, 256: 4.71, 512: 5.96, 1024: 8.39, 2048: 12.96}
	for b, w := range want {
		got := m.EmbeddingMS(b)
		if !approxEqual(got, w, 0.09) {
			t.Errorf("small embedding B=%d: modeled %.2f ms, paper %.2f (>9%% off)", b, got, w)
		}
	}
}

func TestPaperLargeMatchesTable4(t *testing.T) {
	m := PaperLarge()
	want := map[int]float64{1: 6.25, 64: 8.05, 256: 10.92, 512: 13.67, 1024: 18.11, 2048: 31.25}
	for b, w := range want {
		got := m.EmbeddingMS(b)
		if !approxEqual(got, w, 0.09) {
			t.Errorf("large embedding B=%d: modeled %.2f ms, paper %.2f (>9%% off)", b, got, w)
		}
	}
}

// TestPaperMatchesTable2 validates end-to-end latency against Table 2's CPU
// rows for both models.
func TestPaperMatchesTable2(t *testing.T) {
	cases := []struct {
		name string
		m    Model
		want map[int]float64
	}{
		{"small", PaperSmall(), map[int]float64{1: 3.34, 64: 5.41, 256: 8.15, 512: 11.15, 1024: 17.17, 2048: 28.18}},
		{"large", PaperLarge(), map[int]float64{1: 7.48, 64: 10.23, 256: 15.62, 512: 21.06, 1024: 31.72, 2048: 56.98}},
	}
	for _, c := range cases {
		for b, w := range c.want {
			got := c.m.EndToEndMS(b)
			if !approxEqual(got, w, 0.09) {
				t.Errorf("%s e2e B=%d: modeled %.2f ms, paper %.2f (>9%% off)", c.name, b, got, w)
			}
		}
	}
}

func TestThroughputMatchesTable2(t *testing.T) {
	// Table 2: small model at B=2048 reaches 7.27e4 items/s and 147.65
	// GOP/s.
	m := PaperSmall()
	if got := m.ThroughputItemsPerSec(2048); !approxEqual(got, 7.27e4, 0.09) {
		t.Errorf("items/s = %.3g, paper 7.27e4", got)
	}
	if got := m.ThroughputGOPs(2048); !approxEqual(got, 147.65, 0.09) {
		t.Errorf("GOP/s = %.1f, paper 147.65", got)
	}
	l := PaperLarge()
	if got := l.ThroughputItemsPerSec(2048); !approxEqual(got, 3.59e4, 0.09) {
		t.Errorf("large items/s = %.3g, paper 3.59e4", got)
	}
}

func TestEmbeddingShareMatchesFigure3(t *testing.T) {
	// Figure 3's message: the embedding layer dominates CPU inference at
	// small batch sizes.
	for _, m := range []Model{PaperSmall(), PaperLarge()} {
		for _, b := range []int{1, 64} {
			share := m.EmbeddingShare(b)
			if share < 0.6 || share > 0.95 {
				t.Errorf("%s B=%d embedding share = %.2f, want dominant (0.6-0.95)", m.Spec.Name, b, share)
			}
		}
	}
}

func TestPhaseModelEdgeCases(t *testing.T) {
	p := PhaseModel{BaseMS: 1, PerItemMS: 1, LogMS: 0}
	if p.LatencyMS(0) != 0 || p.LatencyMS(-1) != 0 {
		t.Error("non-positive batch should cost 0")
	}
	m := PaperSmall()
	if m.ThroughputItemsPerSec(0) != 0 || m.ThroughputGOPs(0) != 0 {
		t.Error("zero batch throughput should be 0")
	}
	if (Model{}).ThroughputGOPs(16) != 0 {
		t.Error("nil-spec GOPs should be 0")
	}
}

// Property: latency is monotone non-decreasing in batch size.
func TestLatencyMonotoneProperty(t *testing.T) {
	m := PaperSmall()
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
	for _, m := range []Model{PaperSmall(), PaperLarge()} {
		last := 0.0
		for _, b := range BatchSizes {
			tp := m.ThroughputItemsPerSec(b)
			if tp < last {
				t.Errorf("%s: throughput dropped from %.0f to %.0f at B=%d", m.Spec.Name, last, tp, b)
			}
			last = tp
		}
	}
}

// approxEqual reports whether a and b agree within relative tolerance relTol.
func approxEqual(a, b, relTol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b)/math.Max(math.Abs(a), math.Abs(b)) <= relTol
}
