package cpu

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"microrec/internal/embedding"
	"microrec/internal/model"
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

func testEngine(t testing.TB) (*Engine, *model.Spec) {
	spec := model.SmallProduction()
	params, err := spec.Materialize(model.MaterializeOptions{Seed: 3, MaxRowsPerTable: 128})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(params)
	if err != nil {
		t.Fatal(err)
	}
	return e, spec
}

func randomQueries(spec *model.Spec, n int, seed int64) []embedding.Query {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]embedding.Query, n)
	for i := range qs {
		q := make(embedding.Query, len(spec.Tables))
		for ti, tab := range spec.Tables {
			idxs := make([]int64, tab.Lookups)
			for k := range idxs {
				idxs[k] = rng.Int63n(tab.Rows)
			}
			q[ti] = idxs
		}
		qs[i] = q
	}
	return qs
}

func TestEngineInferBatch(t *testing.T) {
	e, spec := testEngine(t)
	qs := randomQueries(spec, 17, 1)
	preds, err := e.InferBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 17 {
		t.Fatalf("predictions = %d", len(preds))
	}
	for i, p := range preds {
		if p < 0 || p > 1 || math.IsNaN(float64(p)) {
			t.Errorf("prediction[%d] = %v outside [0,1]", i, p)
		}
	}
}

func TestEngineBatchMatchesSingle(t *testing.T) {
	// Batch inference must equal per-item inference (no cross-item
	// contamination).
	e, spec := testEngine(t)
	qs := randomQueries(spec, 8, 2)
	batch, err := e.InferBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		single, err := e.InferBatch([]embedding.Query{q})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(float64(batch[i]-single[0])) > 1e-6 {
			t.Errorf("item %d: batch %v != single %v", i, batch[i], single[0])
		}
	}
}

func TestEngineErrors(t *testing.T) {
	e, spec := testEngine(t)
	if _, err := e.InferBatch(nil); err == nil {
		t.Error("empty batch: want error")
	}
	if _, err := NewEngine(nil); err == nil {
		t.Error("nil params: want error")
	}
	q := randomQueries(spec, 1, 1)[0]
	q[0] = []int64{spec.Tables[0].Rows + 1}
	if _, err := e.InferBatch([]embedding.Query{q}); err == nil {
		t.Error("bad index: want error")
	}
	if _, err := e.Forward(nil); err == nil {
		t.Error("nil features: want error")
	}
}

func TestEmbedBatchShape(t *testing.T) {
	e, spec := testEngine(t)
	qs := randomQueries(spec, 5, 4)
	m, err := e.EmbedBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 5 || m.Cols != spec.FeatureLen() {
		t.Errorf("embed matrix %dx%d, want 5x%d", m.Rows, m.Cols, spec.FeatureLen())
	}
	// No row may be all zeros (embeddings are uniform in [-1,1)).
	for i := 0; i < m.Rows; i++ {
		allZero := true
		for _, v := range m.Row(i) {
			if v != 0 {
				allZero = false
				break
			}
		}
		if allZero {
			t.Errorf("row %d is all zeros — gather failed silently", i)
		}
	}
}

func BenchmarkEngineInferB64(b *testing.B) {
	e, spec := testEngine(b)
	qs := randomQueries(spec, 64, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.InferBatch(qs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineEmbedB256(b *testing.B) {
	e, spec := testEngine(b)
	qs := randomQueries(spec, 256, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.EmbedBatch(qs); err != nil {
			b.Fatal(err)
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
