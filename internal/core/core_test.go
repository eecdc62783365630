package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"microrec/internal/embedding"
	"microrec/internal/fixedpoint"
	"microrec/internal/model"
	"microrec/internal/tensor"
)

func buildEngine(t testing.TB, spec *model.Spec, cfg Config) *Engine {
	t.Helper()
	params, err := spec.Materialize(model.MaterializeOptions{Seed: 1, MaxRowsPerTable: 256})
	if err != nil {
		t.Fatal(err)
	}
	e, err := Build(params, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
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

// TestEngineGatherMatchesStore pins the engine's float gather to the plain
// spec-order store gather on both production models at both widths.
func TestEngineGatherMatchesStore(t *testing.T) {
	for _, spec := range []*model.Spec{model.SmallProduction(), model.LargeProduction()} {
		params, err := spec.Materialize(model.MaterializeOptions{Seed: 1, MaxRowsPerTable: 256})
		if err != nil {
			t.Fatal(err)
		}
		store, err := embedding.NewStore(params)
		if err != nil {
			t.Fatal(err)
		}
		qs := randomQueries(spec, 5, 7)
		for _, f := range []fixedpoint.Format{fixedpoint.Fixed16, fixedpoint.Fixed32} {
			t.Run(fmt.Sprintf("%s/%dbit", spec.Name, f.Bits), func(t *testing.T) {
				e := buildEngine(t, spec, Config{Precision: f})
				for _, q := range qs {
					got, err := e.Gather(q, nil)
					if err != nil {
						t.Fatal(err)
					}
					want, err := store.Gather(q, nil)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(want) {
						t.Fatalf("gather length %d vs %d", len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("gather[%d] = %v, want %v", i, got[i], want[i])
						}
					}
				}
			})
		}
	}
}

func TestInferOneInRange(t *testing.T) {
	spec := model.SmallProduction()
	e := buildEngine(t, spec, Config{Precision: fixedpoint.Fixed16})
	for _, q := range randomQueries(spec, 10, 3) {
		p, err := e.InferOne(q)
		if err != nil {
			t.Fatal(err)
		}
		if p < 0 || p > 1 {
			t.Errorf("CTR prediction %v outside [0,1]", p)
		}
	}
}

// transposedReference is ReferenceOne's former form: every layer through
// MatVec over a freshly transposed weight matrix.
func transposedReference(t *testing.T, e *Engine, q embedding.Query) float32 {
	x, err := e.Gather(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	weights, biases := e.params.Layers()
	for l := range e.dims {
		y, err := tensor.MatVec(weights[l].Transpose(), x, nil)
		if err != nil {
			t.Fatal(err)
		}
		for j := range y {
			y[j] += biases[l][j]
		}
		if l < len(e.dims)-1 {
			tensor.ReLU(y)
		}
		x = y
	}
	out := []float32{x[0]}
	tensor.Sigmoid(out)
	return out[0]
}

// TestReferenceOneMatchesTransposedForm pins the transpose-free float
// reference bit for bit to the MatVec(Wᵀ, x) form on both production models.
func TestReferenceOneMatchesTransposedForm(t *testing.T) {
	for _, spec := range []*model.Spec{model.SmallProduction(), model.LargeProduction()} {
		e := buildEngine(t, spec, Config{Precision: fixedpoint.Fixed16})
		for i, q := range randomQueries(spec, 16, 5) {
			got, err := e.ReferenceOne(q)
			if err != nil {
				t.Fatal(err)
			}
			if want := transposedReference(t, e, q); math.Float32bits(got) != math.Float32bits(want) {
				t.Errorf("%s query %d: ReferenceOne %v, transposed form %v", spec.Name, i, got, want)
			}
		}
		e.Close()
	}
}

func TestQuantizationErrorSmall(t *testing.T) {
	// Fixed-point predictions must track the float reference; 16-bit
	// should be within a few percent absolute CTR, 32-bit much tighter.
	spec := model.SmallProduction()
	e16 := buildEngine(t, spec, Config{Precision: fixedpoint.Fixed16})
	e32 := buildEngine(t, spec, Config{Precision: fixedpoint.Fixed32})
	var max16, max32 float64
	for _, q := range randomQueries(spec, 20, 11) {
		ref, err := e16.ReferenceOne(q)
		if err != nil {
			t.Fatal(err)
		}
		p16, err := e16.InferOne(q)
		if err != nil {
			t.Fatal(err)
		}
		p32, err := e32.InferOne(q)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(float64(p16 - ref)); d > max16 {
			max16 = d
		}
		if d := math.Abs(float64(p32 - ref)); d > max32 {
			max32 = d
		}
	}
	if max16 > 0.05 {
		t.Errorf("fp16 max CTR error %.4f > 0.05", max16)
	}
	if max32 > 0.002 {
		t.Errorf("fp32 max CTR error %.5f > 0.002", max32)
	}
	if max32 > max16+1e-9 {
		t.Errorf("fp32 error %.5f exceeds fp16 error %.5f", max32, max16)
	}
}

func TestInferBatch(t *testing.T) {
	spec := model.SmallProduction()
	e := buildEngine(t, spec, Config{Precision: fixedpoint.Fixed16})
	qs := randomQueries(spec, 32, 5)
	res, err := e.Infer(qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Predictions) != 32 {
		t.Fatalf("predictions = %d", len(res.Predictions))
	}
	if _, err := e.Infer(nil); err == nil {
		t.Error("empty batch: want error")
	}
}

func TestInferDeterministic(t *testing.T) {
	spec := model.SmallProduction()
	e := buildEngine(t, spec, Config{Precision: fixedpoint.Fixed16})
	qs := randomQueries(spec, 4, 9)
	a, err := e.Infer(qs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Infer(qs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Predictions {
		if a.Predictions[i] != b.Predictions[i] {
			t.Fatal("inference is not deterministic")
		}
	}
}

func TestBuildErrors(t *testing.T) {
	spec := model.SmallProduction()
	params, err := spec.Materialize(model.MaterializeOptions{Seed: 1, MaxRowsPerTable: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(nil, Config{Precision: fixedpoint.Fixed16}); err == nil {
		t.Error("nil params: want error")
	}
	if _, err := Build(params, Config{Precision: fixedpoint.Fixed16, HotCacheBytes: -1}); err == nil {
		t.Error("invalid config: want error")
	}
}

func TestGatherQueryErrors(t *testing.T) {
	spec := model.SmallProduction()
	e := buildEngine(t, spec, Config{Precision: fixedpoint.Fixed16})
	if _, err := e.Gather(embedding.Query{{0}}, nil); err == nil {
		t.Error("short query: want error")
	}
	q := randomQueries(spec, 1, 1)[0]
	q[0] = nil
	if _, err := e.Gather(q, nil); err == nil {
		t.Error("missing lookups: want error")
	}
	q = randomQueries(spec, 1, 1)[0]
	q[0] = []int64{spec.Tables[0].Rows + 5}
	if _, err := e.Gather(q, nil); err == nil {
		t.Error("out-of-range index: want error")
	}
	q = randomQueries(spec, 1, 1)[0]
	if _, err := e.Gather(q, make([]float32, 3)); err == nil {
		t.Error("short dst: want error")
	}
}

func BenchmarkInferOneSmallFP16(b *testing.B) {
	spec := model.SmallProduction()
	e := buildEngine(b, spec, Config{Precision: fixedpoint.Fixed16})
	q := randomQueries(spec, 1, 1)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.InferOne(q); err != nil {
			b.Fatal(err)
		}
	}
}
