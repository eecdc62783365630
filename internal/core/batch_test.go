package core

import (
	"strings"
	"sync"
	"testing"

	"microrec/internal/fixedpoint"
	"microrec/internal/model"
)

// oddSpec is a tiny model whose feature length, hidden widths and batch
// tails exercise every edge of the blocked GEMM (odd in/out dims, dense
// tail, column-block remainders).
func oddSpec() *model.Spec {
	return &model.Spec{
		Name: "odd-batch",
		Tables: []model.TableSpec{
			{ID: 0, Name: "a", Rows: 97, Dim: 3, Lookups: 1},
			{ID: 1, Name: "b", Rows: 41, Dim: 5, Lookups: 2},
			{ID: 2, Name: "c", Rows: 203, Dim: 7, Lookups: 1},
		},
		DenseDim: 3,
		Hidden:   []int{31, 17},
	}
}

// TestInferBatchMatchesInferOne checks bit-identical predictions between the
// blocked batch kernel and the per-query datapath, across batch sizes that
// cover the 4-query and 2-output register-block tails.
func TestInferBatchMatchesInferOne(t *testing.T) {
	specs := []*model.Spec{model.SmallProduction(), oddSpec()}
	for _, spec := range specs {
		cfg := Config{Precision: fixedpoint.Fixed16}
		e := buildEngine(t, spec, cfg)
		for _, b := range []int{1, 2, 3, 4, 5, 7, 8, 64, 67} {
			qs := randomQueries(spec, b, int64(b))
			got, err := e.InferBatch(qs, nil, nil)
			if err != nil {
				t.Fatalf("%s b=%d: %v", spec.Name, b, err)
			}
			for i, q := range qs {
				want, err := e.InferOne(q)
				if err != nil {
					t.Fatal(err)
				}
				if got[i] != want {
					t.Fatalf("%s b=%d query %d: batch %v, one-at-a-time %v", spec.Name, b, i, got[i], want)
				}
			}
		}
	}
}

// TestInferBatchScratchReuse reuses one scratch across growing and shrinking
// batch sizes and checks results stay exact (stale dense tails or stale
// activations would show up here).
func TestInferBatchScratchReuse(t *testing.T) {
	spec := oddSpec()
	e := buildEngine(t, spec, Config{Precision: fixedpoint.Fixed16})
	var scratch BatchScratch
	for _, b := range []int{5, 64, 3, 1, 32} {
		qs := randomQueries(spec, b, int64(100+b))
		got, err := e.InferBatch(qs, nil, &scratch)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range qs {
			want, _ := e.InferOne(q)
			if got[i] != want {
				t.Fatalf("b=%d query %d: %v != %v", b, i, got[i], want)
			}
		}
	}
}

// TestScratchReuseAcrossEngines moves one scratch between a 16-bit and a
// 32-bit engine of different plane strides, through the stage calls on a
// zero-value scratch handed straight to EnsurePlane (as the pipeline ring and
// the repository benchmark do). A plane must be sized by the engine in hand —
// its element width and its stride — never by what a previous engine left
// behind: the visit order below makes the wide engine return after a narrow
// one needed less of every buffer, and then asks for more rows than before.
// Predictions must match a fresh scratch bit for bit.
func TestScratchReuseAcrossEngines(t *testing.T) {
	wideSpec, narrowSpec := model.SmallProduction(), oddSpec()
	wide := buildEngine(t, wideSpec, Config{Precision: fixedpoint.Fixed16})
	narrow := buildEngine(t, narrowSpec, Config{Precision: fixedpoint.Fixed32})
	var shared BatchScratch
	for step, v := range []struct {
		e *Engine
		b int
	}{
		{wide, 8}, {narrow, 3}, {wide, 8}, {narrow, 40}, {wide, 33}, {narrow, 40}, {wide, 1},
	} {
		qs := randomQueries(v.e.spec, v.b, int64(500+step))
		for _, q := range qs {
			if err := v.e.ValidateQuery(q); err != nil {
				t.Fatal(err)
			}
		}
		got := make([]float32, v.b)
		v.e.EnsurePlane(&shared, v.b)
		v.e.GatherIntoPlane(qs, &shared)
		v.e.DenseFromPlane(v.b, &shared)
		v.e.TailFromPlane(v.b, &shared, got)
		want, err := v.e.InferBatch(qs, nil, &BatchScratch{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("step %d (%s, b=%d) query %d: shared scratch %v, fresh scratch %v",
					step, v.e.spec.Name, v.b, i, got[i], want[i])
			}
		}
	}
}

// TestInferBatchErrors covers argument validation and per-query failures.
func TestInferBatchErrors(t *testing.T) {
	spec := model.SmallProduction()
	e := buildEngine(t, spec, Config{Precision: fixedpoint.Fixed16})
	if _, err := e.InferBatch(nil, nil, nil); err == nil {
		t.Error("empty batch: want error")
	}
	qs := randomQueries(spec, 3, 1)
	if _, err := e.InferBatch(qs, make([]float32, 2), nil); err == nil {
		t.Error("short dst: want error")
	}
	bad := randomQueries(spec, 3, 1)
	bad[1] = bad[1][:5] // wrong table count
	if _, err := e.InferBatch(bad, nil, nil); err == nil {
		t.Error("malformed query: want error")
	} else if !strings.Contains(err.Error(), "query 1") {
		t.Errorf("error should name the failing query: %v", err)
	}
}

// TestValidateQuery checks shape and range validation without inference.
func TestValidateQuery(t *testing.T) {
	spec := model.SmallProduction()
	e := buildEngine(t, spec, Config{Precision: fixedpoint.Fixed16})
	q := randomQueries(spec, 1, 9)[0]
	if err := e.ValidateQuery(q); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}
	if err := e.ValidateQuery(q[:3]); err == nil {
		t.Error("short query: want error")
	}
	bad := randomQueries(spec, 1, 9)[0]
	bad[0] = []int64{spec.Tables[0].Rows}
	if err := e.ValidateQuery(bad); err == nil {
		t.Error("out-of-range index: want error")
	}
	bad2 := randomQueries(spec, 1, 9)[0]
	bad2[2] = append(bad2[2], 0)
	if err := e.ValidateQuery(bad2); err == nil {
		t.Error("wrong lookup count: want error")
	}
}

// TestInferBatchConcurrent runs many batches through one shared engine from
// concurrent goroutines, each with a private scratch — the shared-engine
// path the serving worker pool relies on (run under -race).
func TestInferBatchConcurrent(t *testing.T) {
	spec := model.SmallProduction()
	e := buildEngine(t, spec, Config{Precision: fixedpoint.Fixed16})
	qs := randomQueries(spec, 16, 5)
	want, err := e.InferBatch(qs, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch BatchScratch
			for rep := 0; rep < 4; rep++ {
				got, err := e.InferBatch(qs, nil, &scratch)
				if err != nil {
					errs <- err
					return
				}
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("concurrent batch diverged at %d", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
