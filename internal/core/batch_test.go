package core

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"microrec/internal/embedding"
	"microrec/internal/fixedpoint"
	"microrec/internal/model"
	"microrec/internal/workload"
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

// inferBatch runs a batch the way the serving drains do: ValidateQuery on
// every query, then the three stage calls on one plane (a fresh one when s
// is nil). It returns one prediction per query.
func inferBatch(e *Engine, qs []embedding.Query, s *BatchScratch) ([]float32, error) {
	if err := e.validateBatch(qs); err != nil {
		return nil, err
	}
	if s == nil {
		s = &BatchScratch{}
	}
	dst := make([]float32, len(qs))
	e.inferBatchValidated(qs, dst, s)
	return dst, nil
}

// gatherBatch validates a batch and gathers it into s: the first stage call
// alone, on a plane sized for the batch.
func gatherBatch(e *Engine, qs []embedding.Query, s *BatchScratch) error {
	if err := e.validateBatch(qs); err != nil {
		return err
	}
	e.EnsurePlane(s, len(qs))
	e.GatherIntoPlane(qs, s)
	return nil
}

// featureAt reads feature k of query q from a gathered plane, as a raw value
// of e's format.
func featureAt(e *Engine, s *BatchScratch, q, k int) int64 {
	switch d := e.dp.(type) {
	case *fixedPath[int16]:
		return int64(s.x16[q*d.stride+k])
	case *fixedPath[int32]:
		return int64(s.x32[q*d.stride+k])
	}
	panic("core: unknown datapath")
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
			got, err := inferBatch(e, qs, nil)
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
		got, err := inferBatch(e, qs, &scratch)
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
		want, err := inferBatch(v.e, qs, nil)
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
	bad[0][0] = spec.Tables[0].Rows
	if err := e.ValidateQuery(bad); err == nil {
		t.Error("out-of-range index: want error")
	}
	bad2 := randomQueries(spec, 1, 9)[0]
	bad2[2] = append(bad2[2], 0)
	if err := e.ValidateQuery(bad2); err == nil {
		t.Error("wrong lookup count: want error")
	}
}

// relaidQueries returns q's indices in every layout ValidateQuery must
// reject, each with the right shape and every index in range (the
// overlapping windows hold index 0, which every table has).
func relaidQueries(spec *model.Spec, q embedding.Query) map[string]embedding.Query {
	n := len(spec.Tables)
	layouts := map[string]embedding.Query{
		"separate slices":      make(embedding.Query, n),
		"tables reversed":      make(embedding.Query, n),
		"overlapping":          make(embedding.Query, n),
		"capped after packing": embedding.NewQuery(spec),
	}
	reversed, overlap := make([]int64, spec.NumLookups()), make([]int64, spec.NumLookups())
	end := len(reversed)
	for t := range spec.Tables {
		layouts["separate slices"][t] = append([]int64(nil), q[t]...)
		end -= len(q[t])
		layouts["tables reversed"][t] = reversed[end : end+len(q[t])]
		copy(layouts["tables reversed"][t], q[t])
		layouts["overlapping"][t] = overlap[:len(q[t])] // every window at offset 0, index 0
		c := layouts["capped after packing"]
		copy(c[t], q[t])
		c[t] = c[t][:len(c[t]):len(c[t])]
	}
	return layouts
}

// TestValidateQueryRejectsUnpackedLayouts holds every engine entry point to
// embedding.Query's layout: a query whose tables are not windows of one
// array, in table order, at their offsets, is rejected by its layout however
// valid its shape and indices. A query that shares its array with others
// (its windows at their offsets from q[0]) is accepted.
func TestValidateQueryRejectsUnpackedLayouts(t *testing.T) {
	for _, spec := range []*model.Spec{model.SmallProduction(), oddSpec()} {
		e := buildEngine(t, spec, Config{Precision: fixedpoint.Fixed16})
		q := randomQueries(spec, 1, 13)[0]
		for name, bad := range relaidQueries(spec, q) {
			err := e.ValidateQuery(bad)
			if err == nil || !strings.Contains(err.Error(), "one index array") {
				t.Errorf("%s %s: ValidateQuery = %v, want the layout error", spec.Name, name, err)
			}
			if _, err := e.InferOne(bad); err == nil {
				t.Errorf("%s %s: InferOne accepted it", spec.Name, name)
			}
			if _, err := e.Infer([]embedding.Query{q, bad}); err == nil {
				t.Errorf("%s %s: Infer accepted it", spec.Name, name)
			}
		}
		// Two queries carved from one array: the second's q[0] starts
		// mid-array, and offsets count from it.
		shared := make([]int64, 2*spec.NumLookups())
		var pair [2]embedding.Query
		for i := range pair {
			pair[i] = make(embedding.Query, len(spec.Tables))
			at := i * spec.NumLookups()
			for ti := range spec.Tables {
				pair[i][ti] = shared[at : at+len(q[ti])]
				copy(pair[i][ti], q[ti])
				at += len(q[ti])
			}
			if err := e.ValidateQuery(pair[i]); err != nil {
				t.Errorf("%s: query %d of a shared array: %v", spec.Name, i, err)
			}
		}
	}
}

// TestGeneratedQueriesValidate checks that the workload generator's queries
// pass ValidateQuery on random geometries: the generator and the engine agree
// on the layout, whatever the tables' lookup counts.
func TestGeneratedQueriesValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 8; i++ {
		spec := randomSpec(rng, fmt.Sprintf("gen-%d", i))
		e := buildEngine(t, spec, Config{Precision: fixedpoint.Fixed16})
		for _, dist := range []workload.Distribution{workload.Uniform, workload.Zipf} {
			g, err := workload.NewGenerator(spec, dist, int64(i))
			if err != nil {
				t.Fatal(err)
			}
			qs, err := g.Batch(8)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.validateBatch(qs); err != nil {
				t.Errorf("%s %v: %v", spec.Name, dist, err)
			}
		}
	}
}

// TestInferBatchConcurrent runs many batches through one shared engine from
// concurrent goroutines, each with a private scratch — the shared-engine
// path the serving worker pool relies on (run under -race).
func TestInferBatchConcurrent(t *testing.T) {
	spec := model.SmallProduction()
	e := buildEngine(t, spec, Config{Precision: fixedpoint.Fixed16})
	qs := randomQueries(spec, 16, 5)
	want, err := inferBatch(e, qs, nil)
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
				got, err := inferBatch(e, qs, &scratch)
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
