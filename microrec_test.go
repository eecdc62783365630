package microrec_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"microrec"
)

func TestQuickstartFlow(t *testing.T) {
	spec := microrec.SmallProductionModel()
	eng, err := microrec.NewEngine(spec, microrec.EngineOptions{Seed: 1, MaxRowsPerTable: 128})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := microrec.NewGenerator(spec, microrec.Uniform, 42)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := gen.Batch(8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Infer(queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Predictions) != 8 {
		t.Fatalf("predictions = %d", len(res.Predictions))
	}
	for _, p := range res.Predictions {
		if p < 0 || p > 1 {
			t.Errorf("CTR %v outside [0,1]", p)
		}
	}
}

func TestEngineOptionsPrecision(t *testing.T) {
	spec := microrec.SmallProductionModel()
	e16, err := microrec.NewEngine(spec, microrec.EngineOptions{Seed: 1, MaxRowsPerTable: 64})
	if err != nil {
		t.Fatal(err)
	}
	e32, err := microrec.NewEngine(spec, microrec.EngineOptions{
		Seed: 1, MaxRowsPerTable: 64, Precision: microrec.Fixed32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if e16.Config().Precision.Bits != 16 || e32.Config().Precision.Bits != 32 {
		t.Error("precision option not honored")
	}
}

func TestAcceleratorModelOptions(t *testing.T) {
	spec := microrec.SmallProductionModel()
	model := func(opts microrec.AcceleratorOptions) *microrec.AcceleratorModel {
		t.Helper()
		m, err := microrec.NewAcceleratorModel(spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	with, without := model(microrec.AcceleratorOptions{}), model(microrec.AcceleratorOptions{DisableCartesian: true})
	if with.Plan.Layout.AccessesPerInference() >= without.Plan.Layout.AccessesPerInference() {
		t.Error("Cartesian plan does not reduce accesses")
	}
	if with.LookupNS() >= without.LookupNS() {
		t.Errorf("Cartesian lookup %.0f ns >= plain %.0f ns", with.LookupNS(), without.LookupNS())
	}
	if lpt := model(microrec.AcceleratorOptions{UseLPTAllocator: true}); lpt.LookupNS() > with.LookupNS() {
		t.Errorf("LPT allocator lookup %.0f ns > round-robin %.0f ns", lpt.LookupNS(), with.LookupNS())
	}
	// fp32 runs at a different clock per Table 6.
	if fp32 := model(microrec.AcceleratorOptions{Precision: microrec.Fixed32}); fp32.Config.ClockMHz == with.Config.ClockMHz {
		t.Error("fp16/fp32 clocks should differ (Table 6)")
	}
	rep, err := with.Timing(8)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Items != 8 || rep.LatencyNS <= 0 || rep.ThroughputItemsPerSec <= 0 {
		t.Errorf("timing report degenerate: %+v", rep)
	}
}

func TestNewEngineFromParamsSharesTables(t *testing.T) {
	spec := microrec.SmallProductionModel()
	params, err := spec.Materialize(microrec.MaterializeOpts{Seed: 1, MaxRowsPerTable: 64})
	if err != nil {
		t.Fatal(err)
	}
	e16, err := microrec.NewEngineFromParams(params, microrec.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e32, err := microrec.NewEngineFromParams(params, microrec.EngineOptions{Precision: microrec.Fixed32})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := microrec.NewGenerator(spec, microrec.Uniform, 9)
	if err != nil {
		t.Fatal(err)
	}
	q := gen.Next()
	a, err := e16.ReferenceOne(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e32.ReferenceOne(q)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("shared-parameter engines disagree on the float reference: %v vs %v", a, b)
	}
}

// TestEngineCloseFreesOnlyWhatItOwns pins the ownership rule of the memory
// that lives outside the Go heap (rows are capped high enough here that most
// tables do): every engine owns its tables at its own width, so closing one
// leaves every other engine built from the same parameters intact, and the
// parameters' checkpoints too — their rows stay readable until Release
// drops them; an engine from NewEngine owns its parameters and closes twice
// harmlessly.
func TestEngineCloseFreesOnlyWhatItOwns(t *testing.T) {
	spec := microrec.SmallProductionModel()
	const rows = 16384
	params, err := spec.Materialize(microrec.MaterializeOpts{Seed: 1, MaxRowsPerTable: rows})
	if err != nil {
		t.Fatal(err)
	}
	e16, err := microrec.NewEngineFromParams(params, microrec.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e32, err := microrec.NewEngineFromParams(params, microrec.EngineOptions{Precision: microrec.Fixed32})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := microrec.NewGenerator(spec, microrec.Uniform, 9)
	if err != nil {
		t.Fatal(err)
	}
	q := gen.Next()
	want, err := e32.InferOne(q)
	if err != nil {
		t.Fatal(err)
	}
	want16, err := e16.InferOne(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := e16.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := e32.InferOne(q)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("after closing a sibling engine: prediction %v, want %v", got, want)
	}
	if err := e32.Close(); err != nil {
		t.Fatal(err)
	}
	for i := range spec.Tables {
		row, err := params.Row(i, params.ActualRows[i]-1)
		if err != nil || row[len(row)-1] < -1 || row[len(row)-1] >= 1 {
			t.Fatalf("table %d unreadable after both engines closed: %v", i, err)
		}
	}
	params.Release()
	params.Release()
	if _, err := params.Row(0, 0); err == nil {
		t.Error("rows still readable after Release")
	}

	own, err := microrec.NewEngine(spec, microrec.EngineOptions{Seed: 1, MaxRowsPerTable: rows})
	if err != nil {
		t.Fatal(err)
	}
	// Same seed and cap, so the engine materialised the same parameters.
	if owned, err := own.InferOne(q); err != nil || owned != want16 {
		t.Fatalf("owning engine: prediction %v (%v), want %v", owned, err, want16)
	}
	if err := own.Close(); err != nil {
		t.Fatal(err)
	}
	if err := own.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestServerPublicSurface drives the batched serving subsystem through the
// public API: concurrent Submits coalesce into micro-batches whose
// predictions match the engine exactly, stats populate, and Close drains.
func TestServerPublicSurface(t *testing.T) {
	spec := microrec.SmallProductionModel()
	eng, err := microrec.NewEngine(spec, microrec.EngineOptions{Seed: 1, MaxRowsPerTable: 128})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := microrec.NewServer(eng, microrec.ServerOptions{
		Batching: microrec.BatchingOptions{MaxBatch: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := microrec.NewGenerator(spec, microrec.Zipf, 13)
	if err != nil {
		t.Fatal(err)
	}
	const n = 24
	queries := make([]microrec.Query, n)
	for i := range queries {
		queries[i] = gen.Next()
	}
	var wg sync.WaitGroup
	results := make([]microrec.ServeResult, n)
	errs := make([]error, n)
	for i := range queries {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = srv.Submit(context.Background(), queries[i])
		}(i)
	}
	wg.Wait()
	for i := range results {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		want, err := eng.InferOne(queries[i])
		if err != nil {
			t.Fatal(err)
		}
		if results[i].CTR != want {
			t.Errorf("query %d: served CTR %v, engine %v", i, results[i].CTR, want)
		}
		if results[i].BatchSize < 1 || results[i].BatchSize > 8 {
			t.Errorf("query %d: batch size %d", i, results[i].BatchSize)
		}
	}
	st := srv.Stats()
	if st.Queries != n || st.LatencyUS.P99 <= 0 || st.BatchOccupancy <= 0 {
		t.Errorf("stats = %+v", st)
	}
	if err := srv.ValidateSLA(time.Second); err != nil {
		t.Errorf("ValidateSLA: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(context.Background(), queries[0]); err != microrec.ErrServerClosed {
		t.Errorf("submit after close = %v, want ErrServerClosed", err)
	}
}
