package core

import (
	"path/filepath"
	"testing"

	"microrec/internal/fixedpoint"
	"microrec/internal/model"
	"microrec/internal/offheap"
	"microrec/internal/tieredstore"
)

// TestBuildMapsNothingBeyondParameters pins the engine's footprint at the
// benchmark's row cap, on production-large: Materialize maps nothing; Build
// maps exactly the tables at the datapath's width (no float table) plus the parameter stream's checkpoints; an engine
// of the other width built from the same parameters adds exactly its own
// tables; a tiered engine keeps no table in DRAM at all; and Close hands
// every byte back — the checkpoints with the engine that owns the
// parameters. The checkpoints' size is what stays mapped once the two
// DRAM engines are closed.
func TestBuildMapsNothingBeyondParameters(t *testing.T) {
	spec := model.LargeProduction()
	before := offheap.MappedBytes()
	params, err := spec.Materialize(model.MaterializeOptions{Seed: 1, MaxRowsPerTable: 262144})
	if err != nil {
		t.Fatal(err)
	}
	if grew := offheap.MappedBytes() - before; grew != 0 {
		t.Errorf("Materialize mapped %d bytes", grew)
	}
	// tableBytes is what the tables map at an element width.
	tableBytes := func(width int64) (n int64) {
		for i, ts := range spec.Tables {
			elems := params.ActualRows[i] * int64(ts.Dim)
			if elems*width >= 1<<20 {
				n += elems * width
			}
		}
		return n
	}
	e16, err := Build(params, Config{Precision: fixedpoint.Fixed16})
	if err != nil {
		t.Fatal(err)
	}
	if tableBytes(2) == 0 {
		t.Skip("no anonymous mappings on this platform")
	}
	mapped16 := offheap.MappedBytes() - before
	e32, err := Build(params, Config{Precision: fixedpoint.Fixed32})
	if err != nil {
		t.Fatal(err)
	}
	mapped32 := offheap.MappedBytes() - before
	if err := e32.Close(); err != nil {
		t.Fatal(err)
	}
	// With both engines closed, what stays mapped is the checkpoints the
	// first Build's stream pass recorded.
	if err := e16.Close(); err != nil {
		t.Fatal(err)
	}
	checkpoints := offheap.MappedBytes() - before
	if checkpoints < 1<<20 {
		t.Fatalf("checkpoints hold %d bytes: below the mapping threshold, test is vacuous", checkpoints)
	}
	if want := tableBytes(2) + checkpoints; mapped16 != want {
		t.Errorf("Fixed16 Build mapped %d bytes, want tables %d + checkpoints %d", mapped16, tableBytes(2), checkpoints)
	}
	if want := tableBytes(2) + tableBytes(4) + checkpoints; mapped32 != want {
		t.Errorf("a Fixed32 engine beside it: %d bytes mapped, want %d", mapped32, want)
	}
	cfg := Config{Precision: fixedpoint.Fixed16}
	cfg.ColdTier = &tieredstore.Config{Path: filepath.Join(t.TempDir(), "cold.bin"), SweepEvery: -1}
	tiered, err := Build(params, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := offheap.MappedBytes() - before; got != checkpoints {
		t.Errorf("a tiered engine: %d bytes mapped, want the checkpoints' %d (no DRAM tables)", got, checkpoints)
	}
	tiered.OwnParameters()
	if err := tiered.Close(); err != nil {
		t.Fatal(err)
	}
	if left := offheap.MappedBytes() - before; left != 0 {
		t.Errorf("%d bytes stay mapped after Close", left)
	}
}

// TestParallelInferMatchesSequential covers chunks of one to several strips
// (600 queries: strips of inferStrip and a remainder on one or two workers).
func TestParallelInferMatchesSequential(t *testing.T) {
	spec := model.SmallProduction()
	e := buildEngine(t, spec, Config{Precision: fixedpoint.Fixed16})
	qs := randomQueries(spec, 600, 7)
	batch, err := e.Infer(qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		single, err := e.InferOne(q)
		if err != nil {
			t.Fatal(err)
		}
		if batch.Predictions[i] != single {
			t.Fatalf("query %d: parallel batch %v != sequential %v", i, batch.Predictions[i], single)
		}
	}
}

func TestParallelInferPropagatesErrors(t *testing.T) {
	spec := model.SmallProduction()
	e := buildEngine(t, spec, Config{Precision: fixedpoint.Fixed16})
	qs := randomQueries(spec, 8, 7)
	qs[5][0][0] = spec.Tables[0].Rows + 10
	if _, err := e.Infer(qs); err == nil {
		t.Error("bad query in batch: want error")
	}
}

// TestWidthsFromOneParameters builds engines of both widths from one
// Parameters, in both orders — so one fills its tables in the stream's one
// pass and the other refills them from the checkpoints — plus a tiered
// engine, whose cold file is written by a refill. Every gathered feature
// must be exactly the format's Quantize of the float the parameters
// regenerate for that row (Engine.Gather).
func TestWidthsFromOneParameters(t *testing.T) {
	spec := model.SmallProduction()
	qs := randomQueries(spec, 24, 11)
	for _, order := range [][]Config{{Config{Precision: fixedpoint.Fixed16}, Config{Precision: fixedpoint.Fixed32}}, {Config{Precision: fixedpoint.Fixed32}, Config{Precision: fixedpoint.Fixed16}}} {
		params, err := spec.Materialize(model.MaterializeOptions{Seed: 7, MaxRowsPerTable: 4096})
		if err != nil {
			t.Fatal(err)
		}
		tiered := order[0]
		tiered.ColdTier = &tieredstore.Config{Path: filepath.Join(t.TempDir(), "cold.bin"), SweepEvery: -1}
		for _, cfg := range append(order, tiered) {
			e, err := Build(params, cfg)
			if err != nil {
				t.Fatal(err)
			}
			f := cfg.Precision
			var s BatchScratch
			if err := gatherBatch(e, qs, &s); err != nil {
				t.Fatal(err)
			}
			for qi, q := range qs {
				floats, err := e.Gather(q, nil)
				if err != nil {
					t.Fatal(err)
				}
				for k, v := range floats {
					if got, want := featureAt(e, &s, qi, k), f.Quantize(float64(v)); got != want {
						t.Fatalf("%d-bit (tiered %v): query %d feature %d = %d, Quantize(%v) = %d",
							f.Bits, cfg.ColdTier != nil, qi, k, got, v, want)
					}
				}
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
		}
		params.Release()
	}
}
