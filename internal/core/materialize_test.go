package core

import (
	"testing"

	"microrec/internal/memsim"
	"microrec/internal/model"
	"microrec/internal/offheap"
	"microrec/internal/placement"
)

// TestBuildMapsNothingBeyondParameters pins the engine's footprint at the
// benchmark's row cap: building production-large with Cartesian planning on
// maps no table memory beyond its parameters' own (the gather reads merged
// sources where they are), and Close on an engine that owns its parameters
// hands every mapped byte back.
func TestBuildMapsNothingBeyondParameters(t *testing.T) {
	spec, cfg := model.LargeProduction(), LargeFP16()
	before := offheap.MappedBytes()
	params, err := spec.Materialize(model.MaterializeOptions{Seed: 1, MaxRowsPerTable: 262144})
	if err != nil {
		t.Fatal(err)
	}
	tables := offheap.MappedBytes()
	if tables == before {
		t.Skip("no anonymous mappings on this platform")
	}
	plan, err := placement.Plan(spec, memsim.U280(cfg.OnChipBanks), placement.Options{EnableCartesian: true})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Layout.NumMerged() == 0 {
		t.Fatal("the plan merges no tables; test is vacuous")
	}
	e, err := Build(params, plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.OwnParameters()
	if grew := offheap.MappedBytes() - tables; grew != 0 {
		t.Errorf("Build mapped %d bytes beyond the parameters' %d", grew, tables-before)
	}
	if err := e.Close(); err != nil {
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
	e := buildEngine(t, spec, SmallFP16(), true)
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
	e := buildEngine(t, spec, SmallFP16(), true)
	qs := randomQueries(spec, 8, 7)
	qs[5][0] = []int64{spec.Tables[0].Rows + 10}
	if _, err := e.Infer(qs); err == nil {
		t.Error("bad query in batch: want error")
	}
}
