package core

import (
	"testing"

	"microrec/internal/cartesian"
	"microrec/internal/embedding"
	"microrec/internal/model"
)

func TestProductsAreMaterialized(t *testing.T) {
	// The small model's plan merges 5 pairs; the capacity-scaled products
	// are small enough that all of them materialise physically.
	spec := model.SmallProduction()
	e := buildEngine(t, spec, SmallFP16(), true)
	if got := e.MaterializedProducts(); got != 5 {
		t.Errorf("materialized products = %d, want 5 (Table 3's merge count)", got)
	}
	// Without Cartesian there is nothing to materialise.
	plain := buildEngine(t, spec, SmallFP16(), false)
	if got := plain.MaterializedProducts(); got != 0 {
		t.Errorf("plain engine materialized %d products", got)
	}
}

// TestConcurrentProductsMatchSerial builds the large model's fourteen
// products concurrently (under -race, the check that their builds share
// nothing writable) and holds each to a serial build from the same sources.
func TestConcurrentProductsMatchSerial(t *testing.T) {
	e := buildEngine(t, model.LargeProduction(), LargeFP16(), true)
	defer e.Close()
	if got := e.MaterializedProducts(); got != 14 {
		t.Fatalf("materialized products = %d, want 14 (Table 3's merge count)", got)
	}
	for pi, m := range e.products {
		if m == nil {
			continue
		}
		pt := e.plan.Layout.Tables[pi]
		srcs := make([]*embedding.Table, len(pt.Sources))
		for i, src := range pt.Sources {
			srcs[i], _ = e.store.Table(src.ID)
		}
		want, err := cartesian.MaterializeProduct(pt, srcs)
		if err != nil {
			t.Fatal(err)
		}
		for k := range want.Data {
			if m.Data[k] != want.Data[k] {
				t.Fatalf("product %s differs at %d", pt.Name(), k)
			}
		}
		want.Release()
	}
}

func TestMaterializedGatherMatchesVirtual(t *testing.T) {
	// Force the virtual fallback by clearing the materialised tables and
	// compare against the materialised path: they must agree bit-exactly.
	spec := model.SmallProduction()
	e := buildEngine(t, spec, SmallFP16(), true)
	if e.MaterializedProducts() == 0 {
		t.Fatal("no products materialised; test is vacuous")
	}
	virtual := buildEngine(t, spec, SmallFP16(), true)
	for i := range virtual.products {
		virtual.products[i] = nil
	}
	for _, q := range randomQueries(spec, 10, 99) {
		a, err := e.Gather(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := virtual.Gather(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("materialized and virtual gathers differ at %d", k)
			}
		}
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
