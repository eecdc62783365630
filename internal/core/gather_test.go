package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"microrec/internal/embedding"
	"microrec/internal/fixedpoint"
	"microrec/internal/hotcache"
	"microrec/internal/model"
)

// specDims are the embedding dims randomSpec draws from: every dim whose row
// is one of moveRows' fixed sizes at 2 or 4 bytes a value, and dims between
// them whose rows take its copy fallback at both widths.
var specDims = []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 128}

// randomSpec generates a small random model: table counts, dims, lookup
// cadences, dense tails and tower shapes all vary, so the batched gather's
// merged physical tables, lookup rounds, row moves and GEMM tails are
// exercised across geometries no hand-written fixture would cover.
func randomSpec(rng *rand.Rand, name string) *model.Spec {
	nt := 3 + rng.Intn(5)
	tables := make([]model.TableSpec, nt)
	for i := range tables {
		tables[i] = model.TableSpec{
			ID:      i,
			Name:    fmt.Sprintf("%s-t%d", name, i),
			Rows:    int64(8 + rng.Intn(300)),
			Dim:     specDims[rng.Intn(len(specDims))],
			Lookups: 1 + rng.Intn(3),
		}
	}
	nh := 1 + rng.Intn(3)
	hidden := make([]int, nh)
	for i := range hidden {
		hidden[i] = 5 + rng.Intn(36)
	}
	return &model.Spec{
		Name:     name,
		Tables:   tables,
		DenseDim: rng.Intn(7),
		Hidden:   hidden,
	}
}

// TestGatherBatchMatchesGather checks that the batched table-major gather
// produces, for every query and feature position, exactly the quantized
// value of the per-query float Gather — the bit-identity contract the whole
// batched datapath rests on — at both plane widths.
func TestGatherBatchMatchesGather(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	specs := []*model.Spec{model.SmallProduction(), oddSpec()}
	for i := 0; i < 14; i++ {
		specs = append(specs, randomSpec(rng, fmt.Sprintf("rand-%d", i)))
	}
	moves := rowMoves{}
	for si, spec := range specs {
		if err := spec.Validate(); err != nil {
			t.Fatalf("%s: invalid spec: %v", spec.Name, err)
		}
		f := fixedpoint.Fixed16
		if si%2 == 1 {
			f = fixedpoint.Fixed32
		}
		moves.add(spec, f.Bits)
		e := buildEngine(t, spec, Config{Precision: f})
		var scratch BatchScratch
		for _, b := range append([]int{3, 33}, windowBatches...) {
			qs := randomQueries(spec, b, int64(100*b))
			if err := gatherBatch(e, qs, &scratch); err != nil {
				t.Fatalf("%s b=%d: %v", spec.Name, b, err)
			}
			for qi, q := range qs {
				want, err := e.Gather(q, nil)
				if err != nil {
					t.Fatal(err)
				}
				for k, v := range want {
					if got := featureAt(e, &scratch, qi, k); got != f.Quantize(float64(v)) {
						t.Fatalf("%s %v b=%d query %d feature %d: batched %d, quantized gather %d",
							spec.Name, f, b, qi, k, got, f.Quantize(float64(v)))
					}
				}
			}
		}
	}
	moves.check(t)
}

// TestInferBatchPropertyRandomSpecs is the end-to-end property test: across
// random model geometries and batch sizes, each at both widths, the batched
// gather + blocked GEMM datapath is bit-identical to per-query InferOne — from
// DRAM tables and from an all-cold tiered store that records every read in
// its frequency window (neither may change predictions).
func TestInferBatchPropertyRandomSpecs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	moves := rowMoves{}
	for trial := 0; trial < 10; trial++ {
		spec := randomSpec(rng, fmt.Sprintf("prop-%d", trial))
		for _, f := range []fixedpoint.Format{fixedpoint.Fixed16, fixedpoint.Fixed32} {
			name, cfg := fmt.Sprintf("%s/fixed%d", spec.Name, f.Bits), Config{Precision: f}
			moves.add(spec, f.Bits)
			plain := buildEngine(t, spec, cfg)
			tiered := buildEngine(t, spec, windowTestConfig(cfg.Precision, 1<<16))
			defer tiered.Close()
			for _, b := range append([]int{5, 8, 31, 67}, windowBatches...) {
				qs := randomQueries(spec, b, int64(trial*1000+b))
				got, err := inferBatch(plain, qs, nil)
				if err != nil {
					t.Fatalf("%s b=%d: %v", name, b, err)
				}
				gotTiered, err := inferBatch(tiered, qs, nil)
				if err != nil {
					t.Fatalf("%s b=%d tiered: %v", name, b, err)
				}
				for i, q := range qs {
					want, err := plain.InferOne(q)
					if err != nil {
						t.Fatal(err)
					}
					if got[i] != want {
						t.Fatalf("%s b=%d query %d: batch %v, one-at-a-time %v", name, b, i, got[i], want)
					}
					if gotTiered[i] != want {
						t.Fatalf("%s b=%d query %d: tiered engine %v, want %v (the tier must be transparent)",
							name, b, i, gotTiered[i], want)
					}
				}
			}
			if w := tiered.Tier().Snapshot().Window; w.Hits+w.Misses == 0 {
				t.Fatalf("%s: window saw no traffic (%+v)", name, w)
			}
		}
	}
	moves.check(t)
}

// TestGatherBatchSteadyStateAllocs pins the gather's allocations at both ends
// of the batch range: none. The gather is one walk on the calling goroutine at
// every batch size, and the window's index vector stays on its stack. The
// contract is also pinned, function by function, by the //microrec:noalloc
// table in the repo root's zeroalloc_test.go.
func TestGatherBatchSteadyStateAllocs(t *testing.T) {
	spec := model.SmallProduction()
	e := buildEngine(t, spec, Config{Precision: fixedpoint.Fixed16})
	var scratch BatchScratch
	for _, b := range []int{1, 64} {
		qs := randomQueries(spec, b, 4)
		if err := gatherBatch(e, qs, &scratch); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if err := gatherBatch(e, qs, &scratch); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("gather of %d: %v allocs per batch, want 0", b, allocs)
		}
	}
}

// TestHotCacheChargesRowsAtElementWidth checks that a tiered engine's
// frequency window is charged the bytes a row occupies at the datapath's
// width — dim × 2 at Fixed16, dim × 4 at Fixed32 — so a window sized in those
// bytes (by default the hot budget) holds as many rows as the budget does.
func TestHotCacheChargesRowsAtElementWidth(t *testing.T) {
	spec := model.SmallProduction()
	for _, tc := range []struct {
		name      string
		precision fixedpoint.Format
	}{
		{"fp16", fixedpoint.Fixed16},
		{"fp32", fixedpoint.Fixed32},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := tc.precision
			e := buildEngine(t, spec, windowTestConfig(f, 1<<22))
			defer e.Close()
			qs := randomQueries(spec, 8, 13)
			type key struct {
				src int
				row int64
			}
			distinct := make(map[key]bool)
			var want int64
			for _, q := range qs {
				for src, idxs := range q {
					for _, idx := range idxs {
						k := key{src, idx % e.params.ActualRows[src]}
						if !distinct[k] {
							distinct[k] = true
							want += int64(spec.Tables[src].Dim * f.Bits / 8)
						}
					}
				}
			}
			if err := gatherBatch(e, qs, &BatchScratch{}); err != nil {
				t.Fatal(err)
			}
			w := e.Tier().Snapshot().Window
			if w.Entries != len(distinct) {
				t.Fatalf("window holds %d rows, the batch read %d distinct ones", w.Entries, len(distinct))
			}
			if w.UsedBytes != want {
				t.Errorf("window charged %d bytes for %d rows, want %d", w.UsedBytes, len(distinct), want)
			}
		})
	}
}

// TestGatherPlanWalksEveryTable checks the compiled gather plan: every
// table once, in spec order, each with one block per lookup round reading
// that table, at consecutive offsets of a query's index array.
func TestGatherPlanWalksEveryTable(t *testing.T) {
	for _, spec := range []*model.Spec{model.SmallProduction(), model.LargeProduction(), oddSpec()} {
		e := buildEngine(t, spec, Config{Precision: fixedpoint.Fixed16})
		if n := len(spec.Tables); len(e.gplan.tables) != n {
			t.Fatalf("%s: plan has %d tables, spec has %d", spec.Name, len(e.gplan.tables), n)
		}
		at := 0
		for ti, blocks := range e.gplan.tables {
			if len(blocks) != spec.Tables[ti].Lookups {
				t.Errorf("%s: table %d has %d blocks, %d lookups", spec.Name, ti, len(blocks), spec.Tables[ti].Lookups)
			}
			for r, blk := range blocks {
				if blk.srcID != ti || blk.at != at {
					t.Errorf("%s: table %d block %d reads table %d index %d, want index %d", spec.Name, ti, r, blk.srcID, blk.at, at)
				}
				at++
			}
		}
	}
}

// TestGatherIgnoresGOMAXPROCS checks that nothing in the gather follows the
// host's core count: engines built and run under GOMAXPROCS 1 and 4 compile
// the same plan, gather the same bits and leave their tiers' frequency
// windows with the same counters.
func TestGatherIgnoresGOMAXPROCS(t *testing.T) {
	spec := model.SmallProduction()
	cfg := windowTestConfig(fixedpoint.Fixed16, 1<<12)
	qs := randomQueries(spec, 2*gatherWindow+3, 29)
	run := func(procs int) (*Engine, []int16, hotcache.Stats) {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		e := buildEngine(t, spec, cfg)
		defer e.Close()
		var s BatchScratch
		if err := gatherBatch(e, qs, &s); err != nil {
			t.Fatal(err)
		}
		return e, append([]int16(nil), s.x16...), e.Tier().Window().Stats()
	}
	e1, x1, c1 := run(1)
	e4, x4, c4 := run(4)
	if fmt.Sprint(e1.gplan.tables) != fmt.Sprint(e4.gplan.tables) {
		t.Errorf("plans differ: %v under 1, %v under 4", e1.gplan.tables, e4.gplan.tables)
	}
	for i := range x1 {
		if x1[i] != x4[i] {
			t.Fatalf("plane word %d: %d under 1, %d under 4", i, x1[i], x4[i])
		}
	}
	if c1 != c4 {
		t.Errorf("window %+v under 1, %+v under 4", c1, c4)
	}
}

// TestInferBatchErrors checks Infer's batch contract: an empty batch is
// refused, and a batch holding one malformed query is refused whole, with
// the failing query named, whatever ValidateQuery found wrong with it.
func TestInferBatchErrors(t *testing.T) {
	spec := model.SmallProduction()
	e := buildEngine(t, spec, Config{Precision: fixedpoint.Fixed16})
	t.Run("empty batch", func(t *testing.T) {
		if _, err := e.Infer(nil); err == nil {
			t.Error("want error")
		}
	})
	for name, corrupt := range map[string]func(q embedding.Query) embedding.Query{
		"wrong table count":  func(q embedding.Query) embedding.Query { return q[:5] },
		"index out of range": func(q embedding.Query) embedding.Query { q[0][0] = spec.Tables[0].Rows; return q },
		"wrong lookup count": func(q embedding.Query) embedding.Query { q[2] = q[2][:0]; return q },
		"unpacked layout": func(q embedding.Query) embedding.Query {
			q[3] = append([]int64(nil), q[3]...)
			return q
		},
	} {
		t.Run(name, func(t *testing.T) {
			qs := randomQueries(spec, 3, 1)
			qs[1] = corrupt(qs[1])
			res, err := e.Infer(qs)
			if err == nil {
				t.Fatal("want error")
			}
			if res != nil {
				t.Errorf("predictions returned for a refused batch: %v", res.Predictions)
			}
			if want := "query 1"; !contains(err.Error(), want) {
				t.Errorf("error %q should name %q", err, want)
			}
		})
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestHotCacheConcurrentWorkers drives one shared tiered engine from
// concurrent goroutines mixing batched inference and stats reads of its
// frequency window — the serving worker-pool pattern — and checks predictions
// stay bit-identical throughout (run under -race in CI).
func TestHotCacheConcurrentWorkers(t *testing.T) {
	spec := model.SmallProduction()
	e := buildEngine(t, spec, windowTestConfig(fixedpoint.Fixed16, 1<<18))
	defer e.Close()
	qs := randomQueries(spec, 64, 17)
	want, err := inferBatch(e, qs, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			var scratch BatchScratch
			preds := make([]float32, len(qs))
			for rep := 0; rep < 5; rep++ {
				e.inferBatchValidated(qs, preds, &scratch)
				for i := range preds {
					if preds[i] != want[i] {
						t.Errorf("worker diverged at query %d", i)
						return
					}
				}
				if w := e.Tier().Snapshot().Window; w.HitRate < 0 || w.HitRate > 1 {
					t.Errorf("window snapshot %+v", w)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	if w := e.Tier().Snapshot().Window; w.Hits == 0 || w.HitRate <= 0 {
		t.Errorf("repeated identical batches should hit the window: %+v", w)
	}
}
