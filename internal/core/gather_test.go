package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"microrec/internal/fixedpoint"
	"microrec/internal/model"
)

// randomSpec generates a small random model: table counts, dims, lookup
// cadences, dense tails and tower shapes all vary, so the batched gather's
// merged physical tables, lookup rounds and GEMM tails are exercised across
// geometries no hand-written fixture would cover.
func randomSpec(rng *rand.Rand, name string) *model.Spec {
	nt := 3 + rng.Intn(5)
	tables := make([]model.TableSpec, nt)
	for i := range tables {
		tables[i] = model.TableSpec{
			ID:      i,
			Name:    fmt.Sprintf("%s-t%d", name, i),
			Rows:    int64(8 + rng.Intn(300)),
			Dim:     1 + rng.Intn(12),
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
	for i := 0; i < 4; i++ {
		specs = append(specs, randomSpec(rng, fmt.Sprintf("rand-%d", i)))
	}
	for si, spec := range specs {
		if err := spec.Validate(); err != nil {
			t.Fatalf("%s: invalid spec: %v", spec.Name, err)
		}
		f := SmallFP16().Precision
		if si%2 == 1 {
			f = SmallFP32().Precision
		}
		e := buildEngine(t, spec, ConfigFor(spec.Name, f), true)
		var scratch BatchScratch
		for _, b := range append([]int{3, 33}, windowBatches...) {
			qs := randomQueries(spec, b, int64(100*b))
			feats, err := e.GatherBatch(qs, &scratch)
			if err != nil {
				t.Fatalf("%s b=%d: %v", spec.Name, b, err)
			}
			for qi, q := range qs {
				want, err := e.Gather(q, nil)
				if err != nil {
					t.Fatal(err)
				}
				for k, v := range want {
					if got := feats.At(qi, k); got != f.Quantize(float64(v)) {
						t.Fatalf("%s %v b=%d query %d feature %d: batched %d, quantized gather %d",
							spec.Name, f, b, qi, k, got, f.Quantize(float64(v)))
					}
				}
			}
		}
	}
}

// TestInferBatchPropertyRandomSpecs is the end-to-end property test: across
// random model geometries and batch sizes, the batched gather + blocked GEMM
// datapath is bit-identical to per-query InferOne — with and without a live
// hot-row cache attached (the cache must never change predictions).
func TestInferBatchPropertyRandomSpecs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 6; trial++ {
		spec := randomSpec(rng, fmt.Sprintf("prop-%d", trial))
		cfg := ConfigFor(spec.Name, SmallFP16().Precision)
		if trial%2 == 1 {
			cfg.Precision = SmallFP32().Precision
		}
		cached := cfg
		cached.HotCacheBytes = 1 << 16
		plain := buildEngine(t, spec, cfg, true)
		withCache := buildEngine(t, spec, cached, true)
		if !withCache.HotCacheEnabled() {
			t.Fatal("hot cache not attached")
		}
		for _, b := range append([]int{5, 8, 31, 67}, windowBatches...) {
			qs := randomQueries(spec, b, int64(trial*1000+b))
			got, err := plain.InferBatch(qs, nil, nil)
			if err != nil {
				t.Fatalf("%s b=%d: %v", spec.Name, b, err)
			}
			gotCached, err := withCache.InferBatch(qs, nil, nil)
			if err != nil {
				t.Fatalf("%s b=%d cached: %v", spec.Name, b, err)
			}
			for i, q := range qs {
				want, err := plain.InferOne(q)
				if err != nil {
					t.Fatal(err)
				}
				if got[i] != want {
					t.Fatalf("%s b=%d query %d: batch %v, one-at-a-time %v", spec.Name, b, i, got[i], want)
				}
				if gotCached[i] != want {
					t.Fatalf("%s b=%d query %d: cached engine %v, want %v (cache must be transparent)",
						spec.Name, b, i, gotCached[i], want)
				}
			}
		}
		if info, ok := withCache.HotCache(); !ok || info.Hits+info.Misses == 0 {
			t.Fatalf("%s: cache saw no traffic (info=%+v ok=%v)", spec.Name, info, ok)
		}
	}
}

// TestGatherBatchSteadyStateAllocs pins the gather's allocations at both ends
// of the batch range: none. The gather is one walk on the calling goroutine at
// every batch size, and the window's index vector stays on its stack. The
// contract is also pinned, function by function, by the //microrec:noalloc
// table in the repo root's zeroalloc_test.go.
func TestGatherBatchSteadyStateAllocs(t *testing.T) {
	spec := model.SmallProduction()
	e := buildEngine(t, spec, SmallFP16(), true)
	var scratch BatchScratch
	for _, b := range []int{1, 64} {
		qs := randomQueries(spec, b, 4)
		if _, err := e.GatherBatch(qs, &scratch); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := e.GatherBatch(qs, &scratch); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("gather of %d: %v allocs per batch, want 0", b, allocs)
		}
	}
}

// TestHotCacheChargesRowsAtElementWidth checks that the live hot-row cache is
// charged the bytes a row occupies at the datapath's width — dim × 2 at
// Fixed16, dim × 4 at Fixed32 — so a cache sized in those bytes (a tiered
// engine's default, its hot budget) holds as many rows as the budget does.
func TestHotCacheChargesRowsAtElementWidth(t *testing.T) {
	spec := model.SmallProduction()
	for _, tc := range []struct {
		name      string
		precision fixedpoint.Format
	}{
		{"fp16", SmallFP16().Precision},
		{"fp32", SmallFP32().Precision},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := tc.precision
			cfg := ConfigFor(spec.Name, f)
			cfg.HotCacheBytes = 1 << 22
			e := buildEngine(t, spec, cfg, true)
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
			if _, err := e.GatherBatch(qs, nil); err != nil {
				t.Fatal(err)
			}
			info, _ := e.HotCache()
			if info.Entries != len(distinct) {
				t.Fatalf("cache holds %d rows, the batch read %d distinct ones", info.Entries, len(distinct))
			}
			if info.UsedBytes != want {
				t.Errorf("cache charged %d bytes for %d rows, want %d", info.UsedBytes, len(distinct), want)
			}
		})
	}
}

// TestGatherPlanWalksEveryTable checks the compiled gather plan: one
// sequence naming every physical table once, in index order, each with at
// least one block to read.
func TestGatherPlanWalksEveryTable(t *testing.T) {
	for _, spec := range []*model.Spec{model.SmallProduction(), model.LargeProduction(), oddSpec()} {
		e := buildEngine(t, spec, ConfigFor(spec.Name, SmallFP16().Precision), true)
		n := len(e.plan.Layout.Tables)
		if len(e.gplan.tables) != n || len(e.gplan.all) != n {
			t.Fatalf("%s: plan has %d tables and walks %d, layout has %d",
				spec.Name, len(e.gplan.tables), len(e.gplan.all), n)
		}
		for i, ti := range e.gplan.all {
			if ti != i {
				t.Fatalf("%s: position %d of the walk is table %d", spec.Name, i, ti)
			}
			if len(e.gplan.tables[ti]) == 0 {
				t.Errorf("%s: table %d has no blocks", spec.Name, ti)
			}
		}
	}
}

// TestGatherIgnoresGOMAXPROCS checks that nothing in the gather follows the
// host's core count: engines built and run under GOMAXPROCS 1 and 4 compile
// the same plan, gather the same bits and leave their hot-row caches with the
// same counters.
func TestGatherIgnoresGOMAXPROCS(t *testing.T) {
	spec := model.SmallProduction()
	cfg := SmallFP16()
	cfg.HotCacheBytes = 1 << 12
	qs := randomQueries(spec, 2*gatherWindow+3, 29)
	run := func(procs int) (*Engine, []int16, HotCacheInfo) {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		e := buildEngine(t, spec, cfg, true)
		var s BatchScratch
		if _, err := e.GatherBatch(qs, &s); err != nil {
			t.Fatal(err)
		}
		info, _ := e.HotCache()
		return e, append([]int16(nil), s.x16...), info
	}
	e1, x1, c1 := run(1)
	e4, x4, c4 := run(4)
	if fmt.Sprint(e1.gplan.all) != fmt.Sprint(e4.gplan.all) {
		t.Errorf("plans differ: %v under 1, %v under 4", e1.gplan.all, e4.gplan.all)
	}
	for i := range x1 {
		if x1[i] != x4[i] {
			t.Fatalf("plane word %d: %d under 1, %d under 4", i, x1[i], x4[i])
		}
	}
	if c1 != c4 {
		t.Errorf("cache %+v under 1, %+v under 4", c1, c4)
	}
}

// TestGatherBatchValidation checks the public GatherBatch rejects malformed
// batches with the failing query named.
func TestGatherBatchValidation(t *testing.T) {
	spec := model.SmallProduction()
	e := buildEngine(t, spec, SmallFP16(), true)
	if _, err := e.GatherBatch(nil, nil); err == nil {
		t.Error("empty batch: want error")
	}
	qs := randomQueries(spec, 3, 1)
	qs[2] = qs[2][:4]
	_, err := e.GatherBatch(qs, nil)
	if err == nil {
		t.Fatal("malformed query: want error")
	}
	if want := "query 2"; !contains(err.Error(), want) {
		t.Errorf("error %q should name %q", err, want)
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

// TestHotCacheConcurrentWorkers drives one shared engine with a live hot-row
// cache from concurrent goroutines mixing batched inference and stats reads —
// the serving worker-pool pattern — and checks predictions stay bit-identical
// throughout (run under -race in CI).
func TestHotCacheConcurrentWorkers(t *testing.T) {
	spec := model.SmallProduction()
	cfg := SmallFP16()
	cfg.HotCacheBytes = 1 << 18
	e := buildEngine(t, spec, cfg, true)
	qs := randomQueries(spec, 64, 17)
	want, err := e.InferBatch(qs, nil, nil)
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
				if _, err := e.InferBatchValidated(qs, preds, &scratch); err != nil {
					t.Errorf("worker: %v", err)
					return
				}
				for i := range preds {
					if preds[i] != want[i] {
						t.Errorf("worker diverged at query %d", i)
						return
					}
				}
				if info, ok := e.HotCache(); !ok || info.HitRate < 0 || info.HitRate > 1 {
					t.Errorf("hot cache snapshot %+v ok=%v", info, ok)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	info, ok := e.HotCache()
	if !ok {
		t.Fatal("no cache info")
	}
	if info.Hits == 0 || info.HitRate <= 0 {
		t.Errorf("repeated identical batches should hit the cache: %+v", info)
	}
}

// TestTimingIgnoresHotCache pins that the timing model prices lookups at the
// plan's cache-cold latency: a warm hot-row cache changes neither Timing nor
// Infer's report, which match an uncached engine's on the same plan.
func TestTimingIgnoresHotCache(t *testing.T) {
	spec := model.SmallProduction()
	cfg := SmallFP16()
	plain := buildEngine(t, spec, cfg, true)
	cfg.HotCacheBytes = 1 << 18
	e := buildEngine(t, spec, cfg, true)
	if e.LookupNS() != plain.LookupNS() {
		t.Fatalf("cached engine lookup %v, uncached %v", e.LookupNS(), plain.LookupNS())
	}
	qs := randomQueries(spec, 48, 5)
	for rep := 0; rep < 4; rep++ {
		if _, err := e.InferBatch(qs, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if info, ok := e.HotCache(); !ok || info.Hits == 0 {
		t.Fatalf("cache did not warm: %+v ok=%v", info, ok)
	}
	for _, items := range []int{1, 8, 48} {
		got, err := e.Timing(items)
		if err != nil {
			t.Fatal(err)
		}
		want, err := plain.Timing(items)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%d items: warm-cache timing %+v, uncached %+v", items, got, want)
		}
		if got.LookupNS != e.LookupNS() {
			t.Errorf("%d items: Timing prices lookups at %v, want LookupNS %v", items, got.LookupNS, e.LookupNS())
		}
	}
	got, err := e.Infer(qs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Infer(qs)
	if err != nil {
		t.Fatal(err)
	}
	if got.Timing != want.Timing {
		t.Errorf("Infer timing with a warm cache %+v, uncached %+v", got.Timing, want.Timing)
	}
}
