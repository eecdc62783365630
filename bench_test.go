// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each BenchmarkTableN / BenchmarkFigureN runs the corresponding experiment
// and reports the headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// prints the same rows/series the paper reports (see EXPERIMENTS.md for the
// recorded paper-vs-measured comparison). Wall-clock benchmarks of the real
// engines follow at the bottom.
package microrec_test

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"microrec"
	"microrec/internal/experiments"
	"microrec/internal/kernels"
)

var sinkTables interface{}

// benchExperiment runs one experiment repeatedly and keeps the result alive.
func benchExperiment(b *testing.B, name string, items int) {
	b.Helper()
	r, err := experiments.Find(name)
	if err != nil {
		b.Fatal(err)
	}
	opts := experiments.Options{Items: items, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables, err := r.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		sinkTables = tables
	}
}

// BenchmarkFigure3 regenerates Figure 3 (embedding-layer share of CPU
// inference latency).
func BenchmarkFigure3(b *testing.B) { benchExperiment(b, "fig3", 1000) }

// BenchmarkTable2 regenerates Table 2 (end-to-end inference, CPU vs MicroRec)
// and reports the small-model fp16 headline numbers as custom metrics.
func BenchmarkTable2(b *testing.B) {
	sum, err := experiments.Table2Summary(experiments.Options{Items: 4000})
	if err != nil {
		b.Fatal(err)
	}
	small := sum["production-small"][16]
	b.ReportMetric(small.FPGAItemsPerS, "items/s")
	b.ReportMetric(small.FPGALatencyUS, "µs/item")
	b.ReportMetric(small.Speedup[2048], "speedup@B2048")
	benchExperiment(b, "table2", 2000)
}

// BenchmarkTable3 regenerates Table 3 (Cartesian benefit/overhead).
func BenchmarkTable3(b *testing.B) {
	rows, err := experiments.Table3Rows(experiments.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range rows {
		if r.Model == "production-small" && r.Cartesian {
			b.ReportMetric(r.LatencyPct, "latency%small")
			b.ReportMetric(r.StoragePct, "storage%small")
		}
	}
	benchExperiment(b, "table3", 1000)
}

// BenchmarkTable4 regenerates Table 4 (embedding-layer lookup performance)
// and reports the headline 13.8x-class speedup.
func BenchmarkTable4(b *testing.B) {
	res, err := experiments.Table4Results(experiments.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range res {
		if r.Model == "production-small" {
			b.ReportMetric(r.Speedup["hbm+cartesian"][2048], "speedup@B2048")
			b.ReportMetric(r.CartesianNS, "lookup-ns")
		}
	}
	benchExperiment(b, "table4", 1000)
}

// BenchmarkTable5 regenerates Table 5 (Facebook DLRM-RMC2 lookup speedups).
func BenchmarkTable5(b *testing.B) {
	cells, err := experiments.Table5Cells(experiments.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(cells[0].Speedup, "best-speedup")
	b.ReportMetric(cells[len(cells)-1].Speedup, "worst-speedup")
	benchExperiment(b, "table5", 1000)
}

// BenchmarkFigure7 regenerates Figure 7 (throughput vs lookup rounds).
func BenchmarkFigure7(b *testing.B) {
	points, err := experiments.Figure7Series(experiments.Options{Items: 2000}, 8)
	if err != nil {
		b.Fatal(err)
	}
	bp := experiments.Figure7Breakpoint(points)
	b.ReportMetric(float64(bp["production-small"]), "rounds-small")
	b.ReportMetric(float64(bp["production-large"]), "rounds-large")
	benchExperiment(b, "fig7", 2000)
}

// BenchmarkTable6 regenerates Table 6 (FPGA resource utilisation).
func BenchmarkTable6(b *testing.B) { benchExperiment(b, "table6", 1000) }

// BenchmarkAppendixAXI regenerates the appendix AXI-width trade-off.
func BenchmarkAppendixAXI(b *testing.B) { benchExperiment(b, "axi", 1000) }

// BenchmarkAppendixCost regenerates the appendix cost comparison.
func BenchmarkAppendixCost(b *testing.B) { benchExperiment(b, "cost", 1000) }

// BenchmarkAblationAllocator regenerates ablation A1 (allocation strategies,
// heuristic optimality).
func BenchmarkAblationAllocator(b *testing.B) { benchExperiment(b, "allocator", 1000) }

// BenchmarkAblationQuant regenerates ablation A2 (fixed-point error).
func BenchmarkAblationQuant(b *testing.B) { benchExperiment(b, "quant", 1000) }

// ---- Wall-clock benchmarks of the real engines ----

// BenchmarkEngineInferOne measures the functional fixed-point datapath on
// one query of the small production model.
func BenchmarkEngineInferOne(b *testing.B) {
	spec := microrec.SmallProductionModel()
	eng, err := microrec.NewEngine(spec, microrec.EngineOptions{Seed: 1, MaxRowsPerTable: 256})
	if err != nil {
		b.Fatal(err)
	}
	gen, err := microrec.NewGenerator(spec, microrec.Uniform, 1)
	if err != nil {
		b.Fatal(err)
	}
	q := gen.Next()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.InferOne(q); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Gather benchmarks: per-query float walk vs the batched gather ----

// BenchmarkGatherOne measures the per-query float reference gather: one
// query's rows, each regenerated from the parameters' stream, into the
// concatenated feature vector.
func BenchmarkGatherOne(b *testing.B) {
	eng, qs := serveBenchSetup(b)
	dst := make([]float32, eng.Spec().FeatureLen())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Gather(qs[i%len(qs)], dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGatherBatch measures the batched gather datapath at batch 64 —
// GatherIntoPlane, the stage call the serving drains make: every table's
// blocks across the whole batch, walked on the calling goroutine a window of
// rows at a time, each row moved at the datapath's width into the
// fixed-point feature plane. One op is a 64-query batch; it
// reports 0 allocs/op.
//
// Every row of serveBenchSetup's 256-row tables sits in L1; see
// BenchmarkGatherMiss for tables a lookup can miss in.
func BenchmarkGatherBatch(b *testing.B) {
	eng, qs := serveBenchSetup(b)
	batch := qs[:64]
	for _, q := range batch {
		if err := eng.ValidateQuery(q); err != nil {
			b.Fatal(err)
		}
	}
	var plane microrec.BatchScratch
	eng.EnsurePlane(&plane, len(batch))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.GatherIntoPlane(batch, &plane)
	}
	b.ReportMetric(float64(64*b.N)/b.Elapsed().Seconds(), "queries/s")
	b.ReportMetric(b.Elapsed().Seconds()*1e9/float64(64*b.N), "ns/query")
}

// BenchmarkGatherMiss is BenchmarkGatherBatch where a lookup can miss the
// cache. serveBenchSetup's 256-row tables keep every row in L1, so the
// benchmark above times the loop's instructions and cannot see a change to
// how the gather waits for memory. Here tables are built at the repository
// benchmark's 262 144-row cap — the small model under Zipf indices (mostly
// cache hits, a miss every few lookups) and the large model under uniform
// ones (every lookup a miss) — and a pool of 4 096 queries is walked at batch
// 1 and batch 64. small-zipf-tiered is the small model as the repository
// benchmark's tiered_routed serves it: Fixed32, the tables in a tiered store
// (hot budget a quarter of them) with a 256 KiB frequency window. Its pool is
// gathered once and placed by one SweepNow before the clock starts, so the
// hot tier holds the rows the window saw most; the store's background sweep
// keeps running while it is timed, as it does in a server, and its
// allocations are the allocs/op a long run of that case reports (the gather
// allocates nothing: see zeroalloc_test.go). Reports ns/lookup.
func BenchmarkGatherMiss(b *testing.B) {
	for _, m := range []struct {
		name string
		spec *microrec.Spec
		zipf bool
		opts microrec.EngineOptions
	}{
		{"small-zipf", microrec.SmallProductionModel(), true, microrec.EngineOptions{}},
		{"large-uniform", microrec.LargeProductionModel(), false, microrec.EngineOptions{}},
		{"small-zipf-tiered", microrec.SmallProductionModel(), true,
			microrec.EngineOptions{Precision: microrec.Fixed32, ColdTier: true, HotCacheBytes: 262144}},
	} {
		b.Run(m.name, func(b *testing.B) {
			opts := m.opts
			opts.Seed, opts.MaxRowsPerTable = 1, 262144
			eng, err := microrec.NewEngine(m.spec, opts)
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			dist := microrec.Uniform
			if m.zipf {
				dist = microrec.Zipf
			}
			gen, err := microrec.NewGenerator(m.spec, dist, 11)
			if err != nil {
				b.Fatal(err)
			}
			pool := make([]microrec.Query, 4096)
			for i := range pool {
				pool[i] = gen.Next()
				if err := eng.ValidateQuery(pool[i]); err != nil {
					b.Fatal(err)
				}
			}
			if tier := eng.Tier(); tier != nil {
				var plane microrec.BatchScratch
				eng.EnsurePlane(&plane, 64)
				for lo := 0; lo < len(pool); lo += 64 {
					eng.GatherIntoPlane(pool[lo:lo+64], &plane)
				}
				tier.SweepNow()
			}
			for _, size := range []int{1, 64} {
				b.Run(fmt.Sprintf("b=%d", size), func(b *testing.B) {
					var plane microrec.BatchScratch
					eng.EnsurePlane(&plane, size)
					batches := len(pool) / size
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						lo := i % batches * size
						eng.GatherIntoPlane(pool[lo:lo+size], &plane)
					}
					b.ReportMetric(b.Elapsed().Seconds()*1e9/float64(b.N*size*m.spec.NumLookups()), "ns/lookup")
				})
			}
		})
	}
}

// ---- Dense-stage benchmark: the FC tower on a gathered plane ----

// BenchmarkDenseStage times the dense stage alone — DenseFromPlane and
// TailFromPlane, the two stage calls after the gather — on production-small
// at both datapath widths and at the batch sizes where the layer walk
// changes: one query, the light-load ragged batch, exactly one strip of
// kernels.StripRows rows, one strip plus a row and the serving batch. The
// plane is gathered once; each iteration runs the whole FC tower in place
// over it (the kernels' cost does not depend on the values they read).
// Reports ns/query and MACs/ns, logical multiply-accumulates over the
// tower's layer shapes, the unit BenchmarkGEMMKernel and BenchmarkPeak use.
func BenchmarkDenseStage(b *testing.B) {
	spec := microrec.SmallProductionModel()
	var macs float64
	for _, d := range spec.LayerDims() {
		macs += float64(d[0] * d[1])
	}
	for _, f := range []microrec.Format{microrec.Fixed16, microrec.Fixed32} {
		eng, err := microrec.NewEngine(spec, microrec.EngineOptions{Precision: f, Seed: 1, MaxRowsPerTable: 256})
		if err != nil {
			b.Fatal(err)
		}
		gen, err := microrec.NewGenerator(spec, microrec.Zipf, 11)
		if err != nil {
			b.Fatal(err)
		}
		for _, size := range []int{1, 6, kernels.StripRows, kernels.StripRows + 1, 64} {
			b.Run(fmt.Sprintf("%d-bit/b=%d", f.Bits, size), func(b *testing.B) {
				batch := make([]microrec.Query, size)
				for i := range batch {
					batch[i] = gen.Next()
					if err := eng.ValidateQuery(batch[i]); err != nil {
						b.Fatal(err)
					}
				}
				var plane microrec.BatchScratch
				eng.EnsurePlane(&plane, size)
				eng.GatherIntoPlane(batch, &plane)
				dst := make([]float32, size)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					eng.DenseFromPlane(size, &plane)
					eng.TailFromPlane(size, &plane, dst)
				}
				ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N*size)
				b.ReportMetric(ns, "ns/query")
				b.ReportMetric(macs/ns, "MACs/ns")
			})
		}
		eng.Close()
	}
}

// ---- Serving benchmarks: batched vs per-query /predict paths ----

// serveBenchSetup builds the small-model engine and a deterministic query
// pool shared by the serving benchmarks.
func serveBenchSetup(b *testing.B) (*microrec.Engine, []microrec.Query) {
	b.Helper()
	spec := microrec.SmallProductionModel()
	eng, err := microrec.NewEngine(spec, microrec.EngineOptions{Seed: 1, MaxRowsPerTable: 256})
	if err != nil {
		b.Fatal(err)
	}
	gen, err := microrec.NewGenerator(spec, microrec.Zipf, 11)
	if err != nil {
		b.Fatal(err)
	}
	qs := make([]microrec.Query, 512)
	for i := range qs {
		qs[i] = gen.Next()
	}
	return eng, qs
}

// BenchmarkServeUnbatched measures the seed's per-query serving pattern —
// one synchronous InferOne per request, the TensorFlow-Serving-style baseline
// the paper criticises. Reports ns/query
// (ns/op) and queries/s.
func BenchmarkServeUnbatched(b *testing.B) {
	eng, qs := serveBenchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.InferOne(qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}

// BenchmarkServeBatched measures the micro-batching server under concurrent
// submitters at batch 64 on the worker-pool drain, each batch run to
// completion on one worker's plane. Weight blocks stream from memory once per
// batch instead of once per query.
// The workers=1 case keeps the pair with BenchmarkServeUnbatched an
// apples-to-apples batching comparison (the unbatched baseline is one
// synchronous request stream, so extra workers would conflate parallelism
// with batching); workers=2 shows what a second worker adds. Reports
// ns/query (ns/op) and queries/s.
func BenchmarkServeBatched(b *testing.B) {
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchServeDrain(b, microrec.ServerOptions{
				Batching: microrec.BatchingOptions{MaxBatch: 64},
				Pipeline: microrec.PipelineOptions{Depth: workers, WorkerPool: true},
			})
		})
	}
}

// BenchmarkServePipelined measures the staged pipeline drain at batch 64:
// the micro-batcher feeds a ring of batch planes whose gather, dense-GEMM
// and tail stages run on separate goroutines, so batch i+1's channel-
// parallel gather overlaps batch i's GEMM. Besides ns/query (ns/op) and
// queries/s it reports the drain's measured steady-state batch interval next
// to the server's closed-form prediction over the same measured stage times
// and the serial (un-overlapped) sum — interval-us below serial-us is the
// gather/GEMM overlap at work (on multi-core hosts; a single-core runner
// interleaves rather than overlaps the stages). BenchmarkServeBatched reports
// the same three for the worker pool, so the drains compare side by side.
func BenchmarkServePipelined(b *testing.B) {
	benchServeDrain(b, microrec.ServerOptions{
		Batching: microrec.BatchingOptions{MaxBatch: 64},
		Pipeline: microrec.PipelineOptions{Depth: 3},
	})
}

// BenchmarkServeLightLoad is the lightly loaded server: 6 closed-loop
// submitters against MaxBatch 32, the shape of the repository benchmark's
// light_closed workload. What it reports is p50-us, each request timed on its
// own: with nothing queued ahead of it a request should cost about one pass
// of the stages (a few hundred µs here), and a batcher that waits on a clock
// before dispatching shows up as a millisecond. It keeps the 0 allocs/op pin
// at batches of about two, where a per-batch allocation is no longer hidden
// behind 64 requests.
func BenchmarkServeLightLoad(b *testing.B) {
	eng, qs := serveBenchSetup(b)
	srv, err := microrec.NewServer(eng, microrec.ServerOptions{
		Batching: microrec.BatchingOptions{MaxBatch: 32},
		Pipeline: microrec.PipelineOptions{Depth: 3},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	const clients = 6
	ctx := context.Background()
	lat := make([]time.Duration, b.N)
	var (
		next          atomic.Int64
		wg            sync.WaitGroup
		before, after runtime.MemStats
	)
	b.ReportAllocs()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < b.N; i = int(next.Add(1)) - 1 {
				t0 := time.Now()
				if _, err := srv.Submit(ctx, qs[i%len(qs)]); err != nil {
					b.Error(err)
					return
				}
				lat[i] = time.Since(t0)
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if allocs := after.Mallocs - before.Mallocs; b.N >= 10000 && !raceEnabled && 4*allocs >= uint64(b.N) {
		b.Errorf("%d allocations over %d requests: the serving tier allocates per batch again", allocs, b.N)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	b.ReportMetric(float64(lat[len(lat)/2])/1e3, "p50-us")
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
	b.ReportMetric(srv.Stats().MeanBatch, "mean-batch")
}

// benchServeDrain is the shared harness of the two drain benchmarks. It also
// pins the serving tier's steady state at 0 allocs/op (what -benchmem
// prints: fewer than one allocation per request): requests, their reply
// channels and batches are pooled, and at the benchmark's rates anything
// allocated per request becomes the garbage that sets the process's peak
// resident set. Short runs (bench-smoke's 1x) are all warm-up and are not
// judged; nor is a -race build, where sync.Pool drops items on purpose.
func benchServeDrain(b *testing.B, opts microrec.ServerOptions) {
	eng, qs := serveBenchSetup(b)
	srv, err := microrec.NewServer(eng, opts)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	b.SetParallelism(128) // concurrent submitters feeding the batcher
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := srv.Submit(ctx, qs[i%len(qs)]); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if allocs := after.Mallocs - before.Mallocs; b.N >= 10000 && !raceEnabled && allocs >= uint64(b.N) {
		b.Errorf("%d allocations over %d requests: the serving tier allocates per request again", allocs, b.N)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
	st := srv.Stats()
	b.ReportMetric(st.MeanBatch, "mean-batch")
	if st.Pipeline != nil {
		b.ReportMetric(st.Pipeline.MeasuredIntervalUS, "interval-us")
		b.ReportMetric(st.Pipeline.PredictedIntervalUS, "pred-interval-us")
		b.ReportMetric(st.Pipeline.SerialIntervalUS, "serial-us")
	}
}
