package microrec_test

import (
	"context"
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"microrec"
)

// Example builds an engine for the small production model, predicts the CTR
// of a few queries, and prints the modelled accelerator's timing for the same
// model beside it.
func Example() {
	// The paper's smaller production model: 47 embedding tables, a
	// 352-dimensional concatenated feature, and a (1024, 512, 256) MLP.
	spec := microrec.SmallProductionModel()

	// NewEngine materialises deterministic parameters (here capped at 1024
	// rows a table) and stores them at the 16-bit datapath's width.
	eng, err := microrec.NewEngine(spec, microrec.EngineOptions{Seed: 7, MaxRowsPerTable: 1024})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	// Deterministic synthetic traffic: Zipf-skewed sparse indices, the
	// realistic case for production embedding workloads.
	gen, err := microrec.NewGenerator(spec, microrec.Zipf, 2024)
	if err != nil {
		log.Fatal(err)
	}
	queries, err := gen.Batch(4)
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.Infer(queries)
	if err != nil {
		log.Fatal(err)
	}
	for i, ctr := range res.Predictions {
		fmt.Printf("query %d: CTR %.4f\n", i, ctr)
	}

	// The accelerator model runs the table-combination + allocation search
	// (Algorithm 1) against the U280's hybrid memory system and feeds the
	// plan's lookup latency through the FPGA's stage pipeline.
	acc, err := microrec.NewAcceleratorModel(spec, microrec.AcceleratorOptions{})
	if err != nil {
		log.Fatal(err)
	}
	t, err := acc.Timing(len(queries))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("embedding lookup:    %.0f ns (paper: 458 ns)\n", t.LookupNS)
	fmt.Printf("single-item latency: %.1f µs (paper: 16.3 µs)\n", t.LatencyNS/1e3)
	fmt.Printf("steady throughput:   %.3g items/s (paper: 3.05e+05)\n", t.SteadyThroughputItemsPerSec())
	fmt.Printf("bottleneck stage:    %s\n", t.BottleneckStage)
	// Output:
	// query 0: CTR 0.4893
	// query 1: CTR 0.4854
	// query 2: CTR 0.4766
	// query 3: CTR 0.4854
	// embedding lookup:    480 ns (paper: 458 ns)
	// single-item latency: 17.9 µs (paper: 16.3 µs)
	// steady throughput:   2.94e+05 items/s (paper: 3.05e+05)
	// bottleneck stage:    fc3-gemm
}

// ExampleNewServer serves concurrent clients through the batched serving
// subsystem — the production pattern the paper's latency argument targets
// (§1, §2.3, §4.1). The server coalesces concurrent queries into dynamic
// micro-batches, dispatched as soon as the drain can serve one and growing
// while it cannot, so each FC weight matrix streams from memory once per
// batch instead of once per query; every batched prediction is bit-identical
// to the per-query one. How the clients land in batches, and so the speedup
// over per-query serving, depends on the host: those figures go to stderr,
// outside the checked output.
func ExampleNewServer() {
	spec := microrec.SmallProductionModel()
	eng, err := microrec.NewEngine(spec, microrec.EngineOptions{Seed: 1, MaxRowsPerTable: 1024})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	gen, err := microrec.NewGenerator(spec, microrec.Zipf, 7)
	if err != nil {
		log.Fatal(err)
	}
	const clients = 96
	queries, err := gen.Batch(clients)
	if err != nil {
		log.Fatal(err)
	}

	// Baseline: the per-query serving pattern (one synchronous inference per
	// request, TensorFlow-Serving style).
	start := time.Now()
	perQuery := make([]float32, clients)
	for i, q := range queries {
		if perQuery[i], err = eng.InferOne(q); err != nil {
			log.Fatal(err)
		}
	}
	perQueryTime := time.Since(start)

	// Batched serving: concurrent clients behind the micro-batcher. One
	// worker running each batch to completion keeps the comparison honest —
	// any speedup comes from batching (weight-streaming amortisation), not
	// from running the engine on more cores than the baseline.
	srv, err := microrec.NewServer(eng, microrec.ServerOptions{
		Batching: microrec.BatchingOptions{MaxBatch: 32},
		Pipeline: microrec.PipelineOptions{WorkerPool: true, Depth: 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	// The backlog the server can hold is validated against a serving latency
	// budget before traffic arrives: the server times a full batch on this
	// host and bounds the worst-case admitted latency by it.
	if err := srv.ValidateSLA(time.Second); err != nil {
		log.Fatal(err)
	}

	start = time.Now()
	results := make([]microrec.ServeResult, clients)
	var wg sync.WaitGroup
	for i := range queries {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := srv.Submit(context.Background(), queries[i])
			if err != nil {
				log.Fatal(err)
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	batchedTime := time.Since(start)

	fmt.Printf("serving %s to %d concurrent clients\n", spec.Name, clients)
	identical, batchesInRange := true, true
	for i, r := range results {
		identical = identical && r.CTR == perQuery[i]
		batchesInRange = batchesInRange && r.BatchSize >= 1 && r.BatchSize <= 32
		if i < 3 {
			fmt.Printf("client %d: CTR %.4f\n", i, r.CTR)
		}
	}
	fmt.Println("batched CTRs equal per-query CTRs:", identical)
	fmt.Println("every batch held 1 to 32 queries:", batchesInRange)
	st := srv.Stats()
	fmt.Printf("/stats: %d queries served\n", st.Queries)

	fmt.Fprintf(os.Stderr, "%d batches, mean %.1f queries; per-query serving %v, batched %v (%.1fx)\n",
		st.Batches, st.MeanBatch, perQueryTime.Round(time.Millisecond), batchedTime.Round(time.Millisecond),
		float64(perQueryTime)/float64(batchedTime))
	// Output:
	// serving production-small to 96 concurrent clients
	// client 0: CTR 0.5000
	// client 1: CTR 0.5000
	// client 2: CTR 0.4902
	// batched CTRs equal per-query CTRs: true
	// every batch held 1 to 32 queries: true
	// /stats: 96 queries served
}

// ExampleRunLoad holds a shedding server at twice its capacity, open-loop —
// the serving-side defence of the paper's tail-latency claim. Without
// admission control the submit queue grows without bound and every request's
// latency collapses; with a bounded queue, fast-fail shedding and
// deadline-aware batch formation the server keeps admitted requests inside
// the SLA and turns the excess into cheap, explicit rejections. Every offered
// request is accounted for as admitted, shed or expired, and the server's own
// shed counter agrees with the harness; the goodput and latencies depend on
// the host and go to stderr, outside the checked output.
func ExampleRunLoad() {
	spec := microrec.SmallProductionModel()
	eng, err := microrec.NewEngine(spec, microrec.EngineOptions{Seed: 1, MaxRowsPerTable: 1024})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	gen, err := microrec.NewGenerator(spec, microrec.Zipf, 7)
	if err != nil {
		log.Fatal(err)
	}
	queries, err := gen.Batch(256)
	if err != nil {
		log.Fatal(err)
	}

	// Production SLAs sit at tens of ms; a generous budget keeps the demo
	// meaningful on slow or single-core hosts too.
	const sla = 100 * time.Millisecond
	srv, err := microrec.NewServer(eng, microrec.ServerOptions{
		Batching: microrec.BatchingOptions{MaxBatch: 32},
		Admission: microrec.AdmissionOptions{
			QueueDepth: 64,   // two batches of backlog: bounds queueing delay
			Shed:       true, // queue full -> ErrOverloaded instead of blocking
			SLA:        sla,  // stale queued requests are dropped, not computed
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	report := func(name string, res microrec.LoadResult) {
		accounted := res.Admitted + res.Shed + res.Expired + res.Failed
		fmt.Printf("%s: %d offered, %d accounted for, %d failed\n", name, res.Offered, accounted, res.Failed)
		fmt.Fprintf(os.Stderr, "%s: %.0f qps offered, goodput %.0f qps; admitted %d, shed %d, expired %d; admitted p99 %.1f ms, shed p99 %.2f ms\n",
			name, res.OfferedQPS, res.AdmittedQPS, res.Admitted, res.Shed, res.Expired,
			res.AdmittedLatencyUS.P99/1e3, res.ShedLatencyUS.P99/1e3)
	}

	// Find the server's capacity by driving it far past saturation: a
	// shedding server's goodput under overload approximates its knee.
	arr, err := microrec.NewPoissonArrivals(1e6, 3)
	if err != nil {
		log.Fatal(err)
	}
	calib, err := microrec.RunLoad(srv, queries, arr, microrec.LoadOptions{Requests: 800, SLA: sla})
	if err != nil {
		log.Fatal(err)
	}
	if calib.AdmittedQPS <= 0 {
		log.Fatalf("calibration admitted nothing (host too slow for the %v SLA): %+v", sla, calib)
	}
	report("saturation", calib)

	// Now hold the server at 2x its capacity, open-loop: arrivals keep coming
	// whether or not earlier requests finished.
	over, err := microrec.NewPoissonArrivals(2*calib.AdmittedQPS, 11)
	if err != nil {
		log.Fatal(err)
	}
	res, err := microrec.RunLoad(srv, queries, over, microrec.LoadOptions{Requests: 1500, SLA: sla})
	if err != nil {
		log.Fatal(err)
	}
	report("2x overload", res)

	st := srv.Stats()
	fmt.Printf("/stats admission: queue capacity %d, shedding %v, shed counter matches the harness: %v\n",
		st.Admission.QueueCapacity, st.Admission.Shedding, st.Admission.Shed == uint64(calib.Shed+res.Shed))
	// Output:
	// saturation: 800 offered, 800 accounted for, 0 failed
	// 2x overload: 1500 offered, 1500 accounted for, 0 failed
	// /stats admission: queue capacity 64, shedding true, shed counter matches the harness: true
}
