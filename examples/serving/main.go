// Serving: the batched online CTR-prediction subsystem in front of the
// MicroRec engine — the production serving pattern the paper's latency
// argument targets (§1, §2.3, §4.1). Concurrent clients submit queries; the
// server coalesces them into dynamic micro-batches (dispatched as soon as the
// drain can serve one, growing while it cannot), so each FC weight matrix
// streams from memory once per batch instead of once per query.
//
// Run with: go run ./examples/serving
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"microrec"
)

func main() {
	spec := microrec.SmallProductionModel()
	eng, err := microrec.NewEngine(spec, microrec.EngineOptions{Seed: 1, MaxRowsPerTable: 1024})
	if err != nil {
		log.Fatal(err)
	}
	gen, err := microrec.NewGenerator(spec, microrec.Zipf, 7)
	if err != nil {
		log.Fatal(err)
	}
	const clients = 96
	queries := make([]microrec.Query, clients)
	for i := range queries {
		queries[i] = gen.Next()
	}

	// Baseline: the per-query serving pattern (one synchronous inference
	// per request, TensorFlow-Serving style).
	start := time.Now()
	for _, q := range queries {
		if _, err := eng.InferOne(q); err != nil {
			log.Fatal(err)
		}
	}
	perQuery := time.Since(start)

	// Batched serving: concurrent clients behind the micro-batcher. One
	// worker running each batch to completion keeps the comparison honest —
	// the speedup below comes from batching (weight-streaming amortisation),
	// not from running the engine on more cores than the baseline.
	srv, err := microrec.NewServer(eng, microrec.ServerOptions{
		Batching: microrec.BatchingOptions{MaxBatch: 32},
		Pipeline: microrec.PipelineOptions{WorkerPool: true, Depth: 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	// The backlog the server can hold is validated against a serving
	// latency budget before traffic arrives: the server times one full
	// batch on this host and bounds the worst-case admitted latency by it.
	if err := srv.ValidateSLA(100 * time.Millisecond); err != nil {
		log.Fatal(err)
	}

	start = time.Now()
	var wg sync.WaitGroup
	results := make([]microrec.ServeResult, clients)
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
	batched := time.Since(start)

	fmt.Printf("serving %s to %d concurrent clients\n\n", spec.Name, clients)
	for i := 0; i < 3; i++ {
		r := results[i]
		fmt.Printf("client %d: CTR %.4f  (batch of %d, served in %v)\n",
			i, r.CTR, r.BatchSize, r.WallTime.Round(time.Microsecond))
	}
	st := srv.Stats()
	fmt.Printf("\n/stats: %d queries in %d batches — mean batch %.1f (occupancy %.0f%%), p99 latency %.0f µs, %.0f qps\n",
		st.Queries, st.Batches, st.MeanBatch, 100*st.BatchOccupancy, st.LatencyUS.P99, st.QPS)
	fmt.Printf("\nper-query serving: %v for %d queries\nbatched serving:   %v (%.1fx)\n",
		perQuery.Round(time.Millisecond), clients, batched.Round(time.Millisecond),
		float64(perQuery)/float64(batched))
	fmt.Println("\nbatching amortises FC weight streaming across the micro-batch — the CPU-side")
	fmt.Println("analogue of the pipelined, item-at-a-time dataflow the paper builds in hardware.")
}
