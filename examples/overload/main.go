// Overload: admission control and load shedding under open-loop traffic —
// the serving-side defense of the paper's tail-latency claim. A recommender
// fleet is strictly SLA-bound (answers arriving after the page renders are
// worthless), and arrival rates routinely burst past steady-state capacity;
// without admission control the submit queue grows unboundedly and *every*
// request's latency collapses. With a bounded queue, fast-fail shedding and
// deadline-aware batch formation, the server keeps the tail of admitted
// requests inside the SLA and converts the excess into cheap, explicit
// rejections.
//
// Run with: go run ./examples/overload
package main

import (
	"fmt"
	"log"
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
	queries := make([]microrec.Query, 256)
	for i := range queries {
		queries[i] = gen.Next()
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
	capacity := calib.AdmittedQPS
	if capacity <= 0 {
		log.Fatalf("calibration admitted nothing (host too slow for the %v SLA): %+v", sla, calib)
	}
	fmt.Printf("saturation goodput ~%.0f qps (admitted %d of %d offered)\n\n", capacity, calib.Admitted, calib.Offered)

	// Now hold the server at 2x its capacity, open-loop: arrivals keep
	// coming whether or not earlier requests finished.
	over, err := microrec.NewPoissonArrivals(2*capacity, 11)
	if err != nil {
		log.Fatal(err)
	}
	res, err := microrec.RunLoad(srv, queries, over, microrec.LoadOptions{Requests: 1500, SLA: sla})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("2x overload (%.0f qps offered for %.1fs):\n", res.OfferedQPS, res.Duration.Seconds())
	fmt.Printf("  admitted %d (goodput %.0f qps)  shed %d  expired %d\n",
		res.Admitted, res.AdmittedQPS, res.Shed, res.Expired)
	fmt.Printf("  admitted latency: p50 %.1f ms  p99 %.1f ms  (SLA %v)\n",
		res.AdmittedLatencyUS.P50/1e3, res.AdmittedLatencyUS.P99/1e3, sla)
	fmt.Printf("  shed fail-fast:   p99 %.2f ms\n", res.ShedLatencyUS.P99/1e3)

	st := srv.Stats()
	fmt.Printf("\n/stats admission: queue %d/%d, shed %d, deadline drops %d, late %d, knee ~%.0f qps\n",
		st.Admission.QueueDepth, st.Admission.QueueCapacity, st.Admission.Shed,
		st.Admission.DeadlineDrops, st.Admission.LateCompletions, st.Admission.KneeQPS)

	fmt.Println("\nthe bounded queue caps how stale an admitted request can get, shedding turns")
	fmt.Println("the overflow into sub-millisecond rejections (HTTP 429 + Retry-After on the")
	fmt.Println("serve endpoint), and deadline-aware batch formation refuses to spend gather")
	fmt.Println("and GEMM cycles on answers nobody is waiting for.")
}
