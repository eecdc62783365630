package microrec_test

import (
	"fmt"
	"log"

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
