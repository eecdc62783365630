package main

import (
	"fmt"

	"microrec"
)

func cmdInfer(args []string) error {
	fs := newFlagSet("infer")
	modelName := fs.String("model", "small", "model: small or large")
	n := fs.Int("n", 8, "number of queries")
	seed := fs.Int64("seed", 42, "workload seed")
	fp32 := fs.Bool("fp32", false, "use the 32-bit datapath")
	zipf := fs.Bool("zipf", false, "use zipf-skewed indices")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := specByName(*modelName)
	if err != nil {
		return err
	}
	opts := microrec.EngineOptions{Seed: 1, MaxRowsPerTable: 1024}
	if *fp32 {
		opts.Precision = microrec.Fixed32
	}
	eng, err := microrec.NewEngine(spec, opts)
	if err != nil {
		return err
	}
	dist := microrec.Uniform
	if *zipf {
		dist = microrec.Zipf
	}
	gen, err := microrec.NewGenerator(spec, dist, *seed)
	if err != nil {
		return err
	}
	queries, err := gen.Batch(*n)
	if err != nil {
		return err
	}
	res, err := eng.Infer(queries)
	if err != nil {
		return err
	}
	for i, p := range res.Predictions {
		fmt.Printf("query %3d: CTR %.4f\n", i, p)
	}
	acc, err := microrec.NewAcceleratorModel(spec, microrec.AcceleratorOptions{Precision: opts.Precision})
	if err != nil {
		return err
	}
	tm, err := acc.Timing(len(queries))
	if err != nil {
		return err
	}
	fmt.Printf("\nmodeled hardware timing (%s, %d-bit):\n", spec.Name, acc.Config.Precision.Bits)
	fmt.Printf("  single-item latency: %.1f µs\n", tm.LatencyNS/1e3)
	fmt.Printf("  embedding lookup:    %.0f ns\n", tm.LookupNS)
	fmt.Printf("  steady throughput:   %.3g items/s (bottleneck: %s)\n",
		tm.SteadyThroughputItemsPerSec(), tm.BottleneckStage)
	fmt.Printf("  batch makespan:      %.1f µs for %d items\n", tm.MakespanNS/1e3, tm.Items)
	return nil
}
