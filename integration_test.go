package microrec_test

import (
	"math"
	"testing"

	"microrec"
	"microrec/internal/cpu"
)

// TestEnginesAgreeOnPredictions is the cross-system consistency check: the
// MicroRec engine's float reference path and the CPU baseline engine must
// produce identical predictions from the same materialised parameters, and
// its fixed-point path must track them closely.
func TestEnginesAgreeOnPredictions(t *testing.T) {
	spec := microrec.SmallProductionModel()
	params, err := spec.Materialize(microrec.MaterializeOpts{Seed: 11, MaxRowsPerTable: 128})
	if err != nil {
		t.Fatal(err)
	}
	fpga, err := microrec.NewEngineFromParams(params, microrec.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cpuEng, err := cpu.NewEngine(params)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := microrec.NewGenerator(spec, microrec.Zipf, 23)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := gen.Batch(16)
	if err != nil {
		t.Fatal(err)
	}
	cpuPreds, err := cpuEng.InferBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		ref, err := fpga.ReferenceOne(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(float64(ref-cpuPreds[i])) > 1e-4 {
			t.Errorf("query %d: FPGA reference %v vs CPU %v", i, ref, cpuPreds[i])
		}
		// The fixed-point prediction must track both closely.
		fp, err := fpga.InferOne(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(float64(fp-ref)) > 0.05 {
			t.Errorf("query %d: fixed-point %v drifted from reference %v", i, fp, ref)
		}
	}
}

// TestEndToEndPaperStory walks the paper's whole argument on the large
// model: CPU latency is milliseconds and embedding-bound; MicroRec's lookup
// is sub-2µs, its end-to-end latency tens of microseconds, and throughput
// beats the CPU's best batch configuration.
func TestEndToEndPaperStory(t *testing.T) {
	cpuModel := cpu.PaperLarge()
	b2048 := cpuModel.EndToEndMS(2048)
	if b2048 < 10 {
		t.Errorf("CPU batch-2048 latency %.1f ms — expected tens of ms", b2048)
	}
	if share := cpuModel.EmbeddingShare(64); share < 0.5 {
		t.Errorf("embedding share %.2f — paper says the embedding layer dominates", share)
	}
	spec := microrec.LargeProductionModel()
	acc, err := microrec.NewAcceleratorModel(spec, microrec.AcceleratorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := acc.Timing(4000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LookupNS >= 2000 {
		t.Errorf("lookup %.0f ns — paper reports ~1 µs for the large model", rep.LookupNS)
	}
	if rep.LatencyNS >= 40_000 {
		t.Errorf("latency %.1f µs — paper reports tens of µs", rep.LatencyNS/1e3)
	}
	fpgaThroughput := rep.SteadyThroughputItemsPerSec()
	cpuThroughput := cpuModel.ThroughputItemsPerSec(2048)
	speedup := fpgaThroughput / cpuThroughput
	if speedup < 2.5 {
		t.Errorf("steady-state speedup %.2fx below the paper's 2.5x floor", speedup)
	}
}
