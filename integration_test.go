package microrec_test

import (
	"math"
	"testing"

	"microrec"
	"microrec/internal/cpu"
)

// TestEnginesAgreeOnPredictions is the cross-system consistency check: the
// FPGA engine's float reference path and the real CPU baseline engine must
// produce identical predictions from the same materialised parameters —
// they implement the same model on different "hardware".
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

// TestCartesianInvisibleToPredictions verifies the central correctness claim
// of the data-structure transform: merging tables changes memory behaviour
// but never the computed CTR.
func TestCartesianInvisibleToPredictions(t *testing.T) {
	spec := microrec.SmallProductionModel()
	params, err := spec.Materialize(microrec.MaterializeOpts{Seed: 3, MaxRowsPerTable: 64})
	if err != nil {
		t.Fatal(err)
	}
	with, err := microrec.NewEngineFromParams(params, microrec.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	without, err := microrec.NewEngineFromParams(params, microrec.EngineOptions{DisableCartesian: true})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := microrec.NewGenerator(spec, microrec.Uniform, 31)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		q := gen.Next()
		a, err := with.InferOne(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := without.InferOne(q)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("query %d: Cartesian engine predicts %v, plain engine %v", i, a, b)
		}
	}
	// But the memory behaviour must differ: fewer accesses, lower latency.
	if with.Plan().Layout.AccessesPerInference() >= without.Plan().Layout.AccessesPerInference() {
		t.Error("Cartesian plan does not reduce accesses")
	}
	if with.LookupNS() >= without.LookupNS() {
		t.Error("Cartesian plan does not reduce lookup latency")
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
	eng, err := microrec.NewEngine(spec, microrec.EngineOptions{Seed: 1, MaxRowsPerTable: 64})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Timing(4000)
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
