package loadgen

import (
	"testing"
	"time"

	"microrec/internal/core"
	"microrec/internal/embedding"
	"microrec/internal/fixedpoint"
	"microrec/internal/model"
	"microrec/internal/serving"
	"microrec/internal/workload"
)

// TestLoadtestSmokeEndToEnd drives a real shedding server open-loop past
// saturation: it calibrates the achievable rate with a deliberately
// overloaded burst, sweeps a ladder through 8x that rate, and asserts the
// measured knee stays at or below the server's predicted capacity while the
// admitted tail holds through overload — the acceptance shape of the
// `microrec loadtest` subcommand, in miniature.
func TestLoadtestSmokeEndToEnd(t *testing.T) {
	spec := model.SmallProduction()
	params, err := spec.Materialize(model.MaterializeOptions{Seed: 1, MaxRowsPerTable: 64})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Precision: fixedpoint.Fixed16}
	eng, err := core.Build(params, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Generous budget: the knee-vs-capacity and shed-vs-collapse shapes are
	// what this smoke pins, and they must hold on race-instrumented CI
	// hosts where every stage runs an order of magnitude slower.
	sla := 250 * time.Millisecond
	srv, err := serving.New(eng, serving.Options{
		Batching:  serving.BatchingOptions{MaxBatch: 8},
		Admission: serving.AdmissionOptions{QueueDepth: 32, Shed: true, SLA: sla},
		Pipeline:  serving.PipelineOptions{Depth: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	gen, err := workload.NewGenerator(spec, workload.Zipf, 17)
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]embedding.Query, 64)
	for i := range qs {
		qs[i] = gen.Next()
	}

	// Calibrate: offer far past any plausible capacity; the admitted rate
	// of a shedding server approximates its saturation throughput. The rate
	// must stay far ahead of the datapath as it speeds up: at 100k qps the
	// SIMD kernels drained the 400-request burst without a single shed.
	arr, err := NewPoisson(1e6, 5)
	if err != nil {
		t.Fatal(err)
	}
	calib, err := Run(srv, qs, arr, Options{Requests: 400, SLA: sla})
	if err != nil {
		t.Fatal(err)
	}
	if calib.Admitted == 0 || calib.Shed == 0 {
		t.Fatalf("calibration burst should both admit and shed: %+v", calib)
	}
	capacity := calib.AdmittedQPS

	// The burst is an estimate from below: it is over in 2-9 ms on the
	// width-native datapath, a third of that is the pipeline filling and
	// emptying, and single bursts read 11k-21k qps on a server that sustains
	// 28k. Twice such a reading can sit under the real capacity, where
	// nothing is shed, so the ladder ends on a rung no reading can put there.
	sweep, err := Sweep(srv, qs, SweepOptions{
		Loads:     []float64{0.25 * capacity, 0.6 * capacity, 2 * capacity, 8 * capacity},
		Requests:  300,
		SLA:       sla,
		Seed:      9,
		Tolerance: 0.03, // Poisson bursts against a 4-batch queue shed a little even well under capacity
	})
	if err != nil {
		t.Fatal(err)
	}
	if sweep.KneeQPS <= 0 {
		t.Fatalf("no load level met the SLA; points: %+v", sweep.Points)
	}

	// The knee cannot exceed what the pipeline can sustain: the predicted
	// capacity over the measured stage times bounds it (slack for
	// measurement noise on a shared CI host).
	predicted := srv.CapacityQPS()
	if predicted <= 0 {
		t.Fatal("no capacity prediction after traffic")
	}
	if sweep.KneeQPS > 1.25*predicted {
		t.Errorf("knee %v qps exceeds predicted capacity %v qps", sweep.KneeQPS, predicted)
	}

	// Past-saturation behaviour: the top rung must shed rather than let the
	// admitted tail collapse (the bounded queue caps queueing delay).
	over := sweep.Points[len(sweep.Points)-1]
	if over.Shed == 0 {
		t.Errorf("8x-capacity point shed nothing: %+v", over.Result)
	}
	// Late completions resolve as expired, so every admitted latency is
	// client-visibly within the deadline; 2% slack covers the histogram's
	// bucket resolution.
	if p99 := over.AdmittedLatencyUS.P99; p99 > 1.02*float64(sla)/float64(time.Microsecond) {
		t.Errorf("admitted p99 %vµs exceeded the %v SLA under overload", p99, sla)
	}
	// Shed requests never wait on the engine: their tail is scheduler noise,
	// far below the SLA (sub-ms on an unloaded host; race-instrumented CI
	// needs the slack).
	if over.ShedLatencyUS.Count > 0 && over.ShedLatencyUS.P99 > 50000 {
		t.Errorf("shed p99 %vµs — fast-fail path blocked", over.ShedLatencyUS.P99)
	}

	// The admission stats surfaced what the run measured.
	st := srv.Stats()
	if st.Admission.Shed == 0 || st.Admission.KneeQPS <= 0 {
		t.Errorf("admission stats after sweep = %+v", st.Admission)
	}
}

// TestLoadShardedServerEndToEnd drives the open-loop harness against the
// sharded scatter/gather tier: the same measurement discipline must hold when
// Options.Shards partitions the gather, every admitted request must carry a
// real prediction, and the server's cluster stats must account for every
// scatter round the run produced.
func TestLoadShardedServerEndToEnd(t *testing.T) {
	spec := model.SmallProduction()
	params, err := spec.Materialize(model.MaterializeOptions{Seed: 1, MaxRowsPerTable: 64})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Precision: fixedpoint.Fixed16}
	eng, err := core.Build(params, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serving.New(eng, serving.Options{
		Batching:  serving.BatchingOptions{MaxBatch: 8},
		Admission: serving.AdmissionOptions{QueueDepth: 32, Shed: true, SLA: 250 * time.Millisecond},
		Tier:      serving.TierOptions{Shards: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	gen, err := workload.NewGenerator(spec, workload.Zipf, 23)
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]embedding.Query, 64)
	for i := range qs {
		qs[i] = gen.Next()
	}
	arr, err := NewPoisson(2000, 23)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(srv, qs, arr, Options{Requests: 300, SLA: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted == 0 {
		t.Fatalf("sharded server admitted nothing: %+v", res)
	}
	st := srv.Stats()
	if st.Cluster == nil {
		t.Fatal("sharded server reported no cluster stats")
	}
	if st.Cluster.Shards != 3 {
		t.Fatalf("cluster reports %d shards, want 3", st.Cluster.Shards)
	}
	if st.Cluster.Batches == 0 || st.Cluster.MergeWaitUS.Count != st.Cluster.Batches {
		t.Fatalf("scatter rounds unaccounted: batches %d, merge waits %d",
			st.Cluster.Batches, st.Cluster.MergeWaitUS.Count)
	}
	for _, sh := range st.Cluster.PerShard {
		if sh.Batches != st.Cluster.Batches {
			t.Fatalf("shard %d served %d of %d rounds", sh.ID, sh.Batches, st.Cluster.Batches)
		}
	}
}
