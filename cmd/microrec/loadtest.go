package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"microrec"
)

// loadtestReport is the JSON document `microrec loadtest` emits: the
// open-loop sweep's per-level results, the measured knee, and the server's
// predicted capacity it is judged against.
type loadtestReport struct {
	Benchmark     string  `json:"benchmark"`
	Model         string  `json:"model"`
	SLAMS         float64 `json:"sla_ms"`
	MaxBatch      int     `json:"max_batch"`
	QueueDepth    int     `json:"queue_depth"`
	PipelineDepth int     `json:"pipeline_depth"`
	// Shards is the scatter/gather tier's shard count (1 = single engine).
	Shards int `json:"shards"`
	// Replicas/Route describe the replicated tier when the run used
	// -replicas > 1 (absent on single-replica runs).
	Replicas        int     `json:"replicas,omitempty"`
	Route           string  `json:"route,omitempty"`
	RequestsPerLoad int     `json:"requests_per_load"`
	Tolerance       float64 `json:"tolerance"`
	GoMaxProcs      int     `json:"gomaxprocs"`
	// Kernels records which optimized datapath kernels the producing build
	// selected (microrec.KernelFeatures; "portable" under the noasm tag).
	Kernels   string `json:"kernels,omitempty"`
	Timestamp string `json:"timestamp"`
	// BuildInfo names the commit and toolchain that produced the document
	// (absent in documents predating the provenance stamp).
	BuildInfo *microrec.BuildInfo `json:"build_info,omitempty"`
	// CalibratedQPS is the saturation goodput the auto ladder was built
	// around (0 when -loads was given explicitly).
	CalibratedQPS float64 `json:"calibrated_qps,omitempty"`
	// Points are the sweep levels in offered-rate order.
	Points []microrec.LoadPoint `json:"points"`
	// KneeQPS is the highest offered rate that met the SLA.
	KneeQPS float64 `json:"knee_qps"`
	// PredictedCapacityQPS is the server's capacity estimate after the sweep
	// (Server.CapacityQPS: MaxBatch over the closed-form batch interval on
	// the measured stage times, in either drain) — the model the measured
	// knee is cross-checked against.
	PredictedCapacityQPS float64 `json:"predicted_capacity_qps"`
	// Admission echoes the server's final admission counters.
	Admission microrec.AdmissionStats `json:"admission"`
	// Tier records the tiered-store configuration (hot budget vs total
	// model bytes, modeled cold latency) and post-sweep counters when the
	// run used -cold-tier (absent on all-DRAM runs).
	Tier *microrec.TierStats `json:"tier,omitempty"`
	// Router echoes the replicated tier's post-sweep scoreboard when the
	// run used -replicas > 1: per-replica occupancy, routing decisions per
	// policy, and — on -route affinity runs, which calibrate under
	// round-robin before switching — the aggregate hot-cache hit-rate lift
	// over the round-robin baseline.
	Router *microrec.RouterStats `json:"router,omitempty"`
}

// loadtestTarget is the slice of the serving tier the sweep drives: a single
// *microrec.Server, or a *microrec.Router over N replicas.
type loadtestTarget interface {
	microrec.LoadTarget
	Stats() microrec.ServerStats
	CapacityQPS() float64
}

// parseLoadList parses a comma-separated ascending qps ladder ("500,1000").
func parseLoadList(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("loadtest: bad load %q in -loads", p)
		}
		out = append(out, v)
	}
	return out, nil
}

func cmdLoadtest(args []string) error {
	fs := newFlagSet("loadtest")
	modelName := fs.String("model", "small", "model: small or large")
	out := fs.String("o", "-", "output JSON path (- writes the JSON to stdout and the table to stderr)")
	n := fs.Int("n", 2000, "requests offered per load level")
	slaBudget := fs.Duration("sla", 100*time.Millisecond, "per-request deadline and knee criterion")
	loads := fs.String("loads", "auto", "comma-separated offered qps ladder, or 'auto' to calibrate and sweep 0.25x-2.5x of saturation")
	batch := fs.Int("batch", 32, "max micro-batch size")
	queue := fs.Int("queue", 64, "submit queue depth (0 = 4x batch); bounds every admitted request's queueing delay")
	pipelineDepth := fs.Int("pipeline-depth", 3, "plane-ring depth of the pipelined drain")
	topo := addTopologyFlags(fs)
	hotCache := fs.Int64("hotcache", 0, "live hot-row cache capacity in bytes per replica (0 = off); with -route affinity this is the cache whose aggregate hit-rate lift the report records")
	tol := fs.Float64("tol", 0.01, "loss fraction (shed+expired) still counted as meeting the SLA")
	zipf := fs.Bool("zipf", true, "Zipfian query skew (false = uniform)")
	seed := fs.Int64("seed", 21, "deterministic arrival + workload seed")
	applyColdTier := addColdTierFlags(fs, "loadtest")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n < 50 {
		return fmt.Errorf("loadtest: -n must be >= 50 (got %d): the knee is a tail measurement", *n)
	}
	if *slaBudget <= 0 {
		return fmt.Errorf("loadtest: -sla must be > 0 (got %v)", *slaBudget)
	}
	if *tol < 0 || *tol >= 1 {
		return fmt.Errorf("loadtest: -tol must be in [0, 1) (got %v)", *tol)
	}
	if *queue < 0 {
		return fmt.Errorf("loadtest: -queue must be >= 0 (got %d)", *queue)
	}
	if *hotCache < 0 {
		return fmt.Errorf("loadtest: -hotcache must be >= 0 bytes (got %d)", *hotCache)
	}
	if err := topo.validate("loadtest"); err != nil {
		return err
	}
	var ladder []float64
	if *loads != "auto" {
		var err error
		if ladder, err = parseLoadList(*loads); err != nil {
			return err
		}
	}

	spec, err := specByName(*modelName)
	if err != nil {
		return err
	}
	engOpts := microrec.EngineOptions{Seed: 1, MaxRowsPerTable: 4096, HotCacheBytes: *hotCache}
	if err := applyColdTier(&engOpts); err != nil {
		return err
	}
	// The loadtest server always sheds: open-loop overload against a
	// blocking queue just moves the queue into the harness.
	sopts := microrec.ServerOptions{
		Batching:  microrec.BatchingOptions{MaxBatch: *batch},
		Admission: microrec.AdmissionOptions{QueueDepth: *queue, Shed: true, SLA: *slaBudget},
		Pipeline:  microrec.PipelineOptions{Depth: *pipelineDepth},
		Tier:      microrec.TierOptions{Shards: *topo.shards},
	}
	var (
		target loadtestTarget
		rt     *microrec.Router
		eng    *microrec.Engine
	)
	if topo.routed() {
		// An affinity run calibrates under round-robin first, so the
		// hit-rate lift the report records is measured against the
		// oblivious baseline on this exact workload; the switch happens
		// right before the sweep.
		buildPolicy := topo.policy
		if topo.policy == microrec.RouteAffinity {
			buildPolicy = microrec.RouteRoundRobin
		}
		routedTopo := *topo
		routedTopo.policy = buildPolicy
		var first *microrec.Engine
		rt, first, err = routedTopo.buildRouter(spec, engOpts, sopts)
		if err != nil {
			return err
		}
		defer rt.Close()
		target, eng = rt, first
	} else {
		eng, err = microrec.NewEngine(spec, engOpts)
		if err != nil {
			return err
		}
		defer eng.Close()
		srv, err := microrec.NewServer(eng, sopts)
		if err != nil {
			return err
		}
		defer srv.Close()
		target = srv
	}

	dist := microrec.Uniform
	if *zipf {
		dist = microrec.Zipf
	}
	gen, err := microrec.NewGenerator(spec, dist, *seed)
	if err != nil {
		return err
	}
	qs := make([]microrec.Query, 512)
	for i := range qs {
		qs[i] = gen.Next()
	}

	// With -o - the JSON document owns stdout; progress and the per-level
	// table go to stderr so the output stays machine-parseable.
	progress := os.Stdout
	if *out == "-" {
		progress = os.Stderr
	}
	rep := loadtestReport{
		Benchmark:       "loadtest",
		Model:           spec.Name,
		SLAMS:           float64(*slaBudget) / float64(time.Millisecond),
		MaxBatch:        *batch,
		QueueDepth:      target.Stats().Admission.QueueCapacity,
		PipelineDepth:   *pipelineDepth,
		Shards:          *topo.shards,
		RequestsPerLoad: *n,
		Tolerance:       *tol,
		GoMaxProcs:      runtime.GOMAXPROCS(0),
		Kernels:         microrec.KernelFeatures(),
		Timestamp:       time.Now().UTC().Format(time.RFC3339),
	}
	if topo.routed() {
		rep.Replicas = *topo.replicas
		rep.Route = string(topo.policy)
	}
	bi := microrec.ReadBuildInfo()
	rep.BuildInfo = &bi

	if ladder == nil {
		// Calibrate: offer far past any plausible capacity; a shedding
		// server's goodput under saturation approximates its capacity.
		arr, err := microrec.NewPoissonArrivals(1e6, *seed)
		if err != nil {
			return err
		}
		calib, err := microrec.RunLoad(target, qs, arr, microrec.LoadOptions{Requests: *n / 2, SLA: *slaBudget})
		if err != nil {
			return fmt.Errorf("loadtest: calibration: %w", err)
		}
		if calib.AdmittedQPS <= 0 {
			return fmt.Errorf("loadtest: calibration admitted nothing (SLA %v too tight for this host?)", *slaBudget)
		}
		rep.CalibratedQPS = calib.AdmittedQPS
		fmt.Fprintf(progress, "calibrated saturation goodput: %.0f qps (admitted %d / offered %d)\n",
			calib.AdmittedQPS, calib.Admitted, calib.Offered)
		for _, f := range []float64{0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5} {
			ladder = append(ladder, f*calib.AdmittedQPS)
		}
	}

	if rt != nil && topo.policy == microrec.RouteAffinity {
		// Calibration (and any explicit-ladder warmup) ran under
		// round-robin; mark the pooled hit-rate baseline, then switch. The
		// sweep's aggregate hit rate and the recorded delta now measure the
		// affinity lift over that baseline.
		rt.MarkHitRateBaseline()
		if err := rt.SetPolicy(microrec.RouteAffinity); err != nil {
			return err
		}
		fmt.Fprintf(progress, "hit-rate baseline marked under round-robin; sweeping with affinity routing\n")
	}

	sweep, err := microrec.SweepLoad(target, qs, microrec.LoadSweepOptions{
		Loads:     ladder,
		Requests:  *n,
		SLA:       *slaBudget,
		Tolerance: *tol,
		Seed:      *seed,
	})
	if err != nil {
		return err
	}
	rep.Points = sweep.Points
	rep.KneeQPS = sweep.KneeQPS
	rep.PredictedCapacityQPS = target.CapacityQPS()
	st := target.Stats()
	rep.Admission = st.Admission
	rep.Tier = tierSnapshot(eng)
	rep.Router = st.Router

	fmt.Fprintf(progress, "\n%-12s %-12s %-10s %-10s %-10s %-10s %-8s %-8s %s\n",
		"offered-qps", "goodput-qps", "p50-us", "p99-us", "late-p99", "shed-p99", "shed", "expired", "SLA")
	for _, p := range sweep.Points {
		verdict := "MISS"
		if p.MeetsSLA(*slaBudget, *tol) {
			verdict = "meets"
		}
		fmt.Fprintf(progress, "%-12.0f %-12.0f %-10.0f %-10.0f %-10.0f %-10.0f %-8d %-8d %s\n",
			p.TargetQPS, p.AdmittedQPS, p.AdmittedLatencyUS.P50, p.AdmittedLatencyUS.P99,
			p.LateP99US, p.ShedLatencyUS.P99, p.Shed, p.Expired, verdict)
	}
	fmt.Fprintf(progress, "\nknee: %.0f qps meeting the %v SLA (predicted capacity %.0f qps)\n",
		rep.KneeQPS, *slaBudget, rep.PredictedCapacityQPS)
	if rep.Router != nil {
		fmt.Fprintf(progress, "router: %d replicas, policy %s, aggregate hot-cache hit rate %.3f (baseline %.3f, lift %+.3f)\n",
			rep.Router.Replicas, rep.Router.Policy, rep.Router.AggregateHitRate,
			rep.Router.BaselineHitRate, rep.Router.HitRateDelta)
	}

	doc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	doc = append(doc, '\n')
	if *out == "-" {
		_, err = os.Stdout.Write(doc)
		return err
	}
	if err := os.WriteFile(*out, doc, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", *out)
	return nil
}
