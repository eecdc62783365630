package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"microrec"
	"microrec/internal/serving"
)

// Fixed by the benchmark's definition (see README.md): every workload runs on
// the same table cap, engine seed, batch window and pool size, so the only
// input that varies between runs is -seed.
const (
	engineSeed      = 1
	batchWindow     = 200 * time.Microsecond
	embedBatch      = 64
	slicesPerWindow = 10
	referenceSample = 64
)

// scale is the part of the benchmark's definition that sets how long set-up
// and the probes take. It is a variable only so the smoke test can shrink it;
// a measured run never changes it.
var scale = struct {
	tableRows    int64 // cap on every embedding table's materialised rows
	poolSize     int   // queries generated from the seed
	probeCalls   int   // timed calls per stage probe
	setupRepeats int   // set-ups per timed run; setup_s is their median
}{tableRows: 262144, poolSize: 4096, probeCalls: 200, setupRepeats: 3}

// workload is one of the benchmark's four fixed configurations; README.md and
// ../BENCHMARK.json say why each exists.
type workload struct {
	name string
	// large selects LargeProductionModel; otherwise SmallProductionModel.
	large     bool
	precision microrec.Format
	// zipf draws skewed indices; otherwise uniform.
	zipf bool
	// replicas is 0 for the bare gather loop (no server), 1 for one server,
	// 2 for two replicas behind an affinity router.
	replicas int
	// hotCache and coldTier attach the residency layers to every replica's
	// engine.
	hotCache int64
	coldTier bool
	maxBatch int
	clients  int
}

var workloads = []workload{
	{name: "dense_sat", precision: microrec.Fixed16, zipf: true, replicas: 1, maxBatch: 64, clients: 512},
	{name: "light_closed", precision: microrec.Fixed16, zipf: true, replicas: 1, maxBatch: 32, clients: 6},
	{name: "tiered_routed", precision: microrec.Fixed32, zipf: true, replicas: 2, maxBatch: 64, clients: 512,
		hotCache: 262144, coldTier: true},
	{name: "embed_lookup", large: true, precision: microrec.Fixed16, maxBatch: embedBatch},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) spec() *microrec.Spec {
	if w.large {
		return microrec.LargeProductionModel()
	}
	return microrec.SmallProductionModel()
}

// rig is a workload's built state: engines (one per replica), the query pool
// and the predictions every response is checked against.
type rig struct {
	w        workload
	engines  []*microrec.Engine
	pool     []microrec.Query
	expected []float32
}

// buildEngine builds one engine on the benchmark's fixed table cap and seed,
// from params when the caller already materialised them. A cold-tier file is
// created inside dir so the benchmark writes nowhere but its own checkout;
// Engine.Close removes it.
func buildEngine(spec *microrec.Spec, params *microrec.Parameters, opts microrec.EngineOptions, dir string) (*microrec.Engine, error) {
	opts.Seed, opts.MaxRowsPerTable = engineSeed, scale.tableRows
	if opts.ColdTier {
		f, err := os.CreateTemp(dir, "cold-*.bin")
		if err != nil {
			return nil, fmt.Errorf("cold-tier file: %w", err)
		}
		opts.ColdTierPath = f.Name()
		if err := f.Close(); err != nil {
			return nil, fmt.Errorf("cold-tier file: %w", err)
		}
	}
	var (
		eng *microrec.Engine
		err error
	)
	if params != nil {
		eng, err = microrec.NewEngineFromParams(params, opts)
	} else {
		eng, err = microrec.NewEngine(spec, opts)
	}
	if err != nil && opts.ColdTier {
		os.Remove(opts.ColdTierPath)
	}
	return eng, err
}

// newPool generates the seed's query pool for a model.
func newPool(spec *microrec.Spec, zipf bool, seed int64) ([]microrec.Query, error) {
	dist := microrec.Uniform
	if zipf {
		dist = microrec.Zipf
	}
	gen, err := microrec.NewGenerator(spec, dist, seed)
	if err != nil {
		return nil, err
	}
	return gen.Batch(scale.poolSize)
}

// setup builds everything a workload needs before its first request: the
// engines (and their cold files), the query pool and the expected
// predictions. Its duration is the setup_s metric.
func setup(w workload, seed int64, dir string) (*rig, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	r := &rig{w: w}
	spec := w.spec()
	for i := 0; i < max(w.replicas, 1); i++ {
		eng, err := buildEngine(spec, nil, microrec.EngineOptions{
			Precision: w.precision, HotCacheBytes: w.hotCache, ColdTier: w.coldTier,
		}, dir)
		if err != nil {
			r.close()
			return nil, fmt.Errorf("%s: engine %d: %w", w.name, i, err)
		}
		r.engines = append(r.engines, eng)
	}
	var err error
	if r.pool, err = newPool(spec, w.zipf, seed); err != nil {
		r.close()
		return nil, fmt.Errorf("%s: query pool: %w", w.name, err)
	}
	// Engine.Infer validates every query; the gather loop relies on that.
	res, err := r.engines[0].Infer(r.pool)
	if err != nil {
		r.close()
		return nil, fmt.Errorf("%s: expected predictions: %w", w.name, err)
	}
	r.expected = res.Predictions
	return r, nil
}

func (r *rig) close() {
	for _, e := range r.engines {
		e.Close()
	}
	r.engines = nil
}

// timedSetups sets the workload up scale.setupRepeats times, discarding all
// but the last, and returns the last rig with the fast-side quartile of the
// set-up times (of three, the shortest): like the serving numbers, a set-up is
// only ever slowed down by the host, here mostly by page-cache write-back of
// the cold files, which made single set-ups of tiered_routed range 1.4-3.1 s.
// Memory is handed back to the OS between repeats so the peak resident set
// stays that of one set-up.
func timedSetups(w workload, seed int64, dir string) (*rig, float64, error) {
	var (
		times []float64
		r     *rig
	)
	for i := 0; i < scale.setupRepeats; i++ {
		if r != nil {
			r.close()
			r = nil
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		var err error
		if r, err = setup(w, seed, dir); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	q1, _ := quartiles(times)
	return r, q1, nil
}

// checksum fingerprints the expected predictions (FNV-1a over the float32
// bit patterns); the seed-1 values are committed in oracle.go.
func (r *rig) checksum() uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, p := range r.expected {
		u := math.Float32bits(p)
		b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
		h.Write(b[:])
	}
	return h.Sum64()
}

// checkOracle holds the fixed-point predictions against the two independent
// oracles: the committed seed-1 checksum, and the float reference on a
// sample of the pool. It returns the operations attempted and failed.
func (r *rig) checkOracle(seed int64) (attempted, failed int, err error) {
	if want, ok := seed1Checksums[r.w.name]; ok && seed == 1 {
		attempted++
		if got := r.checksum(); got != want {
			failed++
			fmt.Fprintf(os.Stderr, "%s: seed-1 prediction checksum %#x, committed %#x: the numerics changed\n", r.w.name, got, want)
		}
	}
	tol := referenceTolerance(r.w.precision)
	worst := 0.0
	for i := 0; i < len(r.pool); i += len(r.pool) / referenceSample {
		ref, err := r.engines[0].ReferenceOne(r.pool[i])
		if err != nil {
			return attempted, failed, fmt.Errorf("%s: reference %d: %w", r.w.name, i, err)
		}
		attempted++
		d := math.Abs(float64(ref) - float64(r.expected[i]))
		if !(d <= tol) {
			failed++
		}
		worst = max(worst, d)
	}
	fmt.Printf("# %s: largest |fixed - float reference| over %d pool entries %.3g (tolerance %.3g)\n", r.w.name, referenceSample, worst, tol)
	return attempted, failed, nil
}

// target is the serving surface the closed and open loops drive: one Server,
// or a Router in front of two.
type target interface {
	Submit(ctx context.Context, q microrec.Query) (microrec.ServeResult, error)
	Stats() microrec.ServerStats
	Close() error
}

// serve starts the workload's serving composition over its engines. With a
// tracer every engine is wrapped so its stage calls are recorded; shards > 1
// runs each replica's sharded gather tier (which needs the bare engine).
func (r *rig) serve(tr *tracer, shards int) (target, error) {
	opts := microrec.ServerOptions{
		Batching: microrec.BatchingOptions{MaxBatch: r.w.maxBatch, Window: batchWindow},
		Pipeline: microrec.PipelineOptions{Depth: 3},
		Tier:     microrec.TierOptions{Shards: shards},
	}
	engine := func(i int) microrec.ServingEngine {
		if tr != nil {
			return &tracedEngine{Engine: r.engines[i], tr: tr, replica: uint8(i)}
		}
		return r.engines[i]
	}
	if r.w.replicas == 1 {
		return serving.New(engine(0), opts)
	}
	rt, err := microrec.NewRouter(microrec.RouterOptions{Policy: microrec.RouteAffinity})
	if err != nil {
		return nil, err
	}
	for i := range r.engines {
		// The rig owns the engines, so the router gets no closer.
		if _, err := rt.Add(engine(i), opts, nil); err != nil {
			rt.Close()
			return nil, err
		}
	}
	return rt, nil
}

// limitProcs pins the Go scheduler to at most two cores, the size the
// workloads' client counts were chosen for, and returns the setting.
func limitProcs() int {
	n := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(n)
	return n
}
