package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"microrec"
)

// benchResult is one batch size's measured serving performance.
type benchResult struct {
	Batch         int     `json:"batch"`
	NSPerQuery    float64 `json:"ns_per_query"`
	QueriesPerSec float64 `json:"queries_per_sec"`
	MeanBatch     float64 `json:"mean_batch"`
	// MeasuredIntervalUS / PredictedIntervalUS report the pipelined drain's
	// steady-state batch interval (measured vs pipesim; 0 in worker-pool
	// mode or when too few batches completed).
	MeasuredIntervalUS  float64 `json:"measured_interval_us,omitempty"`
	PredictedIntervalUS float64 `json:"predicted_interval_us,omitempty"`
}

// benchReport is the JSON document `microrec bench` emits (BENCH_serve.json
// via `make bench-json`), tracking the serving perf trajectory across PRs.
type benchReport struct {
	Benchmark string `json:"benchmark"`
	Model     string `json:"model"`
	Mode      string `json:"mode"`
	// Shards is the scatter/gather tier's shard count (1 = single engine).
	Shards int `json:"shards"`
	// Replicas/Route describe the replicated tier when the run used
	// -replicas > 1 (absent on single-replica runs, keeping the committed
	// baseline schema unchanged). benchdiff refuses cross-topology pairs:
	// N replicas' aggregate ns/query is not one datapath's.
	Replicas   int    `json:"replicas,omitempty"`
	Route      string `json:"route,omitempty"`
	Queries    int    `json:"queries_per_batch_size"`
	GoMaxProcs int    `json:"gomaxprocs"`
	// Kernels records which optimized datapath kernels the producing build
	// selected (microrec.KernelFeatures; "portable" under the noasm tag).
	// Empty in documents predating the kernel layer.
	Kernels   string `json:"kernels,omitempty"`
	Timestamp string `json:"timestamp"`
	// BuildInfo names the commit and toolchain that produced the document
	// (absent in documents predating the provenance stamp). benchdiff's
	// -require-same-commit gate compares these.
	BuildInfo *microrec.BuildInfo `json:"build_info,omitempty"`
	// Tier records the tiered-store configuration and end-of-run counters
	// when the run used -cold-tier (absent on all-DRAM runs, keeping the
	// committed baseline schema unchanged).
	Tier    *microrec.TierStats `json:"tier,omitempty"`
	Results []benchResult       `json:"results"`
}

// parseBatchList parses a comma-separated batch-size list ("1,16,64").
func parseBatchList(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		b, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || b < 1 {
			return nil, fmt.Errorf("bench: bad batch size %q in -batches", p)
		}
		out = append(out, b)
	}
	return out, nil
}

// benchTarget is the slice of the serving tier the bench loop drives: a
// single *microrec.Server or a *microrec.Router over N replicas.
type benchTarget interface {
	Submit(ctx context.Context, q microrec.Query) (microrec.ServeResult, error)
	Stats() microrec.ServerStats
}

// benchServe drives n queries through a fresh serving target at one batch
// size and measures wall-clock ns/query from concurrent submitters (the same
// shape as BenchmarkServeBatched/Pipelined, minus the testing harness).
func benchServe(srv benchTarget, qs []microrec.Query, batch, n int) (benchResult, error) {
	benchCtx := context.Background()

	submitters := 4 * batch
	if submitters > 128 {
		submitters = 128
	}
	if submitters > n {
		submitters = n
	}
	run := func(total int) error {
		var (
			wg       sync.WaitGroup
			mu       sync.Mutex
			firstErr error
		)
		// Distribute the remainder so exactly `total` queries are timed
		// regardless of the submitter count.
		base, extra := total/submitters, total%submitters
		for g := 0; g < submitters; g++ {
			per := base
			if g < extra {
				per++
			}
			wg.Add(1)
			go func(g, per int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					if _, err := srv.Submit(benchCtx, qs[(g*base+i)%len(qs)]); err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
						return
					}
				}
			}(g, per)
		}
		wg.Wait()
		return firstErr
	}
	// Warm the planes, caches and timing memo before the measured run.
	if err := run(n / 4); err != nil {
		return benchResult{}, err
	}
	start := time.Now()
	if err := run(n); err != nil {
		return benchResult{}, err
	}
	elapsed := time.Since(start)

	st := srv.Stats()
	res := benchResult{
		Batch:         batch,
		NSPerQuery:    float64(elapsed.Nanoseconds()) / float64(n),
		QueriesPerSec: float64(n) / elapsed.Seconds(),
		MeanBatch:     st.MeanBatch,
	}
	if st.Pipeline != nil {
		res.MeasuredIntervalUS = st.Pipeline.MeasuredIntervalUS
		res.PredictedIntervalUS = st.Pipeline.PredictedIntervalUS
	}
	return res, nil
}

func cmdBench(args []string) error {
	fs := newFlagSet("bench")
	modelName := fs.String("model", "small", "model: small or large")
	out := fs.String("o", "BENCH_serve.json", "output JSON path (- for stdout only)")
	n := fs.Int("n", 4096, "queries per batch size")
	batches := fs.String("batches", "1,16,64", "comma-separated micro-batch sizes")
	workerPool := fs.Bool("worker-pool", false, "bench the worker-pool drain instead of the staged pipeline")
	pipelineDepth := fs.Int("pipeline-depth", 3, "plane-ring depth of the pipelined drain")
	topo := addTopologyFlags(fs)
	applyColdTier := addColdTierFlags(fs, "bench")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n < 4 {
		return fmt.Errorf("bench: -n must be >= 4 (got %d)", *n)
	}
	if err := topo.validate("bench"); err != nil {
		return err
	}
	sizes, err := parseBatchList(*batches)
	if err != nil {
		return err
	}
	spec, _, err := specByName(*modelName)
	if err != nil {
		return err
	}
	engOpts := microrec.EngineOptions{Seed: 1, MaxRowsPerTable: 4096}
	if err := applyColdTier(&engOpts); err != nil {
		return err
	}
	// One engine per replica (same seed: bit-identical), shared across the
	// batch-size ladder — the routers below borrow them without owning them.
	engines := make([]*microrec.Engine, *topo.replicas)
	for i := range engines {
		eng, err := microrec.NewEngine(spec, engOpts)
		if err != nil {
			return err
		}
		defer eng.Close()
		engines[i] = eng
	}
	eng := engines[0]
	gen, err := microrec.NewGenerator(spec, microrec.Zipf, 11)
	if err != nil {
		return err
	}
	qs := make([]microrec.Query, 512)
	for i := range qs {
		qs[i] = gen.Next()
	}

	rep := benchReport{
		Benchmark:  "serve",
		Model:      spec.Name,
		Mode:       "pipeline",
		Shards:     *topo.shards,
		Queries:    *n,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Kernels:    microrec.KernelFeatures(),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}
	if topo.routed() {
		rep.Replicas = *topo.replicas
		rep.Route = string(topo.policy)
	}
	bi := microrec.ReadBuildInfo()
	rep.BuildInfo = &bi
	opts := microrec.ServerOptions{
		Pipeline: microrec.PipelineOptions{Depth: *pipelineDepth, WorkerPool: *workerPool},
		Tier:     microrec.TierOptions{Shards: *topo.shards},
	}
	if *workerPool {
		rep.Mode = "worker-pool"
	}
	// With -o - the JSON document owns stdout; progress goes to stderr so
	// the output stays machine-parseable (CI pipes it straight into jq).
	progress := os.Stdout
	if *out == "-" {
		progress = os.Stderr
	}
	for _, b := range sizes {
		res, err := func() (benchResult, error) {
			bopts := opts
			bopts.Batching.MaxBatch = b
			if topo.routed() {
				rt, err := microrec.NewRouter(microrec.RouterOptions{Policy: topo.policy})
				if err != nil {
					return benchResult{}, err
				}
				defer rt.Close()
				for _, e := range engines {
					// nil closer: the engines outlive this batch size's router.
					if _, err := rt.Add(e, bopts, nil); err != nil {
						return benchResult{}, err
					}
				}
				return benchServe(rt, qs, b, *n)
			}
			srv, err := microrec.NewServer(eng, bopts)
			if err != nil {
				return benchResult{}, err
			}
			defer srv.Close()
			return benchServe(srv, qs, b, *n)
		}()
		if err != nil {
			return fmt.Errorf("bench: batch %d: %w", b, err)
		}
		rep.Results = append(rep.Results, res)
		fmt.Fprintf(progress, "batch %3d: %10.0f ns/query  %9.0f queries/s  (mean batch %.1f)\n",
			b, res.NSPerQuery, res.QueriesPerSec, res.MeanBatch)
	}
	rep.Tier = tierSnapshot(eng)

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
