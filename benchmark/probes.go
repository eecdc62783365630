package main

import (
	"context"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"microrec"
	"microrec/internal/serving"
)

// The probes time single layers in isolation: one goroutine, no server, the
// same on every workload's traced run. They are what a kernel or gather
// change should move first; README.md says which end-to-end number each one
// predicts.

const (
	openRate = 1500
	openSLA  = 100 * time.Millisecond
)

// stageTimes are median ns per call of the three stage functions at one
// batch size.
type stageTimes struct{ gather, dense, tail float64 }

// probeStages runs gather, dense and tail back to back on one plane, timing
// each call, after one untimed pass over the pool. The plane is re-gathered
// before every dense call because the dense tower overwrites its input.
func probeStages(eng stageEngine, pool []microrec.Query, b, calls int) stageTimes {
	var plane microrec.BatchScratch
	eng.EnsurePlane(&plane, b)
	preds := make([]float32, b)
	batches := len(pool) / b
	warm := min(batches, calls/4+1)
	g, d, t := make([]float64, 0, calls), make([]float64, 0, calls), make([]float64, 0, calls)
	for n := 0; n < warm+calls; n++ {
		lo := n % batches * b
		t0 := time.Now()
		eng.GatherIntoPlane(pool[lo:lo+b], &plane)
		t1 := time.Now()
		eng.DenseFromPlane(b, &plane)
		t2 := time.Now()
		eng.TailFromPlane(b, &plane, preds)
		t3 := time.Now()
		if n >= warm {
			g = append(g, float64(t1.Sub(t0)))
			d = append(d, float64(t2.Sub(t1)))
			t = append(t, float64(t3.Sub(t2)))
		}
	}
	return stageTimes{median(g), median(d), median(t)}
}

// probeGather times the gather call alone (more calls, since it is cheap),
// after a full pass over the pool so a cache or hot tier has seen every key.
func probeGather(eng *microrec.Engine, pool []microrec.Query, b int) float64 {
	var plane microrec.BatchScratch
	eng.EnsurePlane(&plane, b)
	batches := len(pool) / b
	calls := 2 * scale.probeCalls
	g := make([]float64, 0, calls)
	for n := 0; n < batches+calls; n++ {
		lo := n % batches * b
		t0 := time.Now()
		eng.GatherIntoPlane(pool[lo:lo+b], &plane)
		if n >= batches {
			g = append(g, float64(time.Since(t0)))
		}
	}
	return median(g)
}

// runProbes fills m with every workload-independent per-layer metric: stage
// probes, the computed roofline figures, the cost of the residency layers and
// the open-loop diagnostic. It returns the operations attempted and failed in
// the open-loop run.
func runProbes(m metrics, seed int64, dir string, window time.Duration) (attempted, failed int, err error) {
	small := microrec.SmallProductionModel()
	params, err := small.Materialize(microrec.MaterializeOpts{Seed: engineSeed, MaxRowsPerTable: scale.tableRows})
	if err != nil {
		return 0, 0, err
	}
	pool, err := newPool(small, true, seed)
	if err != nil {
		return 0, 0, err
	}
	build := func(opts microrec.EngineOptions) (*microrec.Engine, error) {
		return buildEngine(small, params, opts, dir)
	}

	plain, err := build(microrec.EngineOptions{Precision: microrec.Fixed16})
	if err != nil {
		return 0, 0, err
	}
	defer plain.Close()
	// Infer validates the pool, which the stage calls below rely on, and its
	// predictions are what the open-loop replies are checked against.
	inferred, err := plain.Infer(pool)
	if err != nil {
		return 0, 0, err
	}
	macs := float64(small.MACsPerItem())
	lookups := float64(small.NumLookups())
	gatherBytes := 4 * float64(small.FeatureLen()-small.DenseDim)

	b1 := probeStages(plain, pool, 1, scale.probeCalls)
	b6 := probeStages(plain, pool, 6, scale.probeCalls)
	b64 := probeStages(plain, pool, 64, scale.probeCalls)
	m.set("core.gather_ns_per_query_b1", b1.gather, "ns/query")
	m.set("core.gather_ns_per_query_b64", b64.gather/64, "ns/query")
	m.set("core.dense_ns_per_query_b1", b1.dense, "ns/query")
	m.set("core.dense_ns_per_query_b6", b6.dense/6, "ns/query")
	m.set("core.dense_ns_per_query_b64", b64.dense/64, "ns/query")
	m.set("core.tail_ns_per_query_b64", b64.tail/64, "ns/query")
	// Computed, not measured: operation and byte counts from the spec's
	// dimensions over the probe times above.
	m.set("kernels.macs_per_ns_b1", macs/(b1.dense+b1.tail), "MAC/ns")
	m.set("kernels.macs_per_ns_b64", macs/((b64.dense+b64.tail)/64), "MAC/ns")
	m.set("core.gather_gbps_b64", gatherBytes/(b64.gather/64), "GB/s")

	one := make([]float64, 0, scale.probeCalls)
	for n := 0; n < scale.probeCalls; n++ {
		t0 := time.Now()
		if _, err := plain.InferOne(pool[n]); err != nil {
			return 0, 0, err
		}
		one = append(one, float64(time.Since(t0))/1e3)
	}
	m.set("core.infer_one_us", median(one), "us")

	wide, err := build(microrec.EngineOptions{Precision: microrec.Fixed32})
	if err != nil {
		return 0, 0, err
	}
	w64 := probeStages(wide, pool, 64, scale.probeCalls)
	wide.Close()
	m.set("core.dense_ns_per_query_b64_fixed32", w64.dense/64, "ns/query")
	m.set("kernels.macs_per_ns_b64_fixed32", macs/((w64.dense+w64.tail)/64), "MAC/ns")

	// Residency layers: the same gather probe with the hot-row cache, then
	// the tiered store, attached; the difference is what each costs a lookup.
	base := probeGather(plain, pool, 64)
	for _, layer := range []struct {
		metric string
		opts   microrec.EngineOptions
	}{
		{"hotcache.ns_per_lookup", microrec.EngineOptions{HotCacheBytes: 262144}},
		{"tieredstore.ns_per_lookup", microrec.EngineOptions{ColdTier: true}},
	} {
		eng, err := build(layer.opts)
		if err != nil {
			return 0, 0, err
		}
		with := probeGather(eng, pool, 64)
		eng.Close()
		m.set(layer.metric, (with-base)/64/lookups, "ns/lookup")
	}

	attempted, failed, err = openLoop(m, plain, pool, inferred.Predictions, seed, window)
	if err != nil {
		return attempted, failed, err
	}

	// The large model's gather, the isolated twin of embed_lookup.
	large := microrec.LargeProductionModel()
	lpool, err := newPool(large, false, seed)
	if err != nil {
		return attempted, failed, err
	}
	leng, err := buildEngine(large, nil, microrec.EngineOptions{Precision: microrec.Fixed16}, dir)
	if err != nil {
		return attempted, failed, err
	}
	defer leng.Close()
	for _, q := range lpool {
		if err := leng.ValidateQuery(q); err != nil {
			return attempted, failed, err
		}
	}
	m.set("core.gather_ns_per_query_b64_large", probeGather(leng, lpool, 64)/64, "ns/query")
	return attempted, failed, nil
}

// openLoop offers a Poisson stream at openRate to a light_closed-shaped
// server (MaxBatch 32) with shedding on and a 100 ms SLA. Each request is
// timed from when it was due, not from when the generator got round to
// sending it, so a stall charges every request it delayed; how late the
// generator itself ran, and how much CPU the host stole meanwhile, are
// reported beside the latencies so a bad tail can be told from a bad host.
// Diagnostic only: on a shared two-core host identical runs differ by
// several times in p99.
func openLoop(m metrics, eng *microrec.Engine, pool []microrec.Query, expected []float32, seed int64, window time.Duration) (attempted, failed int, err error) {
	srv, err := serving.New(eng, microrec.ServerOptions{
		Batching:  microrec.BatchingOptions{MaxBatch: 32, Window: batchWindow},
		Admission: microrec.AdmissionOptions{Shed: true, SLA: openSLA},
		Pipeline:  microrec.PipelineOptions{Depth: 3},
	})
	if err != nil {
		return 0, 0, err
	}
	defer srv.Close()

	type job struct {
		due  int64
		pool int
	}
	// offer is one open-loop request: refused means the server shed or
	// expired it, wrong that it answered with a different prediction.
	type offer struct {
		due, sent, done int64
		refused, wrong  bool
	}
	const senders = 256
	// Buffered to the sender count so the generator never blocks while a
	// sender is free; if all are busy the generator waits and runs late,
	// which loadgen.late_p99_us then shows.
	jobs := make(chan job, senders)
	per := make([][]offer, senders)
	epoch := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for j := range jobs {
				sent := int64(time.Since(epoch))
				r, err := srv.Submit(context.Background(), pool[j.pool])
				per[s] = append(per[s], offer{
					due: j.due, sent: sent, done: int64(time.Since(epoch)),
					refused: err != nil,
					wrong:   err == nil && math.Float32bits(r.CTR) != math.Float32bits(expected[j.pool]),
				})
			}
		}(s)
	}
	steal0, total0 := cpuJiffies()
	rng := rand.New(rand.NewSource(seed))
	warm := int64(warmupFor(window))
	end := warm + int64(window)
	due := int64(0)
	for n := 0; due < end; n++ {
		if wait := time.Duration(due) - time.Since(epoch); wait > 0 {
			time.Sleep(wait)
		}
		jobs <- job{due: due, pool: n % len(pool)}
		due += int64(rng.ExpFloat64() / openRate * 1e9)
	}
	close(jobs)
	wg.Wait()
	steal1, total1 := cpuJiffies()

	// A refused request is the server working as configured under an open
	// loop, so it counts against serving.open_fail_frac; only a wrong answer
	// is a failed operation of the benchmark.
	var lat, late []float64
	missed := 0
	for _, offers := range per {
		for _, o := range offers {
			if o.due < warm {
				continue
			}
			attempted++
			late = append(late, float64(o.sent-o.due)/1e3)
			switch {
			case o.wrong:
				failed++
				missed++
			case o.refused:
				missed++
			default:
				lat = append(lat, float64(o.done-o.due)/1e3)
			}
		}
	}
	lat, late = sorted(lat), sorted(late)
	m.set("serving.open_lat_p50_us", percentile(lat, 50), "us")
	m.set("serving.open_lat_p99_us", percentile(lat, tailPercentile(len(lat))), "us")
	m.set("serving.open_fail_frac", float64(missed)/float64(max(attempted, 1)), "frac")
	m.set("loadgen.late_p99_us", percentile(late, tailPercentile(len(late))), "us")
	stolen := 0.0
	if total1 > total0 {
		stolen = float64(steal1-steal0) / float64(total1-total0)
	}
	m.set("host.steal_frac", stolen, "frac")
	return attempted, failed, nil
}

// cpuJiffies reads the host's stolen and total CPU time from /proc/stat
// (zeros where it is not available).
func cpuJiffies() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		// Fields 9 and 10 (guest time) are already counted in user time.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
