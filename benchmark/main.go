// Command benchmark is the repository's performance benchmark: four fixed
// workloads measured end to end with tracing off, and a traced pass that
// attributes a request's time to the layers it crossed. README.md explains
// what each workload is for and which layer number should move which
// end-to-end number; ../BENCHMARK.json names every metric.
//
// Run from this directory:
//
//	go run . -workload dense_sat -seed 1 -seconds 12 -trace 0   # one workload, end-to-end metrics
//	go run . -workload dense_sat -seed 1 -seconds 12 -trace 1   # its per-layer metrics
//	go run . -seed 1                                            # all four, both passes, each in its own process
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
// Any wrong prediction makes the command exit non-zero.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"microrec"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, value float64, unit string) {
	m[name] = metric{Value: value, Unit: unit}
}

// result is what one run reports, and the shape of the final output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func (r *result) add(attempted, failed int) {
	r.Attempted += attempted
	r.Failed += failed
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+workloadNames()+" (default: all, each in a child process)")
		seed    = flag.Int64("seed", 1, "seed of the generated queries, the only input that changes them")
		seconds = flag.Float64("seconds", 12, "length of one measured window in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from the traced pass")
		dir     = flag.String("out", "out", "directory for cold-tier files and trace dumps")
	)
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	window := time.Duration(*seconds * float64(time.Second))
	var (
		res result
		err error
	)
	if *name == "" {
		res, err = runAll(*seed, *seconds, *dir)
	} else if w, ok := findWorkload(*name); !ok {
		err = fmt.Errorf("unknown workload %q (have %s)", *name, workloadNames())
	} else {
		printHost(limitProcs())
		if *trace == 1 {
			res, err = runTraced(w, *seed, window, *dir)
		} else {
			res, err = runTimed(w, *seed, window, *dir)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func printHost(procs int) {
	bi := microrec.ReadBuildInfo()
	fmt.Printf("# host: nproc %d, GOMAXPROCS %d, kernels.features %s, %s, revision %s dirty=%t\n",
		runtime.NumCPU(), procs, microrec.KernelFeatures(), bi.GoVersion, bi.Revision, bi.Dirty)
}

func printMetrics(m metrics) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}

// measure runs one warm-up plus window of the workload's load: the closed
// loop against a freshly started serving composition, or the gather loop on
// the bare (or wrapped) engine.
func measure(r *rig, tr *tracer, shards int, epoch time.Time, window time.Duration) (*run, microrec.ServerStats, error) {
	if r.w.replicas == 0 {
		var eng stageEngine = r.engines[0]
		if tr != nil {
			eng = &tracedEngine{Engine: r.engines[0], tr: tr}
		}
		return gatherLoop(eng, r, tr, epoch, window), microrec.ServerStats{}, nil
	}
	tgt, err := r.serve(tr, shards)
	if err != nil {
		return nil, microrec.ServerStats{}, err
	}
	if rt, ok := tgt.(*microrec.Router); ok {
		// The engines outlive each pass; the mark makes the router's pooled
		// hit rate cover this pass only.
		rt.MarkHitRateBaseline()
	}
	before := tgt.Stats()
	out := closedLoop(tgt, r, tr, epoch, window)
	after := tgt.Stats()
	if err := tgt.Close(); err != nil {
		return nil, after, err
	}
	return out, statsDelta(before, after), nil
}

// statsDelta subtracts the engine-lifetime counters a pass started with, so
// the set-up's own inference and earlier passes do not dilute them.
func statsDelta(before, after microrec.ServerStats) microrec.ServerStats {
	if b, a := before.HotCache, after.HotCache; b != nil && a != nil {
		a.Hits -= b.Hits
		a.Misses -= b.Misses
		a.HitRate = 0
		if a.Hits+a.Misses > 0 {
			a.HitRate = float64(a.Hits) / float64(a.Hits+a.Misses)
		}
	}
	if b, a := before.Tiers, after.Tiers; b != nil && a != nil {
		a.HotReads -= b.HotReads
		a.ColdReads -= b.ColdReads
		a.Promotions -= b.Promotions
		a.HotReadRate = 0
		if a.HotReads+a.ColdReads > 0 {
			a.HotReadRate = float64(a.HotReads) / float64(a.HotReads+a.ColdReads)
		}
	}
	return after
}

// runTimed is the -trace 0 run: set-up (timed), warm-up, one measured window
// with tracing off, reduced to the four end-to-end metrics.
func runTimed(w workload, seed int64, window time.Duration, dir string) (result, error) {
	res := result{Metrics: metrics{}}
	r, setupS, err := timedSetups(w, seed, dir)
	if err != nil {
		return res, err
	}
	defer r.close()
	a, f, err := r.checkOracle(seed)
	res.add(a, f)
	if err != nil {
		return res, err
	}
	out, _, err := measure(r, nil, 0, time.Now(), window)
	if err != nil {
		return res, err
	}
	rss := peakRSSMB()
	res.add(out.counts())
	e := reduce(out, w)
	res.Metrics.set("qps", e.reportedQPS(), "1/s")
	res.Metrics.set("lat_p50_us", e.reportedLatUS(), "us")
	res.Metrics.set("rss_mb", rss, "MB")
	res.Metrics.set("setup_s", setupS, "s")
	fmt.Printf("# %s seed %d: %d requests in %.1f s, %d failed; quartiles over %d slices\n",
		w.name, seed, len(out.reqs), out.seconds(), res.Failed, e.qps.Slices)
	fmt.Printf("# qps q1 %.1f median %.1f q3 %.1f; lat_p50_us q1 %.1f median %.1f q3 %.1f; lat p%g %.1f us over %d samples\n",
		e.qps.Q1, e.qps.Median, e.qps.Q3, e.latP50.Q1, e.latP50.Median, e.latP50.Q3, e.tailP, e.tail, len(out.reqs))
	printMetrics(res.Metrics)
	return res, nil
}

// runTraced is the -trace 1 run: the workload measured untraced, traced and
// with sharded gather, then the workload-independent probes with their
// open-loop run, a quarter of the window each. It reports every per-layer
// metric; a layer the workload does not have (no router, no tier, no server)
// reads 0.
func runTraced(w workload, seed int64, window time.Duration, dir string) (result, error) {
	res := result{Metrics: metrics{}}
	m := res.Metrics
	pass := window / 4
	r, err := setup(w, seed, dir)
	if err != nil {
		return res, err
	}
	defer r.close()
	a, f, err := r.checkOracle(seed)
	res.add(a, f)
	if err != nil {
		return res, err
	}

	untraced, _, err := measure(r, nil, 0, time.Now(), pass)
	if err != nil {
		return res, err
	}
	res.add(untraced.counts())

	epoch := time.Now()
	passSeconds := (warmupFor(pass) + pass).Seconds()
	// Room for the busiest workload seen (light_closed: ~6 k small batches
	// of three spans a second) with a factor of two to spare.
	tr := newTracer(epoch, r.pool, int(passSeconds*40000)+4096)
	traced, st, err := measure(r, tr, 0, epoch, pass)
	if err != nil {
		return res, err
	}
	res.add(traced.counts())
	if err := writeTrace(dir+"/trace-"+w.name+".json", w, seed, tr, traced); err != nil {
		return res, err
	}
	l := account(tr, traced, w)
	if l.dropped > 0 || l.unmatched > 0 {
		fmt.Fprintf(os.Stderr, "%s: trace buffer dropped %d spans, %d requests unmatched\n", w.name, l.dropped, l.unmatched)
	}
	m.set("core.gather_busy_frac", l.busy[stageGather]+l.busy[stagePrefetch], "frac")
	m.set("core.dense_busy_frac", l.busy[stageDense], "frac")
	m.set("core.tail_busy_frac", l.busy[stageTail], "frac")
	m.set("core.dense_us_per_batch", l.denseUSBatch, "us/batch")
	m.set("serving.mean_batch", l.meanBatch, "queries")
	m.set("serving.batch_fill", l.meanBatch/float64(w.maxBatch), "frac")
	m.set("serving.wait_us_p50", l.waitP50US, "us")
	m.set("pipeline.handoff_us_p50", l.handoffP50US, "us")
	m.set("serving.lat_p99_us", l.tailUS, "us")
	m.set("residual_frac", l.residual, "frac")
	uq, tq := reduce(untraced, w).reportedQPS(), reduce(traced, w).reportedQPS()
	m.set("obs.trace_overhead_frac", 1-tq/uq, "frac")
	fmt.Printf("# %s seed %d traced: %d requests in %.1f s, lat p50 %.1f us, p%g %.1f us; untraced %.1f qps, traced %.1f qps\n",
		w.name, seed, len(traced.reqs), traced.seconds(), l.latP50US, l.tailP, l.tailUS, uq, tq)

	// Counters the layers publish themselves. They feed only the accelerator
	// timing model today, so no end-to-end metric is expected to follow them.
	var hitRate, imbalance, cacheHit, hotRead, coldPerQuery, promotions float64
	if rs := st.Router; rs != nil {
		hitRate = rs.AggregateHitRate
		lo, hi := rs.PerReplica[0].Queries, rs.PerReplica[0].Queries
		for _, rep := range rs.PerReplica {
			lo, hi = min(lo, rep.Queries), max(hi, rep.Queries)
		}
		if lo > 0 {
			imbalance = float64(hi) / float64(lo)
		}
	}
	if hc := st.HotCache; hc != nil {
		cacheHit = hc.HitRate
	}
	if ts := st.Tiers; ts != nil && st.Queries > 0 {
		hotRead, promotions = ts.HotReadRate, float64(ts.Promotions)
		coldPerQuery = float64(ts.ColdReads) / float64(st.Queries)
	}
	m.set("router.hit_rate", hitRate, "frac")
	m.set("router.imbalance", imbalance, "ratio")
	m.set("hotcache.hit_rate", cacheHit, "frac")
	m.set("tieredstore.hot_read_rate", hotRead, "frac")
	m.set("tieredstore.cold_reads_per_query", coldPerQuery, "reads/query")
	m.set("tieredstore.promotions", promotions, "count")

	// Does sharding the gather inside each replica pay? (ROADMAP item 4d.)
	shardRatio := 0.0
	if w.replicas > 0 {
		sharded, _, err := measure(r, nil, 2, time.Now(), pass)
		if err != nil {
			return res, err
		}
		res.add(sharded.counts())
		shardRatio = reduce(sharded, w).reportedQPS() / uq
	}
	m.set("cluster.qps_ratio_shards2", shardRatio, "ratio")

	r.close()
	debug.FreeOSMemory()
	a, f, err = runProbes(m, seed, dir, pass)
	res.add(a, f)
	if err != nil {
		return res, err
	}
	printMetrics(m)
	return res, nil
}

// runAll runs every workload's timed and traced run, each in a child process
// so resident memory and GC state are per workload, and merges their results
// under "<workload>/<metric>".
func runAll(seed int64, seconds float64, dir string) (result, error) {
	res := result{Metrics: metrics{}}
	self, err := os.Executable()
	if err != nil {
		return res, err
	}
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			var stdout bytes.Buffer
			cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-out", dir)
			cmd.Stdout = io.MultiWriter(os.Stdout, &stdout)
			cmd.Stderr = os.Stderr
			runErr := cmd.Run()
			lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
			var child result
			if err := json.Unmarshal(lines[len(lines)-1], &child); err != nil {
				return res, fmt.Errorf("%s -trace %d: %v (no result line: %v)", w.name, trace, runErr, err)
			}
			res.add(child.Attempted, child.Failed)
			for n, v := range child.Metrics {
				res.Metrics[w.name+"/"+n] = v
			}
		}
	}
	return res, nil
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB; where /proc is
// missing it falls back to the memory the Go runtime obtained from the OS.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
