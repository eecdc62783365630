package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"microrec"
)

func TestRunDispatch(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no args: want error")
	}
	if err := run([]string{"bogus"}); err == nil {
		t.Error("unknown command: want error")
	}
	if err := run([]string{"help"}); err != nil {
		t.Errorf("help: %v", err)
	}
	if err := run([]string{"list"}); err != nil {
		t.Errorf("list: %v", err)
	}
}

func TestCmdExpSingle(t *testing.T) {
	if err := run([]string{"exp", "table5", "-items", "500"}); err != nil {
		t.Errorf("exp table5: %v", err)
	}
	if err := run([]string{"exp", "nope"}); err == nil {
		t.Error("unknown experiment: want error")
	}
	if err := run([]string{"exp"}); err == nil {
		t.Error("missing experiment: want error")
	}
	if err := run([]string{"exp", "table3", "-csv"}); err != nil {
		t.Errorf("exp table3 -csv: %v", err)
	}
}

func TestCmdPlan(t *testing.T) {
	if err := run([]string{"plan", "-model", "small"}); err != nil {
		t.Errorf("plan small: %v", err)
	}
	if err := run([]string{"plan", "-model", "small", "-no-cartesian", "-v"}); err != nil {
		t.Errorf("plan -no-cartesian -v: %v", err)
	}
	if err := run([]string{"plan", "-model", "bogus"}); err == nil {
		t.Error("unknown model: want error")
	}
}

func TestCmdInfer(t *testing.T) {
	if err := run([]string{"infer", "-model", "small", "-n", "2"}); err != nil {
		t.Errorf("infer: %v", err)
	}
	if err := run([]string{"infer", "-model", "small", "-n", "2", "-fp32", "-zipf"}); err != nil {
		t.Errorf("infer fp32 zipf: %v", err)
	}
}

func TestCmdSpec(t *testing.T) {
	if err := run([]string{"spec", "-model", "small"}); err != nil {
		t.Errorf("spec: %v", err)
	}
	if err := run([]string{"spec", "-model", "large", "-json"}); err != nil {
		t.Errorf("spec -json: %v", err)
	}
	if err := run([]string{"spec", "-model", "nope"}); err == nil {
		t.Error("bad model: want error")
	}
}

func TestCmdTrace(t *testing.T) {
	out := t.TempDir() + "/trace.json"
	if err := run([]string{"trace", "-items", "4", "-o", out}); err != nil {
		t.Fatalf("trace: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace output is not JSON: %v", err)
	}
	// 4 items x 12 stages (lookup + 3x(bcast,gemm,gather) + output + sigmoid).
	if len(events) != 4*12 {
		t.Errorf("trace has %d events, want 48", len(events))
	}
	if err := run([]string{"trace", "-model", "bogus"}); err == nil {
		t.Error("bad model: want error")
	}
}

// testMux builds the HTTP API around a small engine and a batched server.
func testMux(t testing.TB, opts microrec.ServerOptions) (*http.ServeMux, *microrec.Engine) {
	t.Helper()
	spec := microrec.SmallProductionModel()
	eng, err := microrec.NewEngine(spec, microrec.EngineOptions{Seed: 1, MaxRowsPerTable: 64})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := microrec.NewServer(eng, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return newServeMux(eng, srv, false), eng
}

// TestServeMuxPredict covers the happy path of the batched /predict.
func TestServeMuxPredict(t *testing.T) {
	mux, _ := testMux(t, microrec.ServerOptions{Batching: microrec.BatchingOptions{MaxBatch: 4}})
	gen, err := microrec.NewGenerator(microrec.SmallProductionModel(), microrec.Uniform, 3)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(predictRequest{Indices: gen.Next()})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("POST", "/predict", strings.NewReader(string(body))))
	if rec.Code != 200 {
		t.Fatalf("/predict = %d: %s", rec.Code, rec.Body.String())
	}
	var resp predictResponse
	if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.CTR < 0 || resp.CTR > 1 {
		t.Errorf("CTR = %v", resp.CTR)
	}
	if resp.WallTimeUS <= 0 {
		t.Errorf("wall time = %v", resp.WallTimeUS)
	}
	if resp.BatchSize < 1 {
		t.Errorf("batch size = %d", resp.BatchSize)
	}
}

// TestServeMuxErrors drives every /predict error path through the batched
// handler.
func TestServeMuxErrors(t *testing.T) {
	mux, _ := testMux(t, microrec.ServerOptions{Batching: microrec.BatchingOptions{MaxBatch: 4}})
	cases := []struct {
		name   string
		method string
		body   string
		want   int
	}{
		{"non-POST", "GET", "", http.StatusMethodNotAllowed},
		{"malformed JSON", "POST", "{bad json", http.StatusBadRequest},
		{"wrong table count", "POST", `{"indices":[[0]]}`, http.StatusBadRequest},
		{"empty body", "POST", "", http.StatusBadRequest},
		{"out-of-range index", "POST", badIndexBody(t), http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest(tc.method, "/predict", strings.NewReader(tc.body)))
			if rec.Code != tc.want {
				t.Errorf("%s /predict (%s) = %d, want %d: %s", tc.method, tc.name, rec.Code, tc.want, rec.Body.String())
			}
		})
	}
}

// badIndexBody builds a shape-correct request whose first index is out of
// range.
func badIndexBody(t testing.TB) string {
	t.Helper()
	gen, err := microrec.NewGenerator(microrec.SmallProductionModel(), microrec.Uniform, 4)
	if err != nil {
		t.Fatal(err)
	}
	q := gen.Next()
	q[0][0] = microrec.SmallProductionModel().Tables[0].Rows + 10
	body, err := json.Marshal(predictRequest{Indices: q})
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestServeMuxModelShape golden-checks the /model JSON shape.
func TestServeMuxModelShape(t *testing.T) {
	mux, _ := testMux(t, microrec.ServerOptions{Batching: microrec.BatchingOptions{MaxBatch: 4}})
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/model", nil))
	if rec.Code != 200 {
		t.Fatalf("/model = %d", rec.Code)
	}
	var raw map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"name", "tables", "feature_len", "precision_bits"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("/model missing %q: %v", key, raw)
		}
	}
	if _, ok := raw["lookup_ns"]; ok {
		t.Errorf("/model reports the modelled accelerator's lookup_ns: %v", raw)
	}
	var info modelInfoResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Tables != 47 || info.FeatureLen != 352 || info.Name != "production-small" {
		t.Errorf("/model = %+v", info)
	}

	// Health check rides along.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Errorf("/healthz = %d", rec.Code)
	}
}

// TestServeMuxStatsAfterBurst fires a burst of concurrent /predict requests
// and checks /stats reports non-zero tail latency and batch occupancy.
func TestServeMuxStatsAfterBurst(t *testing.T) {
	mux, _ := testMux(t, microrec.ServerOptions{Batching: microrec.BatchingOptions{MaxBatch: 8}})
	gen, err := microrec.NewGenerator(microrec.SmallProductionModel(), microrec.Zipf, 5)
	if err != nil {
		t.Fatal(err)
	}
	bodies := make([]string, 32)
	for i := range bodies {
		b, err := json.Marshal(predictRequest{Indices: gen.Next()})
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = string(b)
	}
	var wg sync.WaitGroup
	for _, body := range bodies {
		wg.Add(1)
		go func(body string) {
			defer wg.Done()
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest("POST", "/predict", strings.NewReader(body)))
			if rec.Code != 200 {
				t.Errorf("/predict = %d: %s", rec.Code, rec.Body.String())
			}
		}(body)
	}
	wg.Wait()

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	if rec.Code != 200 {
		t.Fatalf("/stats = %d", rec.Code)
	}
	var raw map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"max_batch", "queries", "batches", "qps", "latency_us", "mean_batch", "batch_occupancy"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("/stats missing %q: %v", key, raw)
		}
	}
	var st microrec.ServerStats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Queries != 32 {
		t.Errorf("queries = %d, want 32", st.Queries)
	}
	if st.LatencyUS.P99 <= 0 {
		t.Errorf("p99 latency = %v, want > 0", st.LatencyUS.P99)
	}
	if st.BatchOccupancy <= 0 || st.MeanBatch <= 0 {
		t.Errorf("occupancy = %v, mean batch = %v, want > 0", st.BatchOccupancy, st.MeanBatch)
	}
}

// TestServeMuxStatsHotCache enables the live hot-row cache (the -hotcache
// flag's engine option) and checks /stats surfaces its hit rate and
// effective lookup latency.
func TestServeMuxStatsHotCache(t *testing.T) {
	spec := microrec.SmallProductionModel()
	eng, err := microrec.NewEngine(spec, microrec.EngineOptions{Seed: 1, MaxRowsPerTable: 64, HotCacheBytes: 1 << 18})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := microrec.NewServer(eng, microrec.ServerOptions{Batching: microrec.BatchingOptions{MaxBatch: 8}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mux := newServeMux(eng, srv, false)

	gen, err := microrec.NewGenerator(spec, microrec.Zipf, 7)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(predictRequest{Indices: gen.Next()})
	if err != nil {
		t.Fatal(err)
	}
	// Repeat one query so the cache warms deterministically.
	for i := 0; i < 6; i++ {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("POST", "/predict", strings.NewReader(string(body))))
		if rec.Code != 200 {
			t.Fatalf("/predict = %d: %s", rec.Code, rec.Body.String())
		}
	}

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	if rec.Code != 200 {
		t.Fatalf("/stats = %d", rec.Code)
	}
	var st microrec.ServerStats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.HotCache == nil {
		t.Fatalf("/stats missing hotcache section: %s", rec.Body.String())
	}
	if st.HotCache.Hits == 0 {
		t.Error("repeated query produced no cache hits")
	}
	if st.HotCache.HitRate <= 0 || st.HotCache.HitRate > 1 {
		t.Errorf("hit rate %v out of (0, 1]", st.HotCache.HitRate)
	}
}

// TestServeFlagValidationHotCache checks cmdServe rejects a negative cache
// capacity.
func TestServeFlagValidationHotCache(t *testing.T) {
	if err := run([]string{"serve", "-hotcache", "-1"}); err == nil {
		t.Error("negative -hotcache: want error")
	}
}

// TestServeFlagValidation drives cmdServe's flag rejection paths, including
// the drain flags: depth below 2 for the pipeline, below 1 for the worker
// pool, the removed -workers flag, and nonsense numeric flags.
func TestServeFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"zero batch", []string{"serve", "-batch", "0"}},
		{"removed window flag", []string{"serve", "-window", "200us"}},
		{"removed workers flag", []string{"serve", "-workers", "2"}},
		{"pipeline depth 1", []string{"serve", "-pipeline-depth", "1"}},
		{"pipeline depth 0", []string{"serve", "-pipeline-depth", "0"}},
		{"worker pool depth 0", []string{"serve", "-worker-pool", "-pipeline-depth", "0"}},
		{"negative hotcache", []string{"serve", "-hotcache", "-1"}},
		{"unknown model", []string{"serve", "-model", "bogus"}},
		{"unparseable flag", []string{"serve", "-batch", "many"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := run(tc.args); err == nil {
				t.Errorf("%v: want error", tc.args)
			}
		})
	}
}

// TestServeMuxPipelineOptions builds the serving stack exactly as cmdServe
// does for the accepted flag combinations — the default pipelined drain with
// an explicit -pipeline-depth, and -worker-pool with -pipeline-depth 1 (one
// worker) — and checks /stats reflects the drain mode and depth.
func TestServeMuxPipelineOptions(t *testing.T) {
	mux, _ := testMux(t, microrec.ServerOptions{
		Batching: microrec.BatchingOptions{MaxBatch: 4},
		Pipeline: microrec.PipelineOptions{Depth: 4},
	})
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	var st microrec.ServerStats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Mode != "pipeline" || st.Pipeline == nil || st.Pipeline.Depth != 4 {
		t.Errorf("pipelined /stats = %+v", st)
	}

	mux, _ = testMux(t, microrec.ServerOptions{
		Batching: microrec.BatchingOptions{MaxBatch: 4},
		Pipeline: microrec.PipelineOptions{WorkerPool: true, Depth: 1},
	})
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	st = microrec.ServerStats{} // absent keys leave stale fields on reuse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Mode != "worker-pool" || st.Pipeline == nil || st.Pipeline.Depth != 1 {
		t.Errorf("worker-pool /stats = %+v", st)
	}
}

// TestServeMuxStatsPipelineSection checks the JSON wire shape of the /stats
// pipeline block after a burst of pipelined /predict traffic.
func TestServeMuxStatsPipelineSection(t *testing.T) {
	mux, _ := testMux(t, microrec.ServerOptions{Batching: microrec.BatchingOptions{MaxBatch: 8}})
	gen, err := microrec.NewGenerator(microrec.SmallProductionModel(), microrec.Zipf, 13)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		body, err := json.Marshal(predictRequest{Indices: gen.Next()})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(body string) {
			defer wg.Done()
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest("POST", "/predict", strings.NewReader(body)))
			if rec.Code != 200 {
				t.Errorf("/predict = %d: %s", rec.Code, rec.Body.String())
			}
		}(string(body))
	}
	wg.Wait()

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	var raw map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	pipe, ok := raw["pipeline"].(map[string]any)
	if !ok {
		t.Fatalf("/stats missing pipeline section: %v", raw)
	}
	for _, key := range []string{"depth", "in_flight", "completed", "stages", "measured_interval_us", "predicted_interval_us", "serial_interval_us"} {
		if _, ok := pipe[key]; !ok {
			t.Errorf("/stats pipeline missing %q: %v", key, pipe)
		}
	}
	stages, ok := pipe["stages"].([]any)
	if !ok || len(stages) != 3 {
		t.Fatalf("pipeline stages = %v", pipe["stages"])
	}
	first, ok := stages[0].(map[string]any)
	if !ok || first["name"] != "gather" {
		t.Errorf("first stage = %v, want gather", stages[0])
	}
}

// TestServeMuxOverloadResponses drives /predict into the shed path: a tiny
// bounded queue with -shed semantics must answer 429 with a Retry-After
// header once the burst outruns the drain.
func TestServeMuxOverloadResponses(t *testing.T) {
	// One-request batches on two planes behind a one-slot queue keep the
	// server's total internal buffering far below the burst size, so sheds
	// are guaranteed.
	mux, _ := testMux(t, microrec.ServerOptions{
		Batching:  microrec.BatchingOptions{MaxBatch: 1},
		Admission: microrec.AdmissionOptions{QueueDepth: 1, Shed: true},
		Pipeline:  microrec.PipelineOptions{Depth: 2},
	})
	gen, err := microrec.NewGenerator(microrec.SmallProductionModel(), microrec.Uniform, 9)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(predictRequest{Indices: gen.Next()})
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg            sync.WaitGroup
		mu            sync.Mutex
		okCount       int
		overloaded    int
		missingHeader int
	)
	// Concurrent bursts against a depth-1 queue at batch 1: the drain
	// serves one query at a time, so the queue must eventually be caught
	// full. Waves repeat under a time budget because a single-core
	// scheduler can interleave one wave's submits with the drain.
	deadline := time.Now().Add(10 * time.Second)
	for {
		for i := 0; i < 64; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rec := httptest.NewRecorder()
				mux.ServeHTTP(rec, httptest.NewRequest("POST", "/predict", strings.NewReader(string(body))))
				mu.Lock()
				defer mu.Unlock()
				switch rec.Code {
				case http.StatusOK:
					okCount++
				case http.StatusTooManyRequests:
					overloaded++
					if rec.Header().Get("Retry-After") == "" {
						missingHeader++
					}
				default:
					t.Errorf("/predict = %d: %s", rec.Code, rec.Body.String())
				}
			}()
		}
		wg.Wait()
		mu.Lock()
		done := overloaded > 0
		mu.Unlock()
		if done || time.Now().After(deadline) {
			break
		}
	}
	if overloaded == 0 {
		t.Fatal("bursts into a depth-1 queue shed nothing")
	}
	if okCount == 0 {
		t.Error("no request served")
	}
	if missingHeader > 0 {
		t.Errorf("%d 429 responses missing the Retry-After header", missingHeader)
	}

	// /stats surfaces the admission section with the shed count.
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	var raw map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	adm, ok := raw["admission"].(map[string]any)
	if !ok {
		t.Fatalf("/stats missing admission section: %v", raw)
	}
	for _, key := range []string{"queue_depth", "queue_capacity", "shedding", "shed", "deadline_drops", "cancel_drops", "late_completions", "knee_qps", "retry_after_ms"} {
		if _, ok := adm[key]; !ok {
			t.Errorf("/stats admission missing %q: %v", key, adm)
		}
	}
	if shed, _ := adm["shed"].(float64); shed == 0 {
		t.Errorf("admission shed = %v, want > 0", adm["shed"])
	}
	if shedding, _ := adm["shedding"].(bool); !shedding {
		t.Error("admission shedding = false on a shedding server")
	}
}

// TestCmdLoadtest runs the loadtest subcommand at a tiny scale with an
// explicit ladder and golden-checks the emitted JSON document.
func TestCmdLoadtest(t *testing.T) {
	out := t.TempDir() + "/loadtest.json"
	if err := run([]string{"loadtest", "-n", "60", "-loads", "300,600", "-sla", "100ms", "-batch", "8", "-o", out}); err != nil {
		t.Fatalf("loadtest: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep loadtestReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("loadtest output is not JSON: %v", err)
	}
	if rep.Benchmark != "loadtest" || rep.Model != "production-small" {
		t.Errorf("report header = %+v", rep)
	}
	if rep.SLAMS != 100 || rep.RequestsPerLoad != 60 {
		t.Errorf("report config: sla %v ms, n %d", rep.SLAMS, rep.RequestsPerLoad)
	}
	if len(rep.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(rep.Points))
	}
	for i, want := range []float64{300, 600} {
		p := rep.Points[i]
		if p.TargetQPS != want || p.Offered != 60 {
			t.Errorf("point %d = %+v", i, p)
		}
		if p.Admitted+p.Shed+p.Expired+p.Failed != p.Offered {
			t.Errorf("point %d classification leak: %+v", i, p)
		}
		if p.LateP99US <= 0 {
			t.Errorf("point %d reports no generator lateness: %+v", i, p)
		}
	}
	if !strings.Contains(string(data), `"late_p99_us"`) || strings.Contains(string(data), `"window_us"`) {
		t.Error("loadtest document: want late_p99_us per point and no window_us")
	}
	if rep.PredictedCapacityQPS <= 0 {
		t.Errorf("predicted capacity = %v", rep.PredictedCapacityQPS)
	}

	// Flag rejection paths.
	for _, bad := range [][]string{
		{"loadtest", "-n", "10"},
		{"loadtest", "-sla", "0s"},
		{"loadtest", "-loads", "100,abc"},
		{"loadtest", "-loads", "200,100"},
		{"loadtest", "-tol", "1.5"},
		{"loadtest", "-queue", "-1"},
		{"loadtest", "-model", "bogus"},
	} {
		if err := run(bad); err == nil {
			t.Errorf("%v: want error", bad)
		}
	}
}

// TestServeFlagValidationAdmission drives cmdServe's new admission flags
// through their rejection paths.
func TestServeFlagValidationAdmission(t *testing.T) {
	for _, bad := range [][]string{
		{"serve", "-queue", "-1"},
		{"serve", "-sla", "-1s"},
	} {
		if err := run(bad); err == nil {
			t.Errorf("%v: want error", bad)
		}
	}
}

// TestServeRefusesUnmeetableSLA checks serve times its admission bound
// before listening and refuses a budget no full batch can meet. The listen
// address is invalid, so a server that wrongly passed validation fails fast
// instead of serving.
func TestServeRefusesUnmeetableSLA(t *testing.T) {
	err := run([]string{"serve", "-addr", "127.0.0.1:-1", "-sla", "1us"})
	if err == nil || !strings.Contains(err.Error(), "violate the SLA budget") {
		t.Fatalf("serve -sla 1us: err %v, want one naming the violated SLA budget", err)
	}
}
