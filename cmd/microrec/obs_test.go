package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"microrec"
)

// postBurst fires n concurrent /predict requests at the mux.
func postBurst(t *testing.T, mux *http.ServeMux, n int) {
	t.Helper()
	gen, err := microrec.NewGenerator(microrec.SmallProductionModel(), microrec.Zipf, 9)
	if err != nil {
		t.Fatal(err)
	}
	bodies := make([]string, n)
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
}

// TestServeMuxMetricsAndTrace drives traffic through the HTTP layer and
// checks both telemetry endpoints: /metrics parses as Prometheus exposition
// with the core families, /trace as a trace-event JSON array, and bad /trace
// parameters are rejected.
func TestServeMuxMetricsAndTrace(t *testing.T) {
	mux, _ := testMux(t, microrec.ServerOptions{Batching: microrec.BatchingOptions{MaxBatch: 8}, Trace: microrec.TraceOptions{Sample: 1}})
	postBurst(t, mux, 32)

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics content type %q", ct)
	}
	out := rec.Body.String()
	for _, family := range []string{"microrec_build_info", "microrec_queries_total", "microrec_latency_us_bucket", "microrec_trace_recorded_total"} {
		if !strings.Contains(out, family) {
			t.Errorf("/metrics missing %q", family)
		}
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/trace?last=16", nil))
	if rec.Code != 200 {
		t.Fatalf("/trace = %d: %s", rec.Code, rec.Body.String())
	}
	var events []microrec.TraceEvent
	if err := json.Unmarshal(rec.Body.Bytes(), &events); err != nil {
		t.Fatalf("/trace is not a trace-event array: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("/trace returned no events after traced traffic")
	}
	for _, e := range events {
		if e.Ph != "X" {
			t.Fatalf("event %q phase %q, want X", e.Name, e.Ph)
		}
		if _, ok := e.Args["req"]; !ok {
			t.Fatalf("event %q lacks req arg", e.Name)
		}
	}

	for _, bad := range []string{"/trace?last=-1", "/trace?last=x", "/trace?seconds=0", "/trace?seconds=nope"} {
		rec = httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", bad, nil))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400", bad, rec.Code)
		}
	}
}

// TestLiveTraceSpansSumToLatency is the observability acceptance check: scrape
// GET /trace from a live server and verify each request's span slices sum to
// its recorded end-to-end latency within 10% (the flight recorder's residue
// bound — what makes the trace trustworthy for attributing tail latency).
func TestLiveTraceSpansSumToLatency(t *testing.T) {
	mux, _ := testMux(t, microrec.ServerOptions{Batching: microrec.BatchingOptions{MaxBatch: 8}, Trace: microrec.TraceOptions{Sample: 1}})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	// Warm up: the first batch per size pays the one-time timing-model run,
	// which would dominate those spans' residue.
	postBurst(t, mux, 32)
	const burst = 64
	postBurst(t, mux, burst)

	// Scrape exactly the post-warmup burst: at Sample 1 every request records
	// its span before its reply is sent, so the newest burst spans are the
	// burst's. (A trailing ?seconds= window measured on the client starts as
	// late as the scrape arrives, and misses the burst when that is slow.)
	resp, err := http.Get(fmt.Sprintf("%s/trace?last=%d", ts.URL, burst))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var events []microrec.TraceEvent
	if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
		t.Fatal(err)
	}

	// Group slices by request and compare the summed durations against the
	// e2e the summary slice carries.
	type reqAgg struct {
		sum, e2e float64
	}
	agg := map[string]*reqAgg{}
	for _, e := range events {
		raw, ok := e.Args["req"]
		if !ok {
			t.Fatalf("event %q lacks the req correlation arg", e.Name)
		}
		id := fmt.Sprint(raw)
		a := agg[id]
		if a == nil {
			a = &reqAgg{}
			agg[id] = a
		}
		a.sum += e.Dur
		if v, ok := e.Args["e2e_us"].(float64); ok {
			a.e2e = v
		}
	}
	checked := 0
	for id, a := range agg {
		if a.e2e == 0 {
			t.Fatalf("request %s: no summary slice with e2e_us", id)
		}
		residue := a.e2e - a.sum
		if residue < 0 {
			t.Errorf("request %s: slices sum %.1fµs beyond e2e %.1fµs", id, a.sum, a.e2e)
		}
		// 10% relative tolerance with a 200µs floor for µs-scale requests.
		slack := 0.10*a.e2e + 200
		if residue > slack {
			t.Errorf("request %s: slices sum %.1fµs vs e2e %.1fµs (residue %.1f > %.1f)", id, a.sum, a.e2e, residue, slack)
		}
		checked++
	}
	if checked != burst {
		t.Fatalf("verified %d post-warmup requests, want %d", checked, burst)
	}
}

// TestServeMuxPprofGate checks the profiling handlers are mounted only when
// requested.
func TestServeMuxPprofGate(t *testing.T) {
	spec := microrec.SmallProductionModel()
	eng, err := microrec.NewEngine(spec, microrec.EngineOptions{Seed: 1, MaxRowsPerTable: 64})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := microrec.NewServer(eng, microrec.ServerOptions{Batching: microrec.BatchingOptions{MaxBatch: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	withoutPprof := newServeMux(eng, srv, false)
	rec := httptest.NewRecorder()
	withoutPprof.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/cmdline", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("pprof off: /debug/pprof/cmdline = %d, want 404", rec.Code)
	}

	withPprof := newServeMux(eng, srv, true)
	rec = httptest.NewRecorder()
	withPprof.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/cmdline", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("pprof on: /debug/pprof/cmdline = %d, want 200", rec.Code)
	}
}

// TestCmdVersion exercises both renderings of the provenance stamp.
func TestCmdVersion(t *testing.T) {
	if err := run([]string{"version"}); err != nil {
		t.Errorf("version: %v", err)
	}
	if err := run([]string{"version", "-json"}); err != nil {
		t.Errorf("version -json: %v", err)
	}
}

// TestCmdSmoke runs the observability smoke check end to end against an
// in-process server — the same path CI's obs-smoke step drives over
// localhost.
func TestCmdSmoke(t *testing.T) {
	mux, _ := testMux(t, microrec.ServerOptions{Batching: microrec.BatchingOptions{MaxBatch: 8}, Trace: microrec.TraceOptions{Sample: 1}})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	if err := run([]string{"smoke", "-addr", ts.URL, "-n", "32"}); err != nil {
		t.Fatalf("smoke: %v", err)
	}
	if err := run([]string{"smoke", "-addr", "http://127.0.0.1:1", "-n", "4", "-timeout", "500ms"}); err == nil {
		t.Error("smoke against a dead address: want error")
	}
}
