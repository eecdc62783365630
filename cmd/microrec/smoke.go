package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"microrec"
)

// expositionSample matches one valid Prometheus text-format sample line
// (metric name, optional label set, value, optional timestamp).
var expositionSample = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[+-]?Inf|[0-9eE.+-]+)( [0-9]+)?$`)

// cmdSmoke is the observability end-to-end check: it drives a burst of real
// /predict traffic at a running server, then scrapes GET /metrics and
// GET /trace and validates both — the exposition parses as Prometheus text
// format and carries the expected families; the trace parses as a Chrome
// trace-event JSON array with spans from the traffic just sent. CI runs this
// (via `make obs-smoke`) against a freshly started server so a format
// regression in either endpoint fails the build.
func cmdSmoke(args []string) error {
	fs := newFlagSet("smoke")
	addr := fs.String("addr", "http://localhost:8080", "server base URL")
	modelName := fs.String("model", "small", "model the server was started with: small or large")
	n := fs.Int("n", 64, "queries to send before scraping")
	timeout := fs.Duration("timeout", 30*time.Second, "overall deadline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := specByName(*modelName)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	if err := waitHealthy(ctx, *addr); err != nil {
		return err
	}
	served, err := smokeTraffic(ctx, *addr, spec, *n)
	if err != nil {
		return err
	}
	if err := smokeMetrics(ctx, *addr); err != nil {
		return err
	}
	spans, err := smokeTrace(ctx, *addr)
	if err != nil {
		return err
	}
	fmt.Printf("smoke ok: %d/%d queries served, /metrics valid exposition, /trace carries %d live span slices\n",
		served, *n, spans)
	return nil
}

// waitHealthy polls /healthz until the server answers or the context expires.
func waitHealthy(ctx context.Context, base string) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("smoke: server at %s never became healthy: %w", base, ctx.Err())
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// smokeTraffic POSTs n generated queries to /predict (shed 429s are tolerated
// under load, every other failure is not) and returns how many were served.
func smokeTraffic(ctx context.Context, base string, spec *microrec.Spec, n int) (int, error) {
	gen, err := microrec.NewGenerator(spec, microrec.Zipf, 11)
	if err != nil {
		return 0, err
	}
	bodies := make([][]byte, n)
	for i := range bodies {
		b, err := json.Marshal(predictRequest{Indices: gen.Next()})
		if err != nil {
			return 0, err
		}
		bodies[i] = b
	}
	var served atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	for _, body := range bodies {
		wg.Add(1)
		go func(body []byte) {
			defer wg.Done()
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/predict", bytes.NewReader(body))
			if err != nil {
				firstErr.CompareAndSwap(nil, err)
				return
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				firstErr.CompareAndSwap(nil, err)
				return
			}
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
			switch resp.StatusCode {
			case http.StatusOK:
				served.Add(1)
			case http.StatusTooManyRequests: // shed under burst: fine
			default:
				firstErr.CompareAndSwap(nil, fmt.Errorf("/predict returned %s", resp.Status))
			}
		}(body)
	}
	wg.Wait()
	if err, _ := firstErr.Load().(error); err != nil {
		return int(served.Load()), fmt.Errorf("smoke: traffic: %w", err)
	}
	if served.Load() == 0 {
		return 0, fmt.Errorf("smoke: none of the %d queries were served", n)
	}
	return int(served.Load()), nil
}

// smokeMetrics validates the /metrics exposition: every line is a comment or
// a well-formed sample, and the families the dashboards scrape are present.
func smokeMetrics(ctx context.Context, base string) error {
	body, err := fetch(ctx, base+"/metrics")
	if err != nil {
		return err
	}
	out := string(body)
	for _, family := range []string{
		"microrec_build_info",
		"microrec_queries_total",
		"microrec_latency_us_bucket",
		"microrec_latency_us_count",
		"microrec_trace_recorded_total",
	} {
		if !strings.Contains(out, family) {
			return fmt.Errorf("smoke: /metrics missing family %q", family)
		}
	}
	if !strings.Contains(out, `le="+Inf"`) {
		return fmt.Errorf("smoke: /metrics latency histogram missing +Inf bucket")
	}
	sc := bufio.NewScanner(strings.NewReader(out))
	lines := 0
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !expositionSample.MatchString(line) {
			return fmt.Errorf("smoke: malformed /metrics line: %q", line)
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if lines == 0 {
		return fmt.Errorf("smoke: /metrics exposition carried no samples")
	}
	return nil
}

// smokeTrace validates GET /trace: a JSON array of Chrome trace-event
// complete slices carrying spans of the traffic smokeTraffic just sent.
func smokeTrace(ctx context.Context, base string) (int, error) {
	body, err := fetch(ctx, base+"/trace?last=256")
	if err != nil {
		return 0, err
	}
	var events []microrec.TraceEvent
	if err := json.Unmarshal(body, &events); err != nil {
		return 0, fmt.Errorf("smoke: /trace is not a trace-event JSON array: %w", err)
	}
	if len(events) == 0 {
		return 0, fmt.Errorf("smoke: /trace returned no spans after live traffic (sampling broken?)")
	}
	for _, e := range events {
		if e.Ph != "X" {
			return 0, fmt.Errorf("smoke: /trace event %q has phase %q, want complete slices (\"X\")", e.Name, e.Ph)
		}
		if e.Dur < 0 || e.TS < 0 {
			return 0, fmt.Errorf("smoke: /trace event %q has negative ts/dur (%v/%v)", e.Name, e.TS, e.Dur)
		}
		if _, ok := e.Args["req"]; !ok {
			return 0, fmt.Errorf("smoke: /trace event %q lacks the req correlation arg", e.Name)
		}
	}
	return len(events), nil
}

// fetch GETs a URL and returns its body, insisting on HTTP 200.
func fetch(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("smoke: fetching %s: %w", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("smoke: %s returned %s: %s", url, resp.Status, body)
	}
	return body, nil
}
