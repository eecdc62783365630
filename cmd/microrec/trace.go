package main

import (
	"fmt"
	"io"
	"net/http"
	"os"

	"microrec"
)

// cmdTrace exports a chrome://tracing / Perfetto trace. The default path is a
// SIMULATION: it replays the accelerator model's stage pipeline
// (internal/accel, over the placement plan's lookup latency) — no real
// requests are involved. With -live it instead scrapes GET /trace
// from a running `microrec serve` instance, which renders the flight
// recorder's spans of actual served requests. Both paths emit the identical
// trace-event JSON format (shared writer in internal/obs).
func cmdTrace(args []string) error {
	fs := newFlagSet("trace")
	modelName := fs.String("model", "small", "model: small or large (simulated mode)")
	items := fs.Int("items", 32, "items to trace (simulated mode)")
	out := fs.String("o", "trace.json", "output file (chrome://tracing JSON)")
	fp32 := fs.Bool("fp32", false, "use the 32-bit datapath (simulated mode)")
	live := fs.Bool("live", false, "scrape real request spans from a running server's GET /trace instead of simulating")
	addr := fs.String("addr", "http://localhost:8080", "server base URL (-live)")
	last := fs.Int("last", 0, "keep only the newest N spans, 0 = whole ring (-live)")
	seconds := fs.Float64("seconds", 0, "keep only spans from the trailing S seconds, 0 = no window (-live)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *live {
		return traceLive(*addr, *out, *last, *seconds)
	}
	spec, err := specByName(*modelName)
	if err != nil {
		return err
	}
	var opts microrec.AcceleratorOptions
	if *fp32 {
		opts.Precision = microrec.Fixed32
	}
	acc, err := microrec.NewAcceleratorModel(spec, opts)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	rep, traceErr := acc.TracePipeline(*items, f)
	if closeErr := f.Close(); traceErr == nil {
		traceErr = closeErr
	}
	if traceErr != nil {
		return traceErr
	}
	fmt.Printf("wrote %s (simulated pipeline, no live traffic): %d items, makespan %.1f µs, bottleneck %s\n",
		*out, rep.Items, rep.MakespanNS/1e3, rep.BottleneckStage)
	fmt.Println("open in chrome://tracing or https://ui.perfetto.dev; for real request spans use -live against a running server")
	return nil
}

// traceLive fetches GET /trace from a running server and writes the JSON to
// the output file unmodified — the server already emits trace-event format.
func traceLive(base, out string, last int, seconds float64) error {
	url := base + "/trace?"
	if last > 0 {
		url += fmt.Sprintf("last=%d&", last)
	}
	if seconds > 0 {
		url += fmt.Sprintf("seconds=%g&", seconds)
	}
	url = url[:len(url)-1]
	resp, err := http.Get(url)
	if err != nil {
		return fmt.Errorf("trace: scraping %s (is `microrec serve` running?): %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("trace: %s returned %s: %s", url, resp.Status, body)
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	n, copyErr := io.Copy(f, resp.Body)
	if closeErr := f.Close(); copyErr == nil {
		copyErr = closeErr
	}
	if copyErr != nil {
		return copyErr
	}
	fmt.Printf("wrote %s (%d bytes of live request spans from %s)\n", out, n, url)
	fmt.Println("open in chrome://tracing or https://ui.perfetto.dev")
	return nil
}
