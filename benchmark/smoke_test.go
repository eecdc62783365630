package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

// manifest is the part of ../BENCHMARK.json the tests hold the program to.
type manifest struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []manifestMetric `json:"end_to_end"`
	PerLayer  []manifestMetric `json:"per_layer"`
}

type manifestMetric struct{ Name, Unit, Better string }

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// smokeScale shrinks tables, pool and probes so a set-up takes a fraction of
// a second; the code paths are those of a full run.
func smokeScale(t *testing.T) {
	full := scale
	scale.tableRows, scale.poolSize, scale.probeCalls, scale.setupRepeats = 2048, 512, 20, 1
	t.Cleanup(func() { scale = full })
	limitProcs()
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func checkMetrics(t *testing.T, run string, got metrics, want []manifestMetric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics emitted, BENCHMARK.json lists %d", run, len(got), len(want))
	}
	for _, w := range want {
		g, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not emitted", run, w.Name)
		case g.Unit != w.Unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", run, w.Name, g.Unit, w.Unit)
		case math.IsNaN(g.Value) || math.IsInf(g.Value, 0):
			t.Errorf("%s: metric %s = %v", run, w.Name, g.Value)
		}
		if !metricName.MatchString(w.Name) {
			t.Errorf("metric name %q does not match %v", w.Name, metricName)
		}
	}
}

// TestSmoke runs every workload's timed and traced run with one-second
// windows and holds the output to BENCHMARK.json: each listed metric emitted
// exactly once with the listed unit and a finite value, nothing unlisted, no
// failed operation, and every attempted operation accounted for.
func TestSmoke(t *testing.T) {
	smokeScale(t)
	man := readManifest(t)
	if len(man.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(man.Workloads), len(workloads))
	}
	dir := t.TempDir()
	for i, w := range workloads {
		if i < len(man.Workloads) && man.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, man.Workloads[i].Name, w.name)
		}
		timed, err := runTimed(w, 2, time.Second, dir)
		if err != nil {
			t.Fatalf("%s timed: %v", w.name, err)
		}
		checkMetrics(t, w.name+" timed", timed.Metrics, man.EndToEnd)
		for _, m := range man.EndToEnd {
			if timed.Metrics[m.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.Name, timed.Metrics[m.Name].Value)
			}
		}
		traced, err := runTraced(w, 2, time.Second, dir)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		checkMetrics(t, w.name+" traced", traced.Metrics, man.PerLayer)
		for _, res := range []result{timed, traced} {
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s: attempted %d, failed %d", w.name, res.Attempted, res.Failed)
			}
		}
		if _, err := os.Stat(dir + "/trace-" + w.name + ".json"); err != nil {
			t.Errorf("%s: trace dump: %v", w.name, err)
		}
	}
	if left, _ := os.ReadDir(dir); len(left) != len(workloads) {
		t.Errorf("%d files left in the output directory, want the %d trace dumps (a cold-tier file leaked?)", len(left), len(workloads))
	}
}

// TestTracedLedgerAddsUp checks the join the per-layer numbers rest on: every
// request in a traced window finds the batch that served it, and wait plus
// the batch's stage time is the request's latency (so the residual of the
// medians stays small).
func TestTracedLedgerAddsUp(t *testing.T) {
	smokeScale(t)
	w, _ := findWorkload("light_closed")
	r, err := setup(w, 2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	epoch := time.Now()
	tr := newTracer(epoch, r.pool, 1<<18)
	out, _, err := measure(r, tr, 0, epoch, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	l := account(tr, out, w)
	if len(out.reqs) == 0 || l.unmatched != 0 || l.dropped != 0 {
		t.Fatalf("%d requests, %d unmatched, %d spans dropped", len(out.reqs), l.unmatched, l.dropped)
	}
	if l.meanBatch < 1 || l.meanBatch > float64(w.clients) {
		t.Errorf("mean batch %.2f with %d clients", l.meanBatch, w.clients)
	}
	if l.waitP50US <= 0 || l.waitP50US >= l.latP50US {
		t.Errorf("wait p50 %.1f us outside (0, latency p50 %.1f us)", l.waitP50US, l.latP50US)
	}
	if math.Abs(l.residual) > 0.25 {
		t.Errorf("residual %.3f: the ledger's medians do not describe a request", l.residual)
	}
}
