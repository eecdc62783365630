package main

import (
	"encoding/json"
	"flag"
	"io"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"microrec"
)

// parseTopology runs the shared topology flags through a throwaway FlagSet,
// mirroring how serve/loadtest consume them.
func parseTopology(t *testing.T, args ...string) *topology {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	topo := addTopologyFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestTopologyFlagValidation(t *testing.T) {
	topo := parseTopology(t, "-replicas", "3", "-route", "affinity")
	if err := topo.validate("test"); err != nil {
		t.Fatal(err)
	}
	if !topo.routed() || topo.policy != microrec.RouteAffinity {
		t.Fatalf("routed=%v policy=%q after -replicas 3 -route affinity", topo.routed(), topo.policy)
	}
	if topo = parseTopology(t, "-replicas", "0"); topo.validate("test") == nil {
		t.Fatal("-replicas 0 accepted")
	}
	if topo = parseTopology(t, "-route", "random"); topo.validate("test") == nil {
		t.Fatal("-route random accepted")
	}
	if topo = parseTopology(t); topo.validate("test") != nil || topo.routed() {
		t.Fatal("defaults must validate as a single unrouted replica")
	}
}

// TestShardsFlagRemoved checks that -shards, the retired sharded gather
// tier's flag, is a flag-parse error on the shared topology flags rather than
// a value serve and loadtest would silently ignore.
func TestShardsFlagRemoved(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	addTopologyFlags(fs)
	if err := fs.Parse([]string{"-shards", "2"}); err == nil {
		t.Fatal("-shards 2 parsed")
	}
}

// TestServeMuxRouted drives the HTTP API with a router behind it instead of
// a single server: /predict serves, and /stats carries the router section
// with both replicas on the scoreboard.
func TestServeMuxRouted(t *testing.T) {
	spec := microrec.SmallProductionModel()
	topo := parseTopology(t, "-replicas", "2", "-route", "round-robin")
	if err := topo.validate("test"); err != nil {
		t.Fatal(err)
	}
	rt, eng, err := topo.buildRouter(spec,
		microrec.EngineOptions{Seed: 1, MaxRowsPerTable: 64},
		microrec.ServerOptions{Batching: microrec.BatchingOptions{MaxBatch: 4, Window: 200 * time.Microsecond}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	mux := newServeMux(eng, rt, false)

	gen, err := microrec.NewGenerator(spec, microrec.Uniform, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		body, err := json.Marshal(predictRequest{Indices: gen.Next()})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("POST", "/predict", strings.NewReader(string(body))))
		if rec.Code != 200 {
			t.Fatalf("routed /predict %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
	}

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	if rec.Code != 200 {
		t.Fatalf("/stats status %d", rec.Code)
	}
	var st microrec.ServerStats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Router == nil {
		t.Fatal("routed /stats has no router section")
	}
	if st.Router.Replicas != 2 || len(st.Router.PerReplica) != 2 {
		t.Fatalf("router section reports %d replicas (%d rows), want 2",
			st.Router.Replicas, len(st.Router.PerReplica))
	}
	if st.Router.Policy != string(microrec.RouteRoundRobin) {
		t.Fatalf("router policy %q, want round-robin", st.Router.Policy)
	}
	var routed uint64
	for _, rs := range st.Router.PerReplica {
		routed += rs.Routed
	}
	if routed != 8 {
		t.Fatalf("replicas report %d routed requests, want 8", routed)
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "microrec_router_replicas 2") {
		t.Fatalf("/metrics lacks the router families (status %d)", rec.Code)
	}
}

// TestLoadtestRoutedTiered runs the routed affinity loadtest on tiered
// replicas, as make loadtest-smoke does: the report still carries the router
// section, with a pooled frequency-window hit rate measured after the
// round-robin baseline, and the first replica's tier.
func TestLoadtestRoutedTiered(t *testing.T) {
	out := t.TempDir() + "/loadtest_routed.json"
	if err := run([]string{"loadtest", "-n", "60", "-loads", "300,600", "-sla", "100ms", "-batch", "8",
		"-replicas", "2", "-route", "affinity", "-cold-tier", "tmp", "-o", out}); err != nil {
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
	if rep.Router == nil {
		t.Fatalf("routed tiered report has no router section: %s", data)
	}
	if rep.Router.Replicas != 2 || rep.Router.Policy != string(microrec.RouteAffinity) {
		t.Errorf("router section: %d replicas, policy %q", rep.Router.Replicas, rep.Router.Policy)
	}
	if rep.Router.AggregateHitRate <= 0 || rep.Router.AggregateHitRate > 1 {
		t.Errorf("aggregate_hit_rate %v, want in (0, 1]", rep.Router.AggregateHitRate)
	}
	if rep.Tier == nil || rep.Tier.ColdReads+rep.Tier.HotReads == 0 {
		t.Errorf("report tier section %+v, want the first replica's reads", rep.Tier)
	}
}
