package serving

import (
	"encoding/json"
	"reflect"
	"sort"
	"testing"

	"microrec/internal/metrics"
	"microrec/internal/obs"
)

// fullStats builds a Stats value with every optional section present and
// every omitempty field non-zero, so the marshalled JSON exposes the complete
// schema surface.
func fullStats() Stats {
	return Stats{
		Mode:     "pipeline",
		MaxBatch: 64,
		Queries:  1000, Batches: 20, QPS: 5000,
		LatencyUS: LatencySummary{Mean: 100, P50: 90, P95: 150, P99: 200, Max: 300},
		MeanBatch: 50, BatchOccupancy: 0.78,
		Admission: AdmissionStats{
			QueueDepth: 3, QueueCapacity: 256, Shedding: true, SLAMS: 5,
			Shed: 7, DeadlineDrops: 2, CancelDrops: 1, LateCompletions: 1,
			KneeQPS: 9000, RetryAfterMS: 0.4,
		},
		Pipeline: &PipelineStats{
			Depth: 3, MaxBatch: 64, InFlight: 2, Completed: 20,
			Stages: []StageStats{
				{Name: "gather", Batches: 20, MeanServiceUS: 40, P99ServiceUS: 60, Occupancy: 0.5},
			},
			MeasuredIntervalUS: 50, PredictedIntervalUS: 48, SerialIntervalUS: 120,
		},
		HotCache: &HotCacheStats{
			CapacityBytes: 1 << 20, UsedBytes: 1 << 19, Entries: 100, Hits: 900,
			Misses: 100, HitRate: 0.9,
		},
		Tiers: &TierStats{
			Path: "/tmp/cold.bin", HotBudgetBytes: 1 << 20,
			TotalBytes: 1 << 22, HotRows: 100, ColdRows: 900, HotBytes: 1 << 19,
			HotReads: 800, ColdReads: 200, HotReadRate: 0.8,
			Promotions: 50, Demotions: 10, Sweeps: 5,
		},
		Router: &RouterStats{
			Policy: "affinity", Replicas: 3,
			Decisions: []PolicyDecisionStats{
				{Policy: "round-robin", Total: 500},
			},
			PerReplica: []ReplicaStats{
				{ID: 1, Routed: 400, InFlight: 2,
					QueueDepth: 3, PipelineInFlight: 1, LoadScore: 67, Occupancy: 0.3,
					Queries: 400, QPS: 900, P99US: 210, HitRate: 0.85},
			},
			AggregateHitRate: 0.9, BaselineHitRate: 0.7, HitRateDelta: 0.2,
		},
		Trace: TraceStats{RingSize: 4096, SampleEvery: 8, Arrivals: 1000, Recorded: 125},
		LatencyHistUS: metrics.HistogramSnapshot{
			Count: 1000, Mean: 100, Min: 50, Max: 300, P50: 90, P95: 150, P99: 200, P999: 280,
		},
		BuildInfo: obs.BuildInfo{
			Revision: "abc123", Dirty: true, GoVersion: "go1.22", Kernels: "avx2-gemm",
		},
	}
}

// collectKeys walks marshalled JSON, returning every object key as a dotted
// path; array elements share their parent's path (the schema is per-element).
func collectKeys(prefix string, v any, out map[string]bool) {
	switch x := v.(type) {
	case map[string]any:
		for k, child := range x {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			out[p] = true
			collectKeys(p, child, out)
		}
	case []any:
		for _, child := range x {
			collectKeys(prefix, child, out)
		}
	}
}

// statsSchema is the pinned field-name surface of the /stats JSON document —
// the serving tier's de-facto API. A failure here means a field was renamed,
// removed, or added: deliberate changes update this list (and the consumers:
// dashboards, the loadtest harness); accidental ones get caught before they
// ship.
var statsSchema = []string{
	"admission",
	"admission.cancel_drops",
	"admission.deadline_drops",
	"admission.knee_qps",
	"admission.late_completions",
	"admission.queue_capacity",
	"admission.queue_depth",
	"admission.retry_after_ms",
	"admission.shed",
	"admission.shedding",
	"admission.sla_ms",
	"batch_occupancy",
	"batches",
	"build_info",
	"build_info.dirty",
	"build_info.go_version",
	"build_info.kernels",
	"build_info.revision",
	"hotcache",
	"hotcache.capacity_bytes",
	"hotcache.entries",
	"hotcache.hit_rate",
	"hotcache.hits",
	"hotcache.misses",
	"hotcache.used_bytes",
	"latency_hist_us",
	"latency_hist_us.count",
	"latency_hist_us.max",
	"latency_hist_us.mean",
	"latency_hist_us.min",
	"latency_hist_us.p50",
	"latency_hist_us.p95",
	"latency_hist_us.p99",
	"latency_hist_us.p999",
	"latency_us",
	"latency_us.max",
	"latency_us.mean",
	"latency_us.p50",
	"latency_us.p95",
	"latency_us.p99",
	"max_batch",
	"mean_batch",
	"mode",
	"pipeline",
	"pipeline.completed",
	"pipeline.depth",
	"pipeline.in_flight",
	"pipeline.max_batch",
	"pipeline.measured_interval_us",
	"pipeline.predicted_interval_us",
	"pipeline.serial_interval_us",
	"pipeline.stages",
	"pipeline.stages.batches",
	"pipeline.stages.mean_service_us",
	"pipeline.stages.name",
	"pipeline.stages.occupancy",
	"pipeline.stages.p99_service_us",
	"qps",
	"queries",
	"router",
	"router.aggregate_hit_rate",
	"router.baseline_hit_rate",
	"router.decisions",
	"router.decisions.policy",
	"router.decisions.total",
	"router.hit_rate_delta",
	"router.per_replica",
	"router.per_replica.hit_rate",
	"router.per_replica.id",
	"router.per_replica.in_flight",
	"router.per_replica.load_score",
	"router.per_replica.occupancy",
	"router.per_replica.p99_us",
	"router.per_replica.pipeline_in_flight",
	"router.per_replica.qps",
	"router.per_replica.queries",
	"router.per_replica.queue_depth",
	"router.per_replica.routed",
	"router.policy",
	"router.replicas",
	"tiers",
	"tiers.cold_reads",
	"tiers.cold_rows",
	"tiers.demotions",
	"tiers.hot_budget_bytes",
	"tiers.hot_bytes",
	"tiers.hot_read_rate",
	"tiers.hot_reads",
	"tiers.hot_rows",
	"tiers.path",
	"tiers.promotions",
	"tiers.sweeps",
	"tiers.total_bytes",
	"trace",
	"trace.arrivals",
	"trace.recorded",
	"trace.ring_size",
	"trace.sample_every",
}

// TestStatsJSONSchemaGolden pins the /stats JSON field names. The document is
// consumed by dashboards, the bench/loadtest reports and scripts that have no
// compile-time coupling to this package, so a field rename is a breaking API
// change — this test turns it from a silent one into a loud one.
func TestStatsJSONSchemaGolden(t *testing.T) {
	raw, err := json.Marshal(fullStats())
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	collectKeys("", doc, keys)
	got := make([]string, 0, len(keys))
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, statsSchema) {
		want := map[string]bool{}
		for _, k := range statsSchema {
			want[k] = true
		}
		for _, k := range got {
			if !want[k] {
				t.Errorf("new /stats field %q: if intentional, add it to statsSchema", k)
			}
		}
		for _, k := range statsSchema {
			if !keys[k] {
				t.Errorf("/stats field %q disappeared: renames break dashboards and scripts", k)
			}
		}
		if !t.Failed() {
			t.Errorf("schema drift:\n got %v\nwant %v", got, statsSchema)
		}
	}
}

// TestStatsLiveMatchesSchema cross-checks a real server's Stats against the
// same pinned schema: every key a live (pipelined, untiered)
// snapshot emits must be in the golden list. This catches fields that exist
// on the wire but were never added to fullStats.
func TestStatsLiveMatchesSchema(t *testing.T) {
	eng := testEngine(t)
	s := newServer(t, eng, Options{Batching: BatchingOptions{MaxBatch: 8}})
	submitTraced(t, s, 16)
	raw, err := json.Marshal(s.Stats())
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	collectKeys("", doc, keys)
	want := map[string]bool{}
	for _, k := range statsSchema {
		want[k] = true
	}
	for k := range keys {
		if !want[k] {
			t.Errorf("live /stats emits %q, absent from the golden schema", k)
		}
	}
}
