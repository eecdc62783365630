package serving

import (
	"io"
	"strconv"

	"microrec/internal/obs"
)

// WriteMetrics renders the server's telemetry in Prometheus text exposition
// format (version 0.0.4) — the GET /metrics payload. Every figure is derived
// from the same Stats() snapshot that backs GET /stats (plus the lifetime
// latency histogram's buckets), so the two endpoints can never disagree: one
// registry, two renderings.
func (s *Server) WriteMetrics(w io.Writer) error {
	st := s.Stats()
	m := obs.NewMetricWriter(w)

	m.Info("microrec_build_info", "Build provenance of the serving binary.",
		"revision", st.BuildInfo.Revision,
		"go_version", st.BuildInfo.GoVersion,
		"kernels", st.BuildInfo.Kernels,
		"dirty", strconv.FormatBool(st.BuildInfo.Dirty),
		"mode", st.Mode,
	)

	// Serving throughput and batching.
	m.Counter("microrec_queries_total", "Queries served (rolling-window total).", float64(st.Queries))
	m.Counter("microrec_batches_total", "Micro-batches dispatched (rolling-window total).", float64(st.Batches))
	m.Gauge("microrec_qps", "Rolling queries per second.", st.QPS)
	m.Gauge("microrec_mean_batch", "Rolling mean micro-batch size.", st.MeanBatch)
	m.Gauge("microrec_batch_occupancy", "Rolling mean batch size over MaxBatch.", st.BatchOccupancy)

	// Latency: the lifetime log-bucketed histogram as a real Prometheus
	// histogram, plus the rolling-window quantiles as labeled gauges.
	buckets, sum, count := s.latencyHist.CumulativeBuckets()
	hist := m.Family("microrec_latency_us", "Per-query wall latency in microseconds (lifetime histogram).", "histogram")
	for _, b := range buckets {
		hist.Sample("microrec_latency_us_bucket", float64(b.Count),
			"le", strconv.FormatFloat(b.UpperEdge, 'g', 6, 64))
	}
	hist.Sample("microrec_latency_us_bucket", float64(count), "le", "+Inf")
	hist.Sample("microrec_latency_us_sum", sum)
	hist.Sample("microrec_latency_us_count", float64(count))
	roll := m.Family("microrec_latency_rolling_us", "Rolling-window latency summary in microseconds.", "gauge")
	roll.Obs(st.LatencyUS.Mean, "stat", "mean")
	roll.Obs(st.LatencyUS.P50, "stat", "p50")
	roll.Obs(st.LatencyUS.P95, "stat", "p95")
	roll.Obs(st.LatencyUS.P99, "stat", "p99")
	roll.Obs(st.LatencyUS.Max, "stat", "max")

	// Admission gate.
	adm := st.Admission
	m.Gauge("microrec_queue_depth", "Submit queue occupancy.", float64(adm.QueueDepth))
	m.Gauge("microrec_queue_capacity", "Submit queue capacity.", float64(adm.QueueCapacity))
	m.Gauge("microrec_shedding", "1 when the fast-fail shed path is enabled.", boolGauge(adm.Shedding))
	m.Counter("microrec_shed_total", "Submits fast-failed with queue-full.", float64(adm.Shed))
	m.Counter("microrec_deadline_drops_total", "Requests dropped at plane fill: deadline unmeetable.", float64(adm.DeadlineDrops))
	m.Counter("microrec_cancel_drops_total", "Requests cancelled before service, at the gate or at plane fill.", float64(adm.CancelDrops))
	m.Counter("microrec_late_completions_total", "Requests served past their deadline.", float64(adm.LateCompletions))
	m.Gauge("microrec_knee_qps", "Estimated serving capacity (MaxBatch per predicted batch interval).", adm.KneeQPS)
	m.Gauge("microrec_retry_after_ms", "Backoff hint handed to shed clients.", adm.RetryAfterMS)
	if adm.SLAMS > 0 {
		m.Gauge("microrec_sla_ms", "Per-request serving deadline.", adm.SLAMS)
	}

	// Drain service meter (either drain): per-stage occupancy and the
	// measured vs predicted steady-state batch interval.
	p := st.Pipeline
	m.Gauge("microrec_pipeline_depth", "Batches in service at once (planes, or pool workers).", float64(p.Depth))
	m.Gauge("microrec_pipeline_in_flight", "Batches currently in service.", float64(p.InFlight))
	m.Counter("microrec_pipeline_completed_total", "Batches delivered by the drain.", float64(p.Completed))
	m.Gauge("microrec_pipeline_measured_interval_us", "Measured steady-state batch interval.", p.MeasuredIntervalUS)
	m.Gauge("microrec_pipeline_predicted_interval_us", "Predicted steady-state batch interval (closed form over mean stage times).", p.PredictedIntervalUS)
	m.Gauge("microrec_pipeline_serial_interval_us", "Sum of mean stage times (non-overlapped interval).", p.SerialIntervalUS)
	sb := m.Family("microrec_stage_batches_total", "Batches served per drain stage.", "counter")
	sm := m.Family("microrec_stage_mean_service_us", "Rolling mean stage service time.", "gauge")
	sp := m.Family("microrec_stage_p99_service_us", "Rolling p99 stage service time.", "gauge")
	so := m.Family("microrec_stage_occupancy", "Fraction of recent wall time the stage was busy.", "gauge")
	for _, stg := range p.Stages {
		sb.Obs(float64(stg.Batches), "stage", stg.Name)
		sm.Obs(stg.MeanServiceUS, "stage", stg.Name)
		sp.Obs(stg.P99ServiceUS, "stage", stg.Name)
		so.Obs(stg.Occupancy, "stage", stg.Name)
	}

	// The tiered store's frequency window.
	if hc := st.HotCache; hc != nil {
		m.Gauge("microrec_hotcache_hit_rate", "Tiered store frequency-window hit rate.", hc.HitRate)
		m.Gauge("microrec_hotcache_used_bytes", "Frequency-window bytes in use.", float64(hc.UsedBytes))
		m.Gauge("microrec_hotcache_capacity_bytes", "Frequency-window capacity.", float64(hc.CapacityBytes))
	}

	// Tiered store residency and read split.
	if t := st.Tiers; t != nil {
		rows := m.Family("microrec_tier_rows", "Embedding rows resident per tier.", "gauge")
		rows.Obs(float64(t.HotRows), "tier", "hot")
		rows.Obs(float64(t.ColdRows), "tier", "cold")
		reads := m.Family("microrec_tier_reads_total", "Row reads per tier.", "counter")
		reads.Obs(float64(t.HotReads), "tier", "hot")
		reads.Obs(float64(t.ColdReads), "tier", "cold")
		m.Gauge("microrec_tier_hot_read_rate", "Fraction of reads served from the hot tier.", t.HotReadRate)
		m.Gauge("microrec_tier_hot_bytes", "Bytes pinned in the hot tier.", float64(t.HotBytes))
		m.Counter("microrec_tier_promotions_total", "Rows promoted to the hot tier.", float64(t.Promotions))
		m.Counter("microrec_tier_demotions_total", "Rows demoted to the cold tier.", float64(t.Demotions))
	}

	// Flight recorder.
	m.Gauge("microrec_trace_ring_size", "Flight-recorder span ring capacity.", float64(st.Trace.RingSize))
	m.Gauge("microrec_trace_sample_every", "Head-sampling rate (1 = every request).", float64(st.Trace.SampleEvery))
	m.Counter("microrec_trace_arrivals_total", "Requests seen by the sampling decision.", float64(st.Trace.Arrivals))
	m.Counter("microrec_trace_recorded_total", "Spans written to the ring.", float64(st.Trace.Recorded))

	return m.Err()
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
