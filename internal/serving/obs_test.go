package serving

import (
	"bufio"
	"bytes"
	"context"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"microrec/internal/kernels"
	"microrec/internal/model"
	"microrec/internal/obs"
)

// submitTraced pushes n queries through the server concurrently and waits for
// them all, returning when every span has been recorded.
func submitTraced(t *testing.T, s *Server, n int) {
	t.Helper()
	spec := model.SmallProduction()
	queries := randomQueries(t, spec, n, 42)
	var wg sync.WaitGroup
	for _, q := range queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Submit(context.Background(), q); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

// checkSpanDecomposition asserts the flight recorder's core properties on
// every served span, whichever drain served it: the gather/dense/tail stage
// triplet, non-negative (monotone-boundary) segments and a stage sum within
// tolerance of the measured end-to-end latency. The residue is the
// future-resolution overhead in complete() after the last stage; tolFrac
// bounds it as a fraction of e2e (with a small absolute floor for µs-scale
// requests on noisy CI hosts).
func checkSpanDecomposition(t *testing.T, spans []obs.Span, tolFrac float64) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	for _, sp := range spans {
		if sp.Verdict != obs.VerdictOK {
			continue
		}
		for name, v := range map[string]int64{
			"queue": sp.QueueNS, "batch_wait": sp.BatchWaitNS,
			"gather": sp.GatherNS, "dense_wait": sp.DenseWaitNS, "dense": sp.DenseNS,
			"tail_wait": sp.TailWaitNS, "tail": sp.TailNS, "e2e": sp.EndToEndNS,
		} {
			if v < 0 {
				t.Fatalf("span %d: negative %s segment %d ns (stage boundaries not monotone): %+v", sp.ID, name, v, sp)
			}
		}
		if sp.GatherNS == 0 || sp.DenseNS == 0 || sp.TailNS == 0 {
			t.Fatalf("span %d: span should carry the stage triplet: %+v", sp.ID, sp)
		}
		sum := sp.StageSumNS()
		if sum > sp.EndToEndNS {
			t.Fatalf("span %d: stage sum %d ns exceeds e2e %d ns", sp.ID, sum, sp.EndToEndNS)
		}
		residue := sp.EndToEndNS - sum
		slack := int64(tolFrac*float64(sp.EndToEndNS)) + 200_000 // 200µs absolute floor
		if residue > slack {
			t.Errorf("span %d: stage sum %d ns vs e2e %d ns (residue %d > slack %d)",
				sp.ID, sum, sp.EndToEndNS, residue, slack)
		}
		if sp.Batch < 1 {
			t.Errorf("span %d: batch %d", sp.ID, sp.Batch)
		}
	}
}

func TestSpanDecompositionPipeline(t *testing.T) {
	eng := testEngine(t)
	s := newServer(t, eng, Options{Batching: BatchingOptions{MaxBatch: 8}, Trace: TraceOptions{Sample: 1}})
	// Warm-up: the first batches pay one-time costs (first touch of the
	// planes' pages, cold caches) that would dominate their spans' residue.
	submitTraced(t, s, 32)
	warmedAt := time.Now()
	submitTraced(t, s, 64)

	spans := s.Trace(0, warmedAt)
	checkSpanDecomposition(t, spans, 0.10)

	st := s.rec.Stats()
	if st.SampleEvery != 1 || st.Recorded == 0 {
		t.Fatalf("recorder stats: %+v", st)
	}
}

// TestSpanDecompositionWorkerPool checks that the worker pool's spans
// decompose per stage like the pipeline's, with no inter-stage waits: a pool
// worker runs its batch's stages back to back. Behind the sharded tier the
// spans also carry the scatter round, whose slowest shard fits inside the
// gather stage.
func TestSpanDecompositionWorkerPool(t *testing.T) {
	eng := testEngine(t)
	for _, tc := range []struct {
		name   string
		shards int
	}{{"unsharded", 0}, {"shards2", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			s := newServer(t, eng, Options{
				Batching: BatchingOptions{MaxBatch: 8},
				Pipeline: PipelineOptions{WorkerPool: true, Depth: 2},
				Tier:     TierOptions{Shards: tc.shards},
				Trace:    TraceOptions{Sample: 1},
			})
			submitTraced(t, s, 32)
			warmedAt := time.Now()
			submitTraced(t, s, 64)
			spans := s.Trace(0, warmedAt)
			checkSpanDecomposition(t, spans, 0.10)
			for _, sp := range spans {
				if sp.DenseWaitNS != 0 || sp.TailWaitNS != 0 {
					t.Fatalf("span %d: a pool worker's stages are contiguous, got waits %d / %d ns", sp.ID, sp.DenseWaitNS, sp.TailWaitNS)
				}
				if int(sp.Shards) != tc.shards {
					t.Fatalf("span %d: %d shards, want %d", sp.ID, sp.Shards, tc.shards)
				}
				if tc.shards > 0 && (sp.ShardMaxNS <= 0 || sp.ShardMaxNS > sp.GatherNS) {
					t.Fatalf("span %d: slowest shard %d ns outside the %d ns gather stage", sp.ID, sp.ShardMaxNS, sp.GatherNS)
				}
			}
		})
	}
}

func TestTraceSampling(t *testing.T) {
	eng := testEngine(t)
	s := newServer(t, eng, Options{Batching: BatchingOptions{MaxBatch: 4}, Trace: TraceOptions{Sample: 4}})
	submitTraced(t, s, 64)
	st := s.Stats()
	if st.Trace.SampleEvery != 4 {
		t.Fatalf("sample rate %d, want 4", st.Trace.SampleEvery)
	}
	if st.Trace.Arrivals != 64 {
		t.Fatalf("arrivals %d, want 64", st.Trace.Arrivals)
	}
	if st.Trace.Recorded != 16 {
		t.Fatalf("recorded %d spans at 1-in-4 over 64, want 16", st.Trace.Recorded)
	}
}

// expositionLine matches a valid Prometheus text-format sample line.
var expositionLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[+-]?Inf|[0-9eE.+-]+)( [0-9]+)?$`)

func TestWriteMetricsExposition(t *testing.T) {
	eng := testEngine(t)
	s := newServer(t, eng, Options{Batching: BatchingOptions{MaxBatch: 8}, Trace: TraceOptions{Sample: 1}})
	submitTraced(t, s, 64)

	var buf bytes.Buffer
	if err := s.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	for _, family := range []string{
		"microrec_build_info", "microrec_queries_total", "microrec_qps",
		"microrec_latency_us_bucket", "microrec_latency_us_sum", "microrec_latency_us_count",
		"microrec_latency_rolling_us", "microrec_queue_depth", "microrec_shed_total",
		"microrec_deadline_drops_total", "microrec_pipeline_measured_interval_us",
		"microrec_stage_mean_service_us", "microrec_trace_recorded_total",
	} {
		if !strings.Contains(out, family) {
			t.Errorf("exposition missing family %q", family)
		}
	}
	if !strings.Contains(out, `le="+Inf"`) {
		t.Error("latency histogram missing +Inf bucket")
	}

	// Every line must be a comment or a well-formed sample.
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestStatsCarriesBuildInfo(t *testing.T) {
	eng := testEngine(t)
	s := newServer(t, eng, Options{Batching: BatchingOptions{MaxBatch: 4}})
	st := s.Stats()
	if st.BuildInfo.Revision == "" || st.BuildInfo.GoVersion == "" {
		t.Fatalf("build info not populated: %+v", st.BuildInfo)
	}
	if want := obs.ReadBuild(kernels.Features()); st.BuildInfo != want {
		t.Fatalf("Stats build info %+v, want %+v", st.BuildInfo, want)
	}
}
