package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNewRecorderRounding(t *testing.T) {
	cases := []struct {
		size, want int
	}{
		{0, 64}, {1, 64}, {64, 64}, {65, 128}, {4096, 4096}, {5000, 8192},
	}
	for _, c := range cases {
		if got := len(NewRecorder(c.size, 1).slots); got != c.want {
			t.Errorf("NewRecorder(%d): ring size %d, want %d", c.size, got, c.want)
		}
	}
	if got := NewRecorder(64, 0).sample; got != 1 {
		t.Errorf("sample floor: got %d, want 1", got)
	}
}

func TestSampleEvery(t *testing.T) {
	r := NewRecorder(64, 4)
	hits := 0
	for i := 0; i < 100; i++ {
		if r.Sample() {
			hits++
		}
	}
	if hits != 25 {
		t.Fatalf("sample=4 over 100 arrivals: %d hits, want 25", hits)
	}
	r1 := NewRecorder(64, 1)
	for i := 0; i < 10; i++ {
		if !r1.Sample() {
			t.Fatal("sample=1 must sample every arrival")
		}
	}
}

func testSpan(i int) Span {
	return Span{
		Start:       int64(1000 * i),
		EndToEndNS:  int64(900 + i),
		QueueNS:     100,
		BatchWaitNS: 50,
		GatherNS:    200,
		DenseWaitNS: 10,
		DenseNS:     300,
		TailWaitNS:  5,
		TailNS:      150,
		ShardMaxNS:  180,
		MergeWaitNS: 20,
		Batch:       int32(8 + i%8),
		Shards:      4,
		ColdFaults:  int32(i % 3),
		Verdict:     VerdictOK,
	}
}

func TestRecordRoundTrip(t *testing.T) {
	r := NewRecorder(64, 1)
	want := testSpan(3)
	id := r.Record(want)
	if id != 1 {
		t.Fatalf("first claim id = %d, want 1", id)
	}
	got := r.Snapshot(0, time.Time{})
	if len(got) != 1 {
		t.Fatalf("snapshot length %d, want 1", len(got))
	}
	want.ID = 1
	if got[0] != want {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got[0], want)
	}
	st := r.Stats()
	if st.Recorded != 1 || st.RingSize != 64 || st.SampleEvery != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSnapshotOrderWrapAndFilters(t *testing.T) {
	r := NewRecorder(64, 1)
	const total = 200 // wraps a 64-slot ring three times
	for i := 1; i <= total; i++ {
		r.Record(Span{Start: int64(i), EndToEndNS: int64(i)})
	}
	all := r.Snapshot(0, time.Time{})
	if len(all) != 64 {
		t.Fatalf("full snapshot after wrap: %d spans, want 64", len(all))
	}
	for i, s := range all {
		wantID := uint64(total - 63 + i)
		if s.ID != wantID {
			t.Fatalf("span %d: id %d, want %d (ascending, newest 64)", i, s.ID, wantID)
		}
		if s.Start != int64(wantID) {
			t.Fatalf("span %d: slot content id mismatch", i)
		}
	}

	lastN := r.Snapshot(10, time.Time{})
	if len(lastN) != 10 || lastN[0].ID != total-9 || lastN[9].ID != total {
		t.Fatalf("last=10: got %d spans, ids [%d..%d]", len(lastN), lastN[0].ID, lastN[len(lastN)-1].ID)
	}

	since := r.Snapshot(0, time.Unix(0, int64(total-4)))
	if len(since) != 5 {
		t.Fatalf("since filter: %d spans, want 5", len(since))
	}
}

// TestRecorderConcurrent hammers the ring with concurrent writers while a
// reader snapshots: the race detector checks the protocol, and the writers
// stamp self-consistent spans (every duration word derived from Start) so any
// torn read that leaked through seqlock validation is caught by content.
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(128, 1)
	const writers = 8
	const perWriter = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				v := int64(w*perWriter + i + 1)
				r.Record(Span{
					Start:      v,
					EndToEndNS: 2 * v,
					QueueNS:    3 * v,
					TailNS:     4 * v,
				})
			}
		}(w)
	}

	readerErr := make(chan error, 1)
	go func() {
		defer close(readerErr)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, s := range r.Snapshot(0, time.Time{}) {
				if s.EndToEndNS != 2*s.Start || s.QueueNS != 3*s.Start || s.TailNS != 4*s.Start {
					readerErr <- fmt.Errorf("torn span leaked: %+v", s)
					return
				}
			}
		}
	}()

	wg.Wait()
	close(stop)
	if err := <-readerErr; err != nil {
		t.Fatal(err)
	}
	if got := r.Stats().Recorded; got != writers*perWriter {
		t.Fatalf("recorded %d spans, want %d", got, writers*perWriter)
	}
}

// TestSpanEventsDecomposition checks the trace-event conversion's core
// properties: per-span slices are contiguous and monotone in time, their
// durations sum to StageSumNS, and the summary args ride on the first slice.
func TestSpanEventsDecomposition(t *testing.T) {
	spans := []Span{testSpan(1), testSpan(2)}
	spans[0].ID, spans[1].ID = 1, 2
	events := SpanEvents(spans)
	if len(events) == 0 {
		t.Fatal("no events")
	}

	byReq := map[uint64][]TraceEvent{}
	for _, ev := range events {
		if ev.Ph != "X" {
			t.Fatalf("event phase %q, want X", ev.Ph)
		}
		id := ev.Args["req"].(uint64)
		byReq[id] = append(byReq[id], ev)
	}
	for id, evs := range byReq {
		var span Span
		for _, s := range spans {
			if s.ID == id {
				span = s
			}
		}
		cursor := evs[0].TS
		var sumUS float64
		for i, ev := range evs {
			if ev.TS < cursor-1e-9 {
				t.Fatalf("req %d slice %d: ts %v regressed before %v", id, i, ev.TS, cursor)
			}
			if ev.TS != cursor {
				t.Fatalf("req %d slice %d: gap (ts %v, want contiguous %v)", id, i, ev.TS, cursor)
			}
			cursor = ev.TS + ev.Dur
			sumUS += ev.Dur
		}
		wantUS := float64(span.StageSumNS()) / 1e3
		if diff := sumUS - wantUS; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("req %d: slice durations sum %v us, want stage sum %v us", id, sumUS, wantUS)
		}
		args := evs[0].Args
		if args["verdict"] != "ok" || args["batch"] == nil || args["e2e_us"] == nil {
			t.Fatalf("req %d: summary args missing: %+v", id, args)
		}
		if args["shards"] == nil || args["merge_wait_us"] == nil {
			t.Fatalf("req %d: shard args missing on sharded span: %+v", id, args)
		}
	}
}

// TestSpanEventsWorkerPoolShape pins how a worker-pool span renders: the pool
// runs a batch's stages back to back, so its span has no inter-stage waits and
// lays out as the pipeline's five tracks, each stage slice exactly its
// service time.
func TestSpanEventsWorkerPoolShape(t *testing.T) {
	s := Span{ID: 7, Start: 100, EndToEndNS: 700, QueueNS: 100, BatchWaitNS: 50,
		GatherNS: 200, DenseNS: 150, TailNS: 100, Batch: 4}
	events := SpanEvents([]Span{s})
	want := []struct {
		cat   string
		tid   int
		durUS float64
	}{
		{"queue", trackQueue, 0.1},
		{"batch-wait", trackBatchWait, 0.05},
		{"gather", trackGather, 0.2},
		{"dense-gemm", trackDense, 0.15},
		{"tail", trackTail, 0.1},
	}
	if len(events) != len(want) {
		t.Fatalf("worker-pool span: %d slices, want %d (queue, batch-wait, gather, dense-gemm, tail)", len(events), len(want))
	}
	for i, w := range want {
		ev := events[i]
		if ev.Cat != w.cat || ev.TID != w.tid || math.Abs(ev.Dur-w.durUS) > 1e-9 {
			t.Fatalf("slice %d = %s on track %d for %v us, want %s on track %d for %v us",
				i, ev.Cat, ev.TID, ev.Dur, w.cat, w.tid, w.durUS)
		}
	}
}

func TestWriteTraceEventsJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTraceEvents(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(buf.String()) != "[]" {
		t.Fatalf("nil events: %q, want []", buf.String())
	}

	buf.Reset()
	events := SpanEvents([]Span{testSpan(1)})
	if err := WriteTraceEvents(&buf, events); err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("trace output is not a JSON array: %v", err)
	}
	if len(decoded) != len(events) {
		t.Fatalf("decoded %d events, wrote %d", len(decoded), len(events))
	}
	for _, ev := range decoded {
		for _, key := range []string{"name", "cat", "ph", "ts", "dur", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("trace event missing %q: %v", key, ev)
			}
		}
	}
}

func TestMetricWriterFormat(t *testing.T) {
	var buf bytes.Buffer
	m := NewMetricWriter(&buf)
	m.Gauge("microrec_up", "Server liveness.", 1)
	m.Counter("microrec_requests_total", "Requests.", 1234)
	fam := m.Family("microrec_latency_us", "Latency.", "histogram")
	fam.Sample("microrec_latency_us_bucket", 10, "le", "100")
	fam.Sample("microrec_latency_us_bucket", 12, "le", "+Inf")
	fam.Sample("microrec_latency_us_sum", 420.5)
	fam.Sample("microrec_latency_us_count", 12)
	m.Info("microrec_build_info", "Build provenance.", "revision", "abc123", "kernels", `say "hi"`)
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	wants := []string{
		"# HELP microrec_up Server liveness.",
		"# TYPE microrec_up gauge",
		"microrec_up 1",
		"# TYPE microrec_requests_total counter",
		"microrec_requests_total 1234",
		"# TYPE microrec_latency_us histogram",
		`microrec_latency_us_bucket{le="100"} 10`,
		`microrec_latency_us_bucket{le="+Inf"} 12`,
		"microrec_latency_us_sum 420.5",
		"microrec_latency_us_count 12",
		`microrec_build_info{kernels="say \"hi\"",revision="abc123"} 1`,
	}
	for _, want := range wants {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing line %q in:\n%s", want, out)
		}
	}
}

func TestReadBuild(t *testing.T) {
	bi := ReadBuild("avx2-gemm")
	if bi.Revision == "" {
		t.Fatal("revision must never be empty (fallback is \"unknown\")")
	}
	if bi.GoVersion == "" {
		t.Fatal("go version must be populated")
	}
	if bi.Kernels != "avx2-gemm" {
		t.Fatalf("kernels = %q", bi.Kernels)
	}
}

func TestVerdictNames(t *testing.T) {
	for v, want := range map[uint8]string{
		VerdictOK: "ok", VerdictExpired: "expired", VerdictCanceled: "canceled",
		VerdictShed: "shed", VerdictError: "error", 99: "error",
	} {
		if got := VerdictName(v); got != want {
			t.Errorf("VerdictName(%d) = %q, want %q", v, got, want)
		}
	}
}

// BenchmarkSpanRecord measures both halves of the overhead claim: the
// unsampled hot path (one atomic increment per request at the default 1-in-8
// rate) and the sampled path (full 16-word seqlock store).
func BenchmarkSpanRecord(b *testing.B) {
	span := testSpan(1)
	b.Run("unsampled", func(b *testing.B) {
		r := NewRecorder(4096, 8)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if r.Sample() {
				r.Record(span)
			}
		}
	})
	b.Run("sampled", func(b *testing.B) {
		r := NewRecorder(4096, 1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if r.Sample() {
				r.Record(span)
			}
		}
	})
}
