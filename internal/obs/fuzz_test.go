package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"regexp"
	"strings"
	"testing"
)

// FuzzSpanTraceEvents round-trips arbitrary span timings through SpanEvents
// and WriteTraceEvents: whatever a flight-recorder slot holds (including the
// negative and overflowing durations a torn or hand-rolled span could carry),
// the tracer must emit a valid JSON array of complete ("X") events that
// chrome://tracing would accept, never panic or corrupt the encoding.
func FuzzSpanTraceEvents(f *testing.F) {
	f.Add(int64(0), int64(10), int64(20), int64(30), int64(5), int64(40), int64(2), int64(8), int64(0), int32(16), int32(0), int64(100))
	f.Add(int64(1e18), int64(-5), int64(0), int64(0), int64(0), int64(0), int64(0), int64(0), int64(77), int32(1), int32(3), int64(-1))
	f.Add(int64(-42), int64(math.MaxInt64), int64(math.MinInt64), int64(1), int64(1), int64(1), int64(1), int64(1), int64(0), int32(0), int32(0), int64(0))
	f.Fuzz(func(t *testing.T, start, queue, batchWait, gather, denseWait, dense, tailWait, tail, tail2 int64, batch, coldFaults int32, start2 int64) {
		spans := []Span{
			{
				ID: 1, Start: start, QueueNS: queue, BatchWaitNS: batchWait,
				GatherNS: gather, DenseWaitNS: denseWait, DenseNS: dense,
				TailWaitNS: tailWait, TailNS: tail,
				Batch: batch, ColdFaults: coldFaults,
				EndToEndNS: queue + batchWait + gather + dense + tail,
			},
			{ID: 2, Start: start2, QueueNS: queue, TailNS: tail2, Batch: batch},
		}
		events := SpanEvents(spans)
		var buf bytes.Buffer
		if err := WriteTraceEvents(&buf, events); err != nil {
			t.Fatalf("WriteTraceEvents: %v", err)
		}
		if !json.Valid(buf.Bytes()) {
			t.Fatalf("trace output is not valid JSON: %q", buf.String())
		}
		var decoded []TraceEvent
		if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
			t.Fatalf("trace output does not decode as []TraceEvent: %v", err)
		}
		if len(decoded) != len(events) {
			t.Fatalf("decoded %d events, wrote %d", len(decoded), len(events))
		}
		for i, ev := range decoded {
			if ev.Ph != "X" {
				t.Fatalf("event %d: phase %q, want complete event \"X\"", i, ev.Ph)
			}
		}
	})
}

// promSampleLine is the exposition-format sample shape: metric name, optional
// {labels}, one space, one value token. Newlines inside HELP text or label
// values must be escaped away by the writer, so every emitted line matches
// either this or a # comment — an injected newline would produce a line that
// matches neither.
var promSampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^\n]*\})? [^ \n]+$`)

// FuzzMetricWriter drives the Prometheus text writer with attacker-shaped
// runtime data — arbitrary HELP text and label values (metric and label
// names are compile-time constants in the tree, so the target sanitizes
// those) — and checks the output stays line-structured exposition format:
// exactly the expected number of lines, each a # comment or a well-formed
// sample.
func FuzzMetricWriter(f *testing.F) {
	f.Add("latency_us", "serving latency", "shard", "0", 12.5)
	f.Add("x", "help with \"quotes\" and \\slashes\\", "k", "line1\nline2", math.Inf(1))
	f.Add("m", "multi\nline\nhelp", "key", `tricky\"value`, math.NaN())
	f.Fuzz(func(t *testing.T, name, help, labelKey, labelVal string, v float64) {
		clean := func(s, fallback string) string {
			var b strings.Builder
			for _, r := range s {
				if r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
					(b.Len() > 0 && r >= '0' && r <= '9') {
					b.WriteRune(r)
				}
			}
			if b.Len() == 0 {
				return fallback
			}
			return b.String()
		}
		name = clean(name, "m")
		labelKey = clean(labelKey, "k")

		var buf bytes.Buffer
		w := NewMetricWriter(&buf)
		w.Gauge(name, help, v)
		w.Family(name+"_fam", help, "counter").Obs(v, labelKey, labelVal)
		w.Info(name+"_info", help, labelKey, labelVal)
		if err := w.Err(); err != nil {
			t.Fatalf("writer error on in-memory buffer: %v", err)
		}
		out := buf.String()
		// 3 families x (HELP + TYPE + sample) = 9 lines, newline-terminated.
		const wantLines = 9
		lines := strings.Split(out, "\n")
		if len(lines) != wantLines+1 || lines[wantLines] != "" {
			t.Fatalf("got %d lines, want %d (unescaped newline leaked?):\n%q", len(lines)-1, wantLines, out)
		}
		for i, line := range lines[:wantLines] {
			if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
				continue
			}
			if !promSampleLine.MatchString(line) {
				t.Fatalf("line %d is neither comment nor well-formed sample: %q", i, line)
			}
		}
	})
}
