package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// TraceEvent is one entry of the Chrome trace-event format ("X" complete
// events): the JSON shape chrome://tracing and https://ui.perfetto.dev load
// directly. Both the live tracer (GET /trace, SpanEvents over flight-recorder
// spans) and the simulated tracer (`microrec trace`, accel.Pipeline stage events)
// serialize through this one type, so the two outputs can never drift apart
// in format.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteTraceEvents writes the events as a chrome://tracing / Perfetto
// compatible JSON array.
func WriteTraceEvents(w io.Writer, events []TraceEvent) error {
	if events == nil {
		events = []TraceEvent{}
	}
	if err := json.NewEncoder(w).Encode(events); err != nil {
		return fmt.Errorf("obs: encoding trace: %w", err)
	}
	return nil
}

// Track (tid) assignment of live span events: one track per stage, in
// datapath order, so a request reads top-to-bottom as it flows through the
// server.
const (
	trackQueue = iota
	trackBatchWait
	trackGather
	trackDense
	trackTail
)

// spanSegment is one contiguous piece of a span's timeline.
type spanSegment struct {
	name string
	tid  int
	ns   int64
}

// segments returns the span's contiguous timeline pieces in order. Waits
// between pipeline stages are folded into the following stage's track (they
// render as one slice with the wait recorded in args instead of a separate
// sliver, keeping the trace readable); the queue and batch-wait segments get
// their own tracks because they are where overload shows up.
func (s Span) segments() []spanSegment {
	return []spanSegment{
		{"queue", trackQueue, s.QueueNS},
		{"batch-wait", trackBatchWait, s.BatchWaitNS},
		{"gather", trackGather, s.GatherNS},
		{"dense-gemm", trackDense, s.DenseWaitNS + s.DenseNS},
		{"tail", trackTail, s.TailWaitNS + s.TailNS},
	}
}

// SpanEvents converts flight-recorder spans into trace events: per span, one
// "X" slice per non-empty timeline segment, laid out contiguously from the
// span's start. Timestamps are relative to the earliest span's start (Chrome
// trace ts is unanchored). The first slice of every span carries the span's
// summary args (e2e_us, batch, verdict, replica and cold-tier detail), so a
// scraper can join slices back into requests via args.req.
func SpanEvents(spans []Span) []TraceEvent {
	if len(spans) == 0 {
		return nil
	}
	base := spans[0].Start
	for _, s := range spans {
		if s.Start < base {
			base = s.Start
		}
	}
	events := make([]TraceEvent, 0, 4*len(spans))
	for _, s := range spans {
		ts := float64(s.Start-base) / 1e3
		first := true
		for _, seg := range s.segments() {
			if seg.ns <= 0 && !first {
				continue
			}
			ev := TraceEvent{
				Name: fmt.Sprintf("req %d", s.ID),
				Cat:  seg.name,
				Ph:   "X",
				TS:   ts,
				Dur:  float64(seg.ns) / 1e3,
				// One Chrome trace "process" per serving replica: routed
				// traffic renders as per-replica lanes (pid 0 = unrouted).
				PID:  int(s.Replica),
				TID:  seg.tid,
				Args: map[string]any{"req": s.ID},
			}
			if first {
				ev.Args["e2e_us"] = float64(s.EndToEndNS) / 1e3
				ev.Args["stage_sum_us"] = float64(s.StageSumNS()) / 1e3
				ev.Args["batch"] = s.Batch
				ev.Args["verdict"] = VerdictName(s.Verdict)
				if s.Replica > 0 {
					ev.Args["replica"] = s.Replica
				}
				if s.ColdFaults > 0 {
					ev.Args["cold_faults"] = s.ColdFaults
				}
				first = false
			}
			events = append(events, ev)
			ts += float64(seg.ns) / 1e3
		}
	}
	return events
}
