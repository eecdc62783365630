// The deeply pipelined dataflow architecture of §4.1, simulated: a linear
// chain of stages (embedding lookup, per-layer broadcast / GEMM / gather)
// connected by bounded FIFOs, processing items one by one rather than batch
// by batch.
//
// Each stage s is characterised by a latency L_s (time one item spends in the
// stage) and an initiation interval II_s (minimum gap between consecutive
// item starts). The simulator evaluates the exact start-time recurrence of
// such a marked graph:
//
//	start[i][s] = max( start[i][s-1] + L_{s-1},   // data arrival
//	                   start[i-1][s] + II_s,      // stage occupancy
//	                   start[i-C_s][s+1] )        // FIFO backpressure
//
// yielding per-item latency, steady-state interval, and batch makespan — the
// quantities behind the paper's "throughput is not the reciprocal of latency"
// observation (§5.3).

package accel

import (
	"fmt"
	"io"

	"microrec/internal/obs"
)

// Stage describes one pipeline stage.
type Stage struct {
	// Name labels the stage in reports ("lookup", "fc1-gemm", ...).
	Name string
	// LatencyNS is the stage traversal time of one item.
	LatencyNS float64
	// IntervalNS is the initiation interval between consecutive items.
	// Must be <= LatencyNS for internally pipelined stages; a
	// non-pipelined stage has IntervalNS == LatencyNS.
	IntervalNS float64
	// FIFODepth is the capacity of the FIFO feeding the NEXT stage
	// (ignored for the last stage). Zero means DefaultFIFODepth.
	FIFODepth int
}

// DefaultFIFODepth is used when a stage leaves FIFODepth zero. The paper's
// implementation uses BRAM FIFOs deep enough that backpressure only occurs
// when a downstream stage is genuinely slower (§4.1, appendix).
const DefaultFIFODepth = 4

// Validate checks the stage parameters.
func (s Stage) Validate() error {
	if s.LatencyNS < 0 || s.IntervalNS < 0 {
		return fmt.Errorf("accel: stage %q has negative timing", s.Name)
	}
	if s.IntervalNS > s.LatencyNS && s.LatencyNS > 0 {
		return fmt.Errorf("accel: stage %q interval %.1f exceeds latency %.1f", s.Name, s.IntervalNS, s.LatencyNS)
	}
	if s.FIFODepth < 0 {
		return fmt.Errorf("accel: stage %q has negative FIFO depth", s.Name)
	}
	return nil
}

// Pipeline is a linear chain of stages.
type Pipeline struct {
	stages []Stage
}

// NewPipeline builds a pipeline, validating every stage.
func NewPipeline(stages ...Stage) (*Pipeline, error) {
	if len(stages) == 0 {
		return nil, fmt.Errorf("accel: empty pipeline")
	}
	for i := range stages {
		if err := stages[i].Validate(); err != nil {
			return nil, err
		}
		if stages[i].FIFODepth == 0 {
			stages[i].FIFODepth = DefaultFIFODepth
		}
	}
	return &Pipeline{stages: append([]Stage(nil), stages...)}, nil
}

// FillLatencyNS returns the single-item end-to-end latency: the sum of stage
// latencies. This is the "16.3–31.0 microseconds" headline quantity of §5.3.
func (p *Pipeline) FillLatencyNS() float64 {
	var sum float64
	for _, s := range p.stages {
		sum += s.LatencyNS
	}
	return sum
}

// BottleneckIntervalNS returns the steady-state initiation interval: the
// largest stage II. Steady-state throughput is 1/BottleneckIntervalNS.
func (p *Pipeline) BottleneckIntervalNS() float64 {
	var m float64
	for _, s := range p.stages {
		if s.IntervalNS > m {
			m = s.IntervalNS
		}
	}
	return m
}

// Bottleneck returns the index and name of the slowest stage.
func (p *Pipeline) Bottleneck() (int, string) {
	idx := 0
	for i, s := range p.stages {
		if s.IntervalNS > p.stages[idx].IntervalNS {
			idx = i
		}
	}
	return idx, p.stages[idx].Name
}

// PipelineResult summarises a simulation run.
type PipelineResult struct {
	// Items processed.
	Items int
	// MakespanNS is the completion time of the last item.
	MakespanNS float64
	// FirstItemNS is the completion time of the first item (pipeline fill).
	FirstItemNS float64
	// MeanLatencyNS and MaxLatencyNS are per-item injection-to-completion
	// statistics.
	MeanLatencyNS float64
	MaxLatencyNS  float64
	// SteadyIntervalNS is the observed asymptotic inter-completion gap.
	SteadyIntervalNS float64
	// ThroughputPerSec is Items / MakespanNS.
	ThroughputPerSec float64
}

// Simulate runs `items` items through the pipeline, injected back-to-back
// (the host streams features continuously, §3.1). It evaluates the start-time
// recurrence exactly.
func (p *Pipeline) Simulate(items int) (PipelineResult, error) {
	return p.run(items, nil)
}

// run evaluates the start-time recurrence, optionally reporting every stage
// occupancy to record (used by Trace).
func (p *Pipeline) run(items int, record func(StageEvent)) (PipelineResult, error) {
	if items <= 0 {
		return PipelineResult{}, fmt.Errorf("accel: items %d", items)
	}
	ns := len(p.stages)
	// start[i][s]: ring buffer over items — we need up to maxDepth history.
	maxHist := 2
	for _, s := range p.stages {
		if s.FIFODepth+1 > maxHist {
			maxHist = s.FIFODepth + 1
		}
	}
	// hist[k][s] = start time of item (i-k) at stage s.
	hist := make([][]float64, maxHist)
	for k := range hist {
		hist[k] = make([]float64, ns)
		for s := range hist[k] {
			hist[k][s] = -1 // sentinel: no such item yet
		}
	}
	var (
		totalLatency float64
		maxLatency   float64
		firstDone    float64
		prevDone     float64
		lastGap      float64
		makespan     float64
	)
	cur := make([]float64, ns)
	for i := 0; i < items; i++ {
		for s := 0; s < ns; s++ {
			t := 0.0
			// Data arrival from upstream.
			if s > 0 {
				t = cur[s-1] + p.stages[s-1].LatencyNS
			}
			// Stage occupancy: previous item's start + II.
			if prev := hist[0][s]; prev >= 0 {
				if v := prev + p.stages[s].IntervalNS; v > t {
					t = v
				}
			}
			// FIFO backpressure: item i can only start at stage s if item
			// i-depth has started at stage s+1, freeing a slot.
			if s+1 < ns {
				depth := p.stages[s].FIFODepth
				if depth-1 < maxHist && depth >= 1 {
					if old := hist[depth-1][s+1]; old >= 0 && i >= depth {
						if old > t {
							t = old
						}
					}
				}
			}
			cur[s] = t
			if record != nil {
				record(StageEvent{
					Item:    i,
					Stage:   s,
					Name:    p.stages[s].Name,
					StartNS: t,
					EndNS:   t + p.stages[s].LatencyNS,
				})
			}
		}
		done := cur[ns-1] + p.stages[ns-1].LatencyNS
		makespan = done
		if i == 0 {
			firstDone = done
		} else {
			lastGap = done - prevDone
		}
		prevDone = done
		// Injection time of item i is its start at stage 0.
		lat := done - cur[0]
		totalLatency += lat
		if lat > maxLatency {
			maxLatency = lat
		}
		// Rotate history: the oldest row becomes the new front.
		last := hist[maxHist-1]
		for k := maxHist - 1; k > 0; k-- {
			hist[k] = hist[k-1]
		}
		hist[0] = last
		copy(hist[0], cur)
	}
	res := PipelineResult{
		Items:            items,
		MakespanNS:       makespan,
		FirstItemNS:      firstDone,
		MeanLatencyNS:    totalLatency / float64(items),
		MaxLatencyNS:     maxLatency,
		SteadyIntervalNS: lastGap,
		ThroughputPerSec: float64(items) / (makespan * 1e-9),
	}
	return res, nil
}

// StageEvent records one item's occupancy of one stage during a simulation.
type StageEvent struct {
	Item    int
	Stage   int
	Name    string
	StartNS float64
	EndNS   float64
}

// Trace simulates `items` items and records every stage occupancy, for
// debugging pipeline balance and for visual inspection via ChromeTrace.
// The timing semantics are identical to Simulate (both evaluate the same
// recurrence).
func (p *Pipeline) Trace(items int) ([]StageEvent, PipelineResult, error) {
	events := make([]StageEvent, 0, items*len(p.stages))
	res, err := p.run(items, func(e StageEvent) { events = append(events, e) })
	if err != nil {
		return nil, PipelineResult{}, err
	}
	return events, res, nil
}

// ChromeTrace writes the events as a chrome://tracing / Perfetto-compatible
// JSON array. Each stage becomes a track (tid) and each item an event on it.
// Serialization goes through obs.TraceEvent — the same writer the live tracer
// (GET /trace) uses — so simulated and live traces share one wire format.
func ChromeTrace(w io.Writer, events []StageEvent) error {
	out := make([]obs.TraceEvent, len(events))
	for i, e := range events {
		out[i] = obs.TraceEvent{
			Name: fmt.Sprintf("item %d", e.Item),
			Cat:  e.Name,
			Ph:   "X",
			TS:   e.StartNS / 1e3,
			Dur:  (e.EndNS - e.StartNS) / 1e3,
			PID:  0,
			TID:  e.Stage,
			Args: map[string]any{"stage": e.Name},
		}
	}
	return obs.WriteTraceEvents(w, out)
}
