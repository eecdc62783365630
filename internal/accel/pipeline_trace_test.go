package accel

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

func TestTraceMatchesSimulate(t *testing.T) {
	p := mustPipeline(t,
		Stage{Name: "a", LatencyNS: 5, IntervalNS: 2, FIFODepth: 3},
		Stage{Name: "b", LatencyNS: 9, IntervalNS: 9},
		Stage{Name: "c", LatencyNS: 4, IntervalNS: 4},
	)
	for _, items := range []int{1, 7, 40} {
		events, traced, err := p.Trace(items)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := p.Simulate(items)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(traced.MakespanNS-plain.MakespanNS) > 1e-9 ||
			math.Abs(traced.MeanLatencyNS-plain.MeanLatencyNS) > 1e-9 {
			t.Errorf("items=%d: Trace result %+v differs from Simulate %+v", items, traced, plain)
		}
		if len(events) != items*3 {
			t.Errorf("items=%d: %d events, want %d", items, len(events), items*3)
		}
	}
}

func TestTraceEventInvariants(t *testing.T) {
	p := mustPipeline(t,
		Stage{Name: "x", LatencyNS: 10, IntervalNS: 5, FIFODepth: 2},
		Stage{Name: "y", LatencyNS: 20, IntervalNS: 20},
	)
	events, _, err := p.Trace(20)
	if err != nil {
		t.Fatal(err)
	}
	// Per item: stage s+1 must start no earlier than stage s ends.
	starts := map[[2]int]float64{}
	ends := map[[2]int]float64{}
	for _, e := range events {
		if e.EndNS < e.StartNS {
			t.Fatalf("event %+v ends before it starts", e)
		}
		starts[[2]int{e.Item, e.Stage}] = e.StartNS
		ends[[2]int{e.Item, e.Stage}] = e.EndNS
	}
	for item := 0; item < 20; item++ {
		if starts[[2]int{item, 1}] < ends[[2]int{item, 0}]-1e-9 {
			t.Errorf("item %d entered stage 1 before leaving stage 0", item)
		}
	}
	// Per stage: consecutive items respect the initiation interval.
	for item := 1; item < 20; item++ {
		for s := 0; s < 2; s++ {
			gap := starts[[2]int{item, s}] - starts[[2]int{item - 1, s}]
			ii := p.stages[s].IntervalNS
			if gap < ii-1e-9 {
				t.Errorf("stage %d items %d/%d: gap %.1f < II %.1f", s, item-1, item, gap, ii)
			}
		}
	}
}

func TestTraceErrors(t *testing.T) {
	p := mustPipeline(t, Stage{Name: "a", LatencyNS: 1, IntervalNS: 1})
	if _, _, err := p.Trace(0); err == nil {
		t.Error("Trace(0): want error")
	}
}

func TestChromeTraceJSON(t *testing.T) {
	p := mustPipeline(t,
		Stage{Name: "lookup", LatencyNS: 458, IntervalNS: 458},
		Stage{Name: "gemm", LatencyNS: 3400, IntervalNS: 3400},
	)
	events, _, err := p.Trace(5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(decoded) != 10 {
		t.Errorf("trace has %d events, want 10", len(decoded))
	}
	if decoded[0]["ph"] != "X" {
		t.Errorf("phase = %v, want X", decoded[0]["ph"])
	}
}
