package accel

import (
	"io"

	"microrec/internal/memsim"
	"microrec/internal/model"
	"microrec/internal/pipesim"
	"microrec/internal/placement"
)

// Model is one modelled accelerator: a model, its placement plan on the
// U280's memory system (Algorithm 1) and the build configuration. The plan's
// lookup latency is the lookup stage of the timing model.
type Model struct {
	Spec   *model.Spec
	Plan   *placement.Result
	Config Config
}

// New runs the placement search for spec on a U280 with cfg's on-chip banks
// and returns the modelled build.
func New(spec *model.Spec, cfg Config, opts placement.Options) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	plan, err := placement.Plan(spec, memsim.U280(cfg.OnChipBanks), opts)
	if err != nil {
		return nil, err
	}
	return &Model{Spec: spec, Plan: plan, Config: cfg}, nil
}

// LookupNS is the plan's modelled per-inference embedding-lookup latency.
func (m *Model) LookupNS() float64 { return m.Plan.Report.LatencyNS }

// Timing runs `items` inferences back to back through the timing model (the
// accelerator has no batching, §4.1).
func (m *Model) Timing(items int) (TimingReport, error) {
	return m.Config.Simulate(m.Spec, m.LookupNS(), items)
}

// TracePipeline is Timing that also writes a Chrome-trace JSON of every
// modelled stage occupancy to w (open it in chrome://tracing or Perfetto to
// inspect pipeline balance). It traces no live traffic: for spans of real
// requests use the serving tier's flight recorder (GET /trace, `microrec
// trace -live`), which writes the same trace-event format.
func (m *Model) TracePipeline(items int, w io.Writer) (TimingReport, error) {
	p, err := m.Config.BuildPipeline(m.Spec, m.LookupNS())
	if err != nil {
		return TimingReport{}, err
	}
	events, res, err := p.Trace(items)
	if err != nil {
		return TimingReport{}, err
	}
	if err := pipesim.ChromeTrace(w, events); err != nil {
		return TimingReport{}, err
	}
	return report(p, res, m.Spec, m.LookupNS(), items), nil
}
