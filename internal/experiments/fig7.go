package experiments

import (
	"fmt"

	"microrec/internal/accel"
	"microrec/internal/metrics"
	"microrec/internal/model"
)

// Figure7Point is one (rounds, throughput) sample of the multi-round lookup
// robustness study.
type Figure7Point struct {
	Model      string
	Rounds     int
	LookupNS   float64
	ItemsPerS  float64
	Bottleneck string
}

// Figure7Series computes end-to-end throughput (16-bit fixed point) as the
// number of per-table lookup rounds grows from 1 to maxRounds (§5.4.1,
// Figure 7). Lookup work scales linearly with rounds; throughput stays flat
// while the DNN pipeline stages dominate, then degrades once the memory
// system becomes the bottleneck.
func Figure7Series(opts Options, maxRounds int) ([]Figure7Point, error) {
	opts = opts.withDefaults()
	if maxRounds < 1 {
		return nil, fmt.Errorf("experiments: maxRounds %d", maxRounds)
	}
	var out []Figure7Point
	for _, target := range []struct {
		spec *model.Spec
		cfg  accel.Config
	}{
		{model.SmallProduction(), accel.SmallFP16()},
		{model.LargeProduction(), accel.LargeFP16()},
	} {
		base, err := planFor(target.spec, target.cfg.OnChipBanks, true, opts.Allocator)
		if err != nil {
			return nil, err
		}
		for rounds := 1; rounds <= maxRounds; rounds++ {
			// r rounds of retrieval multiply every channel's serialised
			// access count by r.
			lookupNS := base.Report.LatencyNS * float64(rounds)
			rep, err := target.cfg.Simulate(target.spec, lookupNS, opts.Items)
			if err != nil {
				return nil, err
			}
			out = append(out, Figure7Point{
				Model:      target.spec.Name,
				Rounds:     rounds,
				LookupNS:   lookupNS,
				ItemsPerS:  rep.SteadyThroughputItemsPerSec(),
				Bottleneck: rep.BottleneckStage,
			})
		}
	}
	return out, nil
}

// Figure7Breakpoint returns the largest round count whose throughput is
// within 0.5% of the single-round throughput, per model.
func Figure7Breakpoint(points []Figure7Point) map[string]int {
	base := map[string]float64{}
	bp := map[string]int{}
	for _, p := range points {
		if p.Rounds == 1 {
			base[p.Model] = p.ItemsPerS
		}
		if p.ItemsPerS >= base[p.Model]*0.995 {
			if p.Rounds > bp[p.Model] {
				bp[p.Model] = p.Rounds
			}
		}
	}
	return bp
}

// RunFigure7 renders the multi-round throughput series.
func RunFigure7(opts Options) ([]*metrics.Table, error) {
	points, err := Figure7Series(opts, 8)
	if err != nil {
		return nil, err
	}
	t := metrics.NewTable("Figure 7: end-to-end throughput under multi-round lookups (fp16)",
		"Model", "Rounds", "Lookup (ns)", "Throughput (items/s)", "Bottleneck")
	for _, p := range points {
		t.AddRow(p.Model, fmt.Sprint(p.Rounds),
			metrics.FmtF(p.LookupNS, 0),
			metrics.FmtSI(p.ItemsPerS),
			p.Bottleneck)
	}
	// One note per model, in series order: ranging over the breakpoint map
	// would order them at random.
	bp := Figure7Breakpoint(points)
	for _, p := range points {
		if p.Rounds == 1 {
			t.AddNote("%s tolerates %d rounds without throughput loss (paper: %d)",
				p.Model, bp[p.Model], PaperFigure7Breakpoints[p.Model])
		}
	}
	return []*metrics.Table{t}, nil
}
