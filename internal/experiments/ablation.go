package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"microrec/internal/accel"
	"microrec/internal/core"
	"microrec/internal/metrics"
	"microrec/internal/model"
	"microrec/internal/workload"
)

// RunAllocatorAblation compares the paper-faithful round-robin DRAM
// allocation against the LPT cost-balancing allocator (design-choice ablation
// called out in DESIGN.md), and measures the heuristic search's optimality
// gap against brute force on random small instances.
func RunAllocatorAblation(opts Options) ([]*metrics.Table, error) {
	opts = opts.withDefaults()
	t := metrics.NewTable("Ablation A1a: DRAM allocation strategy (lookup latency, ns)",
		"Model", "Config", "RoundRobin (paper)", "LPT (ours)", "LPT gain")
	for _, target := range []struct {
		spec  *model.Spec
		banks int
	}{
		{model.SmallProduction(), accel.SmallFP16().OnChipBanks},
		{model.LargeProduction(), accel.LargeFP16().OnChipBanks},
	} {
		for _, cart := range []bool{false, true} {
			rr, err := planFor(target.spec, target.banks, cart, accel.RoundRobin)
			if err != nil {
				return nil, err
			}
			lpt, err := planFor(target.spec, target.banks, cart, accel.LPT)
			if err != nil {
				return nil, err
			}
			cfg := "without Cartesian"
			if cart {
				cfg = "with Cartesian"
			}
			t.AddRow(target.spec.Name, cfg,
				metrics.FmtF(rr.Report.LatencyNS, 0),
				metrics.FmtF(lpt.Report.LatencyNS, 0),
				metrics.FmtSpeedup(rr.Report.LatencyNS/lpt.Report.LatencyNS))
		}
	}

	g := metrics.NewTable("Ablation A1b: heuristic vs brute-force optimality (random 5-table instances)",
		"Trial", "Heuristic (ns)", "Optimal (ns)", "Gap")
	sys := accel.System{Banks: []accel.Bank{
		{Kind: accel.HBM, Capacity: 1 << 24, Timing: accel.HBMTiming},
		{Kind: accel.HBM, Capacity: 1 << 24, Timing: accel.HBMTiming},
		{Kind: accel.HBM, Capacity: 1 << 24, Timing: accel.HBMTiming},
		{Kind: accel.OnChip, Capacity: 2 << 10, Timing: accel.OnChipTiming},
	}}
	rng := rand.New(rand.NewSource(opts.Seed + 77))
	var worstGap float64
	for trial := 0; trial < 6; trial++ {
		tables := make([]model.TableSpec, 5)
		for i := range tables {
			tables[i] = model.TableSpec{
				ID: i, Name: fmt.Sprintf("t%d", i),
				Rows: int64(10 + rng.Intn(4000)), Dim: 4, Lookups: 1,
			}
		}
		spec := &model.Spec{Name: fmt.Sprintf("rand-%d", trial), Tables: tables, Hidden: []int{8}}
		h, err := accel.Plan(spec, sys, accel.Options{EnableCartesian: true, Allocator: accel.LPT})
		if err != nil {
			return nil, err
		}
		b, err := accel.BruteForce(spec, sys,
			accel.Options{EnableCartesian: true, Allocator: accel.LPT},
			accel.BruteForceLimits{MaxTables: 6, MaxExhaustiveTables: 6})
		if err != nil {
			return nil, err
		}
		gap := h.Report.LatencyNS/b.Report.LatencyNS - 1
		worstGap = math.Max(worstGap, gap)
		g.AddRow(fmt.Sprint(trial),
			metrics.FmtF(h.Report.LatencyNS, 1),
			metrics.FmtF(b.Report.LatencyNS, 1),
			metrics.FmtPct(gap))
	}
	g.AddNote("worst optimality gap: %s (§3.4.2 claims near-optimal at O(N^2))", metrics.FmtPct(worstGap))
	return []*metrics.Table{t, g}, nil
}

// RunQuantAblation measures fixed-point quantization error against the
// float32 reference on real inference traffic — the accuracy side of the
// fp16-vs-fp32 throughput trade-off of Table 2.
func RunQuantAblation(opts Options) ([]*metrics.Table, error) {
	opts = opts.withDefaults()
	t := metrics.NewTable("Ablation A2: fixed-point CTR error vs float32 reference (100 queries)",
		"Model", "Precision", "Max |err|", "Mean |err|")
	for _, target := range []struct {
		spec *model.Spec
		cfgs []accel.Config
	}{
		{model.SmallProduction(), []accel.Config{accel.SmallFP16(), accel.SmallFP32()}},
		{model.LargeProduction(), []accel.Config{accel.LargeFP16(), accel.LargeFP32()}},
	} {
		params, err := target.spec.Materialize(model.MaterializeOptions{Seed: opts.Seed, MaxRowsPerTable: 256})
		if err != nil {
			return nil, err
		}
		gen, err := workload.NewGenerator(target.spec, workload.Uniform, opts.Seed+1)
		if err != nil {
			return nil, err
		}
		queries, err := gen.Batch(100)
		if err != nil {
			return nil, err
		}
		for _, cfg := range target.cfgs {
			eng, err := core.Build(params, core.Config{Precision: cfg.Precision})
			if err != nil {
				return nil, err
			}
			var maxErr, sumErr float64
			for _, q := range queries {
				ref, err := eng.ReferenceOne(q)
				if err != nil {
					return nil, err
				}
				got, err := eng.InferOne(q)
				if err != nil {
					return nil, err
				}
				e := math.Abs(float64(got - ref))
				sumErr += e
				maxErr = math.Max(maxErr, e)
			}
			t.AddRow(target.spec.Name, precisionLabel(cfg.Precision),
				fmt.Sprintf("%.5f", maxErr),
				fmt.Sprintf("%.5f", sumErr/float64(len(queries))))
		}
	}
	t.AddNote("fp16 trades a small CTR error for the Table 2 throughput gain; fp32 is near-exact")
	return []*metrics.Table{t}, nil
}
