package experiments

import (
	"fmt"

	"microrec/internal/accel"
	"microrec/internal/metrics"
)

// RunSLA quantifies §2.3's serving argument: the CPU baseline must trade
// batch size against the tens-of-milliseconds SLA, while MicroRec serves
// item-by-item at microsecond latency and sidesteps batching entirely.
func RunSLA(opts Options) ([]*metrics.Table, error) {
	opts = opts.withDefaults()

	// Part 1: the feasible CPU operating points per SLA.
	t := metrics.NewTable("Serving study (a): largest CPU batch and throughput under an SLA",
		"Model", "SLA (ms)", "Max batch", "CPU latency (ms)", "CPU throughput (items/s)", "MicroRec latency")
	for _, target := range []struct {
		m   CPUModel
		cfg accel.Config
	}{
		{SmallCPU(), accel.SmallFP16()},
		{LargeCPU(), accel.LargeFP16()},
	} {
		plan, err := planFor(target.m.Spec, target.cfg.OnChipBanks, true, opts.Allocator)
		if err != nil {
			return nil, err
		}
		rep, err := target.cfg.Simulate(target.m.Spec, plan.Report.LatencyNS, opts.Items)
		if err != nil {
			return nil, err
		}
		for _, slaMS := range []float64{10, 20, 50, 100} {
			b := MaxBatchUnderSLA(target.m, slaMS, 8192)
			var lat, tp string
			if b == 0 {
				lat, tp = "-", "infeasible"
			} else {
				lat = metrics.FmtF(target.m.EndToEndMS(b), 2)
				tp = metrics.FmtSI(target.m.ThroughputItemsPerSec(b))
			}
			t.AddRow(target.m.Spec.Name,
				metrics.FmtF(slaMS, 0),
				fmt.Sprint(b), lat, tp,
				fmt.Sprintf("%.1f µs (itemwise)", rep.LatencyNS/1e3))
		}
	}
	t.AddNote("the paper selects B=2048 as the best CPU configuration that still meets " +
		"tens-of-ms SLAs (Table 2 caption); MicroRec's item latency makes the SLA moot")

	// Part 2: tail latency of a batching queue at increasing offered load.
	q := metrics.NewTable("Serving study (b): batching-queue tail latency (small model, MaxBatch 2048, timeout 10 ms)",
		"Offered load (q/s)", "Mean batch", "p50 (ms)", "p99 (ms)", "Throughput (q/s)")
	m := SmallCPU()
	pol := QueuePolicy{MaxBatch: 2048, TimeoutMS: 10}
	for _, rate := range []float64{2000, 10000, 40000, 70000} {
		res, err := SimulateQueue(m, rate, 4000, pol, 0, opts.Seed)
		if err != nil {
			return nil, err
		}
		q.AddRow(metrics.FmtF(rate, 0),
			metrics.FmtF(res.MeanBatch, 1),
			metrics.FmtF(res.Latency.P50, 1),
			metrics.FmtF(res.Latency.P99, 1),
			metrics.FmtF(res.ThroughputPerSec, 0))
	}
	q.AddNote("queueing pushes CPU tail latency well past the batch service time as load grows")
	return []*metrics.Table{t, q}, nil
}
