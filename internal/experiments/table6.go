package experiments

import (
	"fmt"

	"microrec/internal/accel"
	"microrec/internal/metrics"
	"microrec/internal/model"
)

// RunTable6 renders the resource-utilisation model next to the paper's
// post-route numbers.
func RunTable6(opts Options) ([]*metrics.Table, error) {
	t := metrics.NewTable("Table 6: FPGA frequency & resource utilisation (Xilinx Alveo U280)",
		"Model", "Precision", "Freq (MHz)", "BRAM18K", "DSP48E", "FF", "LUT", "URAM", "Max rel err")
	for _, pc := range productionCases() {
		res, err := pc.Cfg.EstimateResources(pc.Spec)
		if err != nil {
			return nil, err
		}
		ref := PaperTable6[pc.Spec.Name][pc.Cfg.Precision.Bits]
		worst := 0.0
		for _, pair := range [][2]float64{
			{float64(res.BRAM18K), float64(ref.BRAM18K)},
			{float64(res.DSP48E), float64(ref.DSP48E)},
			{float64(res.FlipFlop), float64(ref.FlipFlop)},
			{float64(res.LUT), float64(ref.LUT)},
			{float64(res.URAM), float64(ref.URAM)},
		} {
			if e := metrics.RelErr(pair[0], pair[1]); e > worst {
				worst = e
			}
		}
		t.AddRow(pc.Spec.Name, precisionLabel(pc.Cfg.Precision),
			metrics.FmtF(res.ClockMHz, 0),
			fmt.Sprintf("%d (%d)", res.BRAM18K, ref.BRAM18K),
			fmt.Sprintf("%d (%d)", res.DSP48E, ref.DSP48E),
			fmt.Sprintf("%d (%d)", res.FlipFlop, ref.FlipFlop),
			fmt.Sprintf("%d (%d)", res.LUT, ref.LUT),
			fmt.Sprintf("%d (%d)", res.URAM, ref.URAM),
			metrics.FmtPct(worst))
	}
	t.AddNote("modeled (paper) — clocks are taken from Table 6; utilisation is modeled per component")

	u := metrics.NewTable("Table 6b: utilisation fractions of the U280",
		"Model", "Precision", "BRAM", "DSP", "FF", "LUT", "URAM")
	for _, pc := range productionCases() {
		res, err := pc.Cfg.EstimateResources(pc.Spec)
		if err != nil {
			return nil, err
		}
		f := res.Utilization()
		u.AddRow(pc.Spec.Name, precisionLabel(pc.Cfg.Precision),
			metrics.FmtPct(f["BRAM18K"]), metrics.FmtPct(f["DSP48E"]),
			metrics.FmtPct(f["FF"]), metrics.FmtPct(f["LUT"]), metrics.FmtPct(f["URAM"]))
	}
	return []*metrics.Table{t, u}, nil
}

// RunAXI renders the appendix's AXI-width trade-off: FIFO BRAM cost and
// clock degradation versus interface width, with the resulting throughput.
func RunAXI(opts Options) ([]*metrics.Table, error) {
	opts = opts.withDefaults()
	spec := model.SmallProduction()
	base := accel.SmallFP16()
	t := metrics.NewTable("Appendix: AXI interface width trade-off (small model, fp16)",
		"AXI bits", "FIFO BRAM18K", "share of U280 BRAM", "Clock (MHz)", "Lookup (ns)", "Throughput (items/s)")
	for _, width := range []int{32, 64, 128, 256, 512} {
		fifo, clock, err := accel.AXIWidthTradeoff(width, base)
		if err != nil {
			return nil, err
		}
		cfg := base
		cfg.ClockMHz = clock
		// Wider AXI shortens the streaming part of an access; row
		// activation and controller latency are unchanged.
		sys := accel.U280(base.OnChipBanks)
		for i := range sys.Banks {
			if sys.Banks[i].Kind != accel.OnChip {
				sys.Banks[i].Timing.PerByteNS *= 32.0 / float64(width)
			}
		}
		plan, err := accel.Plan(spec, sys, accel.Options{
			EnableCartesian: true,
			Allocator:       opts.Allocator,
		})
		if err != nil {
			return nil, err
		}
		rep, err := cfg.Simulate(spec, plan.Report.LatencyNS, opts.Items)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(width),
			fmt.Sprint(fifo),
			metrics.FmtPct(float64(fifo)/accel.U280BRAM18K),
			metrics.FmtF(clock, 0),
			metrics.FmtF(plan.Report.LatencyNS, 0),
			metrics.FmtSI(rep.SteadyThroughputItemsPerSec()))
	}
	t.AddNote("the paper chooses 32-bit AXI: wider interfaces burn BRAM on FIFOs and " +
		"lower the clock, slowing the compute-bound pipeline (appendix)")
	return []*metrics.Table{t}, nil
}

// RunCost renders the appendix's cost comparison: dollars per billion
// inferences on AWS-rented hardware.
func RunCost(opts Options) ([]*metrics.Table, error) {
	opts = opts.withDefaults()
	sum, err := Table2Summary(opts)
	if err != nil {
		return nil, err
	}
	t := metrics.NewTable("Appendix: serving cost, CPU vs FPGA (AWS rental)",
		"Model", "Engine", "Throughput (items/s)", "$/hour", "$ per 1e9 inferences")
	for _, pc := range productionCases() {
		if pc.Cfg.Precision.Bits != 32 {
			continue // the appendix quotes the fixed-32 speedup
		}
		cpuTp := pc.CPU.ThroughputItemsPerSec(2048)
		fpgaTp := sum[pc.Spec.Name][32].FPGAItemsPerS
		cpuCost := PaperCPUServerUSDPerHour / (cpuTp * 3600) * 1e9
		fpgaCost := PaperFPGAServerUSDPerHour / (fpgaTp * 3600) * 1e9
		t.AddRow(pc.Spec.Name, "CPU (B=2048)", metrics.FmtSI(cpuTp),
			metrics.FmtF(PaperCPUServerUSDPerHour, 2), metrics.FmtF(cpuCost, 2))
		t.AddRow(pc.Spec.Name, "FPGA (fp32)", metrics.FmtSI(fpgaTp),
			metrics.FmtF(PaperFPGAServerUSDPerHour, 2), metrics.FmtF(fpgaCost, 2))
	}
	t.AddNote("paper: CPU server $%.2f/h vs FPGA $%.2f/h; with the fp32 speedup, FPGAs win long-term",
		PaperCPUServerUSDPerHour, PaperFPGAServerUSDPerHour)
	return []*metrics.Table{t}, nil
}
