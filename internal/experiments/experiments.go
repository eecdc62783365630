package experiments

import (
	"fmt"

	"microrec/internal/accel"
	"microrec/internal/cpu"
	"microrec/internal/fixedpoint"
	"microrec/internal/memsim"
	"microrec/internal/metrics"
	"microrec/internal/model"
	"microrec/internal/placement"
)

// Options configures experiment runs.
type Options struct {
	// Items is the stream length fed to the timing simulator
	// (default 10000 — long enough for steady state).
	Items int
	// Seed drives workload generation where applicable.
	Seed int64
	// Allocator selects the placement bank-assignment strategy
	// (default placement.RoundRobin, the paper-faithful one).
	Allocator placement.Allocator
}

func (o Options) withDefaults() Options {
	if o.Items == 0 {
		o.Items = 10000
	}
	return o
}

// productionCase bundles one (model, precision) evaluation target.
type productionCase struct {
	Spec *model.Spec
	Cfg  accel.Config
	CPU  cpu.Model
}

func productionCases() []productionCase {
	small, large := model.SmallProduction(), model.LargeProduction()
	return []productionCase{
		{small, accel.SmallFP16(), cpu.PaperSmall()},
		{small, accel.SmallFP32(), cpu.PaperSmall()},
		{large, accel.LargeFP16(), cpu.PaperLarge()},
		{large, accel.LargeFP32(), cpu.PaperLarge()},
	}
}

// planFor runs the placement search for a model under the given options.
func planFor(spec *model.Spec, onChipBanks int, cart bool, alloc placement.Allocator) (*placement.Result, error) {
	sys := memsim.U280(onChipBanks)
	return placement.Plan(spec, sys, placement.Options{
		EnableCartesian: cart,
		Allocator:       alloc,
	})
}

// Runner is one reproducible experiment.
type Runner struct {
	// Name is the CLI identifier ("table2", "fig7", ...).
	Name string
	// Description says what the experiment regenerates.
	Description string
	// Run produces the rendered report tables.
	Run func(Options) ([]*metrics.Table, error)
}

// All returns every experiment in presentation order.
func All() []Runner {
	return []Runner{
		{"models", "Table 1: model specifications", func(o Options) ([]*metrics.Table, error) { return RunModels(o) }},
		{"workload", "Figure 1: workload specification", func(o Options) ([]*metrics.Table, error) { return RunWorkload(o) }},
		{"fig3", "Figure 3: embedding layer share of CPU inference", func(o Options) ([]*metrics.Table, error) { return RunFigure3(o) }},
		{"table2", "Table 2: end-to-end inference, CPU vs MicroRec", func(o Options) ([]*metrics.Table, error) { return RunTable2(o) }},
		{"table3", "Table 3: Cartesian-product benefit and overhead", func(o Options) ([]*metrics.Table, error) { return RunTable3(o) }},
		{"table4", "Table 4: embedding-layer lookup performance", func(o Options) ([]*metrics.Table, error) { return RunTable4(o) }},
		{"table5", "Table 5: Facebook DLRM-RMC2 lookup speedups", func(o Options) ([]*metrics.Table, error) { return RunTable5(o) }},
		{"fig7", "Figure 7: throughput under multi-round lookups", func(o Options) ([]*metrics.Table, error) { return RunFigure7(o) }},
		{"table6", "Table 6: FPGA resource utilisation", func(o Options) ([]*metrics.Table, error) { return RunTable6(o) }},
		{"axi", "Appendix: AXI interface width trade-off", func(o Options) ([]*metrics.Table, error) { return RunAXI(o) }},
		{"cost", "Appendix: CPU vs FPGA serving cost", func(o Options) ([]*metrics.Table, error) { return RunCost(o) }},
		{"allocator", "Ablation A1: round-robin vs LPT allocation, heuristic vs brute force", func(o Options) ([]*metrics.Table, error) { return RunAllocatorAblation(o) }},
		{"quant", "Ablation A2: fixed-point quantization error", func(o Options) ([]*metrics.Table, error) { return RunQuantAblation(o) }},
		{"rule2", "Ablation A3: product arity (validates heuristic rule 2)", func(o Options) ([]*metrics.Table, error) { return RunRule2Ablation(o) }},
		{"hotcache", "Extension E1: hot-row caching under skewed traffic", func(o Options) ([]*metrics.Table, error) { return RunHotCache(o) }},
		{"hoststream", "Extension E2: host-to-FPGA feature streaming", func(o Options) ([]*metrics.Table, error) { return RunHostStream(o) }},
		{"quantcal", "Extension E3: per-layer calibrated quantization", func(o Options) ([]*metrics.Table, error) { return RunQuantCalibration(o) }},
		{"sla", "Serving study: batch size vs latency SLA (motivates §2.3)", func(o Options) ([]*metrics.Table, error) { return RunSLA(o) }},
	}
}

// Find returns the runner with the given name.
func Find(name string) (Runner, error) {
	for _, r := range All() {
		if r.Name == name {
			return r, nil
		}
	}
	return Runner{}, fmt.Errorf("experiments: unknown experiment %q", name)
}

// RunModels prints Table 1: the specifications of the evaluated models.
func RunModels(opts Options) ([]*metrics.Table, error) {
	t := metrics.NewTable("Table 1: Specification of the production models",
		"Model", "Table Num", "Feat Len", "Hidden-Layer", "Size")
	for _, spec := range []*model.Spec{model.SmallProduction(), model.LargeProduction()} {
		t.AddRow(spec.Name,
			fmt.Sprint(len(spec.Tables)),
			fmt.Sprint(spec.FeatureLen()),
			fmt.Sprint(spec.Hidden),
			metrics.FmtBytes(spec.TotalBytes()))
	}
	dlrm, err := model.DLRMRMC2(8, 32)
	if err != nil {
		return nil, err
	}
	t.AddRow(dlrm.Name,
		fmt.Sprint(len(dlrm.Tables)),
		fmt.Sprint(dlrm.FeatureLen()),
		fmt.Sprint(dlrm.Hidden),
		metrics.FmtBytes(dlrm.TotalBytes()))
	t.AddNote("paper: small = 47 tables / 352 feat / 1.3 GB; large = 98 / 876 / 15.1 GB")
	return []*metrics.Table{t}, nil
}

// RunFigure3 reproduces Figure 3: the embedding layer's share of CPU
// inference latency at small batch sizes.
func RunFigure3(opts Options) ([]*metrics.Table, error) {
	t := metrics.NewTable("Figure 3: embedding layer cost during CPU inference",
		"Model", "Batch", "Embedding (ms)", "End-to-end (ms)", "Embedding share")
	for _, m := range []cpu.Model{cpu.PaperSmall(), cpu.PaperLarge()} {
		for _, b := range []int{1, 64} {
			t.AddRow(m.Spec.Name, fmt.Sprint(b),
				metrics.FmtF(m.EmbeddingMS(b), 2),
				metrics.FmtF(m.EndToEndMS(b), 2),
				metrics.FmtPct(m.EmbeddingShare(b)))
		}
	}
	t.AddNote("paper's message: the embedding layer dominates at small batches and " +
		"B=1 vs B=64 latencies are close (operator-call overhead)")
	return []*metrics.Table{t}, nil
}

// precisionLabel renders "fp16"/"fp32" in the paper's Table 2 style.
func precisionLabel(f fixedpoint.Format) string { return fmt.Sprintf("fp%d", f.Bits) }

// configFor maps (model name, precision bits) to the calibrated build.
func configFor(modelName string, bits int) accel.Config {
	f := fixedpoint.Fixed16
	if bits == 32 {
		f = fixedpoint.Fixed32
	}
	return accel.ConfigFor(modelName, f)
}
