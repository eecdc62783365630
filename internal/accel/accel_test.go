package accel

import (
	"fmt"
	"io"
	"math"
	"testing"

	"microrec/internal/fixedpoint"
	"microrec/internal/model"
)

func TestConfigValidate(t *testing.T) {
	for _, cfg := range []Config{SmallFP16(), SmallFP32(), LargeFP16(), LargeFP32()} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("preset invalid: %v", err)
		}
	}
	bad := SmallFP16()
	bad.ClockMHz = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero clock: want error")
	}
	bad = SmallFP16()
	bad.PEsPerLayer = nil
	if err := bad.Validate(); err == nil {
		t.Error("no PEs: want error")
	}
	bad = SmallFP16()
	bad.LanesPerPE = 0
	if err := bad.Validate(); err == nil {
		t.Error("no lanes: want error")
	}
}

func TestConfigForDispatch(t *testing.T) {
	if got := ConfigFor("production-small", fixedpoint.Fixed16); got.ClockMHz != 120 || got.OnChipBanks != 8 {
		t.Errorf("small fp16 config = %+v", got)
	}
	if got := ConfigFor("production-large", fixedpoint.Fixed32); got.ClockMHz != 135 || got.OnChipBanks != 16 {
		t.Errorf("large fp32 config = %+v", got)
	}
	if got := ConfigFor("custom", fixedpoint.Fixed16); got.OnChipBanks != 8 {
		t.Errorf("custom config = %+v", got)
	}
}

func TestGemmCycles(t *testing.T) {
	// Layer 2 of the production models: 1024x512 over 128 PEs, 12 lanes,
	// 8 cycles overhead: 4 chunks * (86+8) = 376 cycles.
	if got := gemmCycles(1024, 512, 128, 12, 8); got != 376 {
		t.Errorf("gemmCycles = %d, want 376", got)
	}
	if got := gemmCycles(1, 1, 1, 1, 0); got != 1 {
		t.Errorf("gemmCycles minimal = %d, want 1", got)
	}
}

func TestAddTreeDepth(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 4: 2, 6: 3, 12: 4, 16: 4}
	for lanes, want := range cases {
		if got := addTreeDepth(lanes); got != want {
			t.Errorf("addTreeDepth(%d) = %d, want %d", lanes, got, want)
		}
	}
}

// TestThroughputMatchesTable2 checks the timing model's steady-state
// throughput against the paper's Table 2 FPGA columns within 12%.
func TestThroughputMatchesTable2(t *testing.T) {
	cases := []struct {
		name      string
		spec      *model.Spec
		cfg       Config
		wantItems float64 // items/s from Table 2
		wantLatUS float64 // single-item latency, µs
	}{
		{"small-fp16", model.SmallProduction(), SmallFP16(), 3.05e5, 16.3},
		{"small-fp32", model.SmallProduction(), SmallFP32(), 1.81e5, 22.6},
		{"large-fp16", model.LargeProduction(), LargeFP16(), 1.95e5, 22.6},
		{"large-fp32", model.LargeProduction(), LargeFP32(), 1.22e5, 31.0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, err := New(c.spec, c.cfg, Options{EnableCartesian: true})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := m.Timing(10000)
			if err != nil {
				t.Fatal(err)
			}
			items := rep.SteadyThroughputItemsPerSec()
			if !approxEqual(items, c.wantItems, 0.12) {
				t.Errorf("throughput %.3g items/s, paper %.3g (>12%% off)", items, c.wantItems)
			}
			latUS := rep.LatencyNS / 1e3
			if !approxEqual(latUS, c.wantLatUS, 0.12) {
				t.Errorf("latency %.1f µs, paper %.1f (>12%% off)", latUS, c.wantLatUS)
			}
		})
	}
}

func TestBuildPipelineErrors(t *testing.T) {
	cfg := SmallFP16()
	spec := model.SmallProduction()
	bad := *spec
	bad.Hidden = []int{10, 20} // 2 layers vs 3 PE groups
	if _, err := cfg.BuildPipeline(&bad, 400); err == nil {
		t.Error("layer count mismatch: want error")
	}
	badCfg := cfg
	badCfg.ClockMHz = -1
	if _, err := badCfg.BuildPipeline(spec, 400); err == nil {
		t.Error("invalid config: want error")
	}
}

func TestResourcesMatchTable6(t *testing.T) {
	cases := []struct {
		name string
		spec *model.Spec
		cfg  Config
		want Resources
	}{
		{"small-fp16", model.SmallProduction(), SmallFP16(),
			Resources{BRAM18K: 1566, DSP48E: 4625, FlipFlop: 683641, LUT: 485323, URAM: 642, ClockMHz: 120}},
		{"small-fp32", model.SmallProduction(), SmallFP32(),
			Resources{BRAM18K: 1657, DSP48E: 5193, FlipFlop: 764067, LUT: 568864, URAM: 770, ClockMHz: 140}},
		{"large-fp16", model.LargeProduction(), LargeFP16(),
			Resources{BRAM18K: 1566, DSP48E: 4625, FlipFlop: 691042, LUT: 514517, URAM: 642, ClockMHz: 120}},
		{"large-fp32", model.LargeProduction(), LargeFP32(),
			Resources{BRAM18K: 1721, DSP48E: 5193, FlipFlop: 777527, LUT: 584220, URAM: 770, ClockMHz: 135}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := c.cfg.EstimateResources(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			check := func(label string, g, w int, tol float64) {
				if !approxEqual(float64(g), float64(w), tol) {
					t.Errorf("%s: modeled %d, paper %d (>%.0f%% off)", label, g, w, tol*100)
				}
			}
			check("BRAM", got.BRAM18K, c.want.BRAM18K, 0.10)
			check("DSP", got.DSP48E, c.want.DSP48E, 0.10)
			check("FF", got.FlipFlop, c.want.FlipFlop, 0.10)
			check("LUT", got.LUT, c.want.LUT, 0.10)
			check("URAM", got.URAM, c.want.URAM, 0.10)
			if got.ClockMHz != c.want.ClockMHz {
				t.Errorf("clock %v, want %v", got.ClockMHz, c.want.ClockMHz)
			}
		})
	}
}

func TestUtilizationFractions(t *testing.T) {
	r := Resources{BRAM18K: 1008, DSP48E: 4512, FlipFlop: 1303680, LUT: 651840, URAM: 480}
	u := r.Utilization()
	if u["BRAM18K"] != 0.5 || u["DSP48E"] != 0.5 || u["FF"] != 0.5 || u["LUT"] != 0.5 || u["URAM"] != 0.5 {
		t.Errorf("utilization = %v, want all 0.5", u)
	}
}

func TestAXIWidthTradeoff(t *testing.T) {
	base := SmallFP16()
	b32, c32, err := AXIWidthTradeoff(32, base)
	if err != nil {
		t.Fatal(err)
	}
	b512, c512, err := AXIWidthTradeoff(512, base)
	if err != nil {
		t.Fatal(err)
	}
	if b512 != 16*b32 {
		t.Errorf("512-bit FIFO BRAM = %d, want 16x the 32-bit %d", b512, b32)
	}
	// Appendix: at 512-bit the FIFOs consume over half of the U280's BRAM.
	if b512 <= U280BRAM18K/2 {
		t.Errorf("512-bit FIFO BRAM %d should exceed half of %d", b512, U280BRAM18K)
	}
	if c512 >= c32 {
		t.Errorf("512-bit clock %v should be below 32-bit %v", c512, c32)
	}
	if _, _, err := AXIWidthTradeoff(48, base); err == nil {
		t.Error("bad width: want error")
	}
}

func BenchmarkTimingModelSmall(b *testing.B) {
	spec := model.SmallProduction()
	m, err := New(spec, SmallFP16(), Options{EnableCartesian: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Timing(2048); err != nil {
			b.Fatal(err)
		}
	}
}

// approxEqual reports whether a and b agree within relative tolerance relTol.
func approxEqual(a, b, relTol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b)/math.Max(math.Abs(a), math.Abs(b)) <= relTol
}

// presets pairs each Table 6 build with the production model it targets.
var presets = []struct {
	name string
	spec func() *model.Spec
	cfg  Config
}{
	{"small-fp16", model.SmallProduction, SmallFP16()},
	{"small-fp32", model.SmallProduction, SmallFP32()},
	{"large-fp16", model.LargeProduction, LargeFP16()},
	{"large-fp32", model.LargeProduction, LargeFP32()},
}

// TestBuildPipelineFigure6Stages pins the stage chain of Figure 6 for every
// preset: the lookup stage at the given latency, broadcast / GEMM / gather
// per hidden layer, then the output layer and the sigmoid; host streaming,
// when modelled, comes first.
func TestBuildPipelineFigure6Stages(t *testing.T) {
	for _, pr := range presets {
		t.Run(pr.name, func(t *testing.T) {
			spec := pr.spec()
			want := []string{"lookup"}
			for l := range spec.Hidden {
				for _, part := range []string{"broadcast", "gemm", "gather"} {
					want = append(want, fmt.Sprintf("fc%d-%s", l+1, part))
				}
			}
			want = append(want, "output", "sigmoid")
			for _, hostGBps := range []float64{0, 12} {
				cfg := pr.cfg
				cfg.HostStreamGBps = hostGBps
				p, err := cfg.BuildPipeline(spec, 400)
				if err != nil {
					t.Fatal(err)
				}
				names := want
				if hostGBps > 0 {
					names = append([]string{"host-stream"}, want...)
				}
				if len(p.stages) != len(names) {
					t.Fatalf("host %v GB/s: %d stages, want %d", hostGBps, len(p.stages), len(names))
				}
				for i, st := range p.stages {
					if st.Name != names[i] {
						t.Errorf("host %v GB/s: stage %d is %q, want %q", hostGBps, i, st.Name, names[i])
					}
					if st.FIFODepth != cfg.FIFODepth {
						t.Errorf("stage %q FIFO depth %d, want the build's %d", st.Name, st.FIFODepth, cfg.FIFODepth)
					}
				}
				if lk := p.stages[len(names)-len(want)]; lk.LatencyNS != 400 || lk.IntervalNS != 400 {
					t.Errorf("lookup stage %+v, want latency and interval 400 ns", lk)
				}
			}
		})
	}
}

// TestTracePipelineMatchesTiming holds the traced run to the untraced one:
// writing the Chrome trace must not change a number of the report.
func TestTracePipelineMatchesTiming(t *testing.T) {
	for _, pr := range presets {
		t.Run(pr.name, func(t *testing.T) {
			m, err := New(pr.spec(), pr.cfg, Options{EnableCartesian: true})
			if err != nil {
				t.Fatal(err)
			}
			plain, err := m.Timing(64)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := m.TracePipeline(64, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if plain != traced {
				t.Errorf("TracePipeline report %+v differs from Timing %+v", traced, plain)
			}
			if plain.LookupNS != m.Plan.Report.LatencyNS {
				t.Errorf("timing prices lookups at %v ns, plan says %v", plain.LookupNS, m.Plan.Report.LatencyNS)
			}
		})
	}
}
