package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"microrec/internal/embedding"
	"microrec/internal/fixedpoint"
	"microrec/internal/memsim"
	"microrec/internal/model"
	"microrec/internal/placement"
	"microrec/internal/tensor"
)

func buildEngine(t testing.TB, spec *model.Spec, cfg Config, cart bool) *Engine {
	t.Helper()
	params, err := spec.Materialize(model.MaterializeOptions{Seed: 1, MaxRowsPerTable: 256})
	if err != nil {
		t.Fatal(err)
	}
	sys := memsim.U280(cfg.OnChipBanks)
	plan, err := placement.Plan(spec, sys, placement.Options{EnableCartesian: cart})
	if err != nil {
		t.Fatal(err)
	}
	e, err := Build(params, plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func randomQueries(spec *model.Spec, n int, seed int64) []embedding.Query {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]embedding.Query, n)
	for i := range qs {
		q := make(embedding.Query, len(spec.Tables))
		for ti, tab := range spec.Tables {
			idxs := make([]int64, tab.Lookups)
			for k := range idxs {
				idxs[k] = rng.Int63n(tab.Rows)
			}
			q[ti] = idxs
		}
		qs[i] = q
	}
	return qs
}

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
			sys := memsim.U280(c.cfg.OnChipBanks)
			plan, err := placement.Plan(c.spec, sys, placement.Options{EnableCartesian: true})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := c.cfg.Simulate(c.spec, plan.Report.LatencyNS, 10000)
			if err != nil {
				t.Fatal(err)
			}
			items := rep.SteadyThroughputItemsPerSec()
			if !memsim.ApproxEqual(items, c.wantItems, 0.12) {
				t.Errorf("throughput %.3g items/s, paper %.3g (>12%% off)", items, c.wantItems)
			}
			latUS := rep.LatencyNS / 1e3
			if !memsim.ApproxEqual(latUS, c.wantLatUS, 0.12) {
				t.Errorf("latency %.1f µs, paper %.1f (>12%% off)", latUS, c.wantLatUS)
			}
		})
	}
}

func TestBuildPipelineErrors(t *testing.T) {
	cfg := SmallFP16()
	spec := model.SmallProduction()
	bad := spec.Clone()
	bad.Hidden = []int{10, 20} // 2 layers vs 3 PE groups
	if _, err := cfg.BuildPipeline(bad, 400); err == nil {
		t.Error("layer count mismatch: want error")
	}
	badCfg := cfg
	badCfg.ClockMHz = -1
	if _, err := badCfg.BuildPipeline(spec, 400); err == nil {
		t.Error("invalid config: want error")
	}
}

// TestEngineGatherMatchesStore pins the engine's gather to the plain
// spec-order store gather on both production models at both widths: the float
// reference equals the store's feature vector whether or not the plan merges
// tables, and the quantized planes of a merged and an unmerged plan are
// bit-identical, so the engine cannot tell a Cartesian plan from an unmerged
// one.
func TestEngineGatherMatchesStore(t *testing.T) {
	for _, spec := range []*model.Spec{model.SmallProduction(), model.LargeProduction()} {
		params, err := spec.Materialize(model.MaterializeOptions{Seed: 1, MaxRowsPerTable: 256})
		if err != nil {
			t.Fatal(err)
		}
		store, err := embedding.NewStore(params)
		if err != nil {
			t.Fatal(err)
		}
		qs := randomQueries(spec, 5, 7)
		for _, f := range []fixedpoint.Format{fixedpoint.Fixed16, fixedpoint.Fixed32} {
			t.Run(fmt.Sprintf("%s/%dbit", spec.Name, f.Bits), func(t *testing.T) {
				cfg := ConfigFor(spec.Name, f)
				merged := buildEngine(t, spec, cfg, true)
				plain := buildEngine(t, spec, cfg, false)
				if merged.plan.Layout.NumMerged() == 0 {
					t.Fatal("the plan merges no tables; test is vacuous")
				}
				for _, e := range []*Engine{merged, plain} {
					for _, q := range qs {
						got, err := e.Gather(q, nil)
						if err != nil {
							t.Fatal(err)
						}
						want, err := store.Gather(q, nil)
						if err != nil {
							t.Fatal(err)
						}
						if len(got) != len(want) {
							t.Fatalf("gather length %d vs %d", len(got), len(want))
						}
						for i := range got {
							if got[i] != want[i] {
								t.Fatalf("gather[%d] = %v, want %v", i, got[i], want[i])
							}
						}
					}
				}
				a, err := merged.GatherBatch(qs, nil)
				if err != nil {
					t.Fatal(err)
				}
				b, err := plain.GatherBatch(qs, nil)
				if err != nil {
					t.Fatal(err)
				}
				for qi := range qs {
					for k := 0; k < merged.featureLen; k++ {
						if a.At(qi, k) != b.At(qi, k) {
							t.Fatalf("query %d feature %d: merged plan %d, unmerged %d", qi, k, a.At(qi, k), b.At(qi, k))
						}
					}
				}
			})
		}
	}
}

func TestInferOneInRange(t *testing.T) {
	spec := model.SmallProduction()
	e := buildEngine(t, spec, SmallFP16(), true)
	for _, q := range randomQueries(spec, 10, 3) {
		p, err := e.InferOne(q)
		if err != nil {
			t.Fatal(err)
		}
		if p < 0 || p > 1 {
			t.Errorf("CTR prediction %v outside [0,1]", p)
		}
	}
}

// transposedReference is ReferenceOne's former form: every layer through
// MatVec over a freshly transposed weight matrix.
func transposedReference(t *testing.T, e *Engine, q embedding.Query) float32 {
	x, err := e.Gather(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	weights, biases := e.params.Layers()
	for l := range e.dims {
		y, err := tensor.MatVec(weights[l].Transpose(), x, nil)
		if err != nil {
			t.Fatal(err)
		}
		for j := range y {
			y[j] += biases[l][j]
		}
		if l < len(e.dims)-1 {
			tensor.ReLU(y)
		}
		x = y
	}
	out := []float32{x[0]}
	tensor.Sigmoid(out)
	return out[0]
}

// TestReferenceOneMatchesTransposedForm pins the transpose-free float
// reference bit for bit to the MatVec(Wᵀ, x) form on both production models.
func TestReferenceOneMatchesTransposedForm(t *testing.T) {
	for _, spec := range []*model.Spec{model.SmallProduction(), model.LargeProduction()} {
		e := buildEngine(t, spec, SmallFP16(), true)
		for i, q := range randomQueries(spec, 16, 5) {
			got, err := e.ReferenceOne(q)
			if err != nil {
				t.Fatal(err)
			}
			if want := transposedReference(t, e, q); math.Float32bits(got) != math.Float32bits(want) {
				t.Errorf("%s query %d: ReferenceOne %v, transposed form %v", spec.Name, i, got, want)
			}
		}
		e.Close()
	}
}

func TestQuantizationErrorSmall(t *testing.T) {
	// Fixed-point predictions must track the float reference; 16-bit
	// should be within a few percent absolute CTR, 32-bit much tighter.
	spec := model.SmallProduction()
	e16 := buildEngine(t, spec, SmallFP16(), true)
	e32 := buildEngine(t, spec, SmallFP32(), true)
	var max16, max32 float64
	for _, q := range randomQueries(spec, 20, 11) {
		ref, err := e16.ReferenceOne(q)
		if err != nil {
			t.Fatal(err)
		}
		p16, err := e16.InferOne(q)
		if err != nil {
			t.Fatal(err)
		}
		p32, err := e32.InferOne(q)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(float64(p16 - ref)); d > max16 {
			max16 = d
		}
		if d := math.Abs(float64(p32 - ref)); d > max32 {
			max32 = d
		}
	}
	if max16 > 0.05 {
		t.Errorf("fp16 max CTR error %.4f > 0.05", max16)
	}
	if max32 > 0.002 {
		t.Errorf("fp32 max CTR error %.5f > 0.002", max32)
	}
	if max32 > max16+1e-9 {
		t.Errorf("fp32 error %.5f exceeds fp16 error %.5f", max32, max16)
	}
}

func TestInferBatch(t *testing.T) {
	spec := model.SmallProduction()
	e := buildEngine(t, spec, SmallFP16(), true)
	qs := randomQueries(spec, 32, 5)
	res, err := e.Infer(qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Predictions) != 32 {
		t.Fatalf("predictions = %d", len(res.Predictions))
	}
	if res.Timing.Items != 32 {
		t.Errorf("timing items = %d", res.Timing.Items)
	}
	if res.Timing.ThroughputItemsPerSec <= 0 || res.Timing.LatencyNS <= 0 {
		t.Errorf("degenerate timing: %+v", res.Timing)
	}
	if _, err := e.Infer(nil); err == nil {
		t.Error("empty batch: want error")
	}
}

func TestInferDeterministic(t *testing.T) {
	spec := model.SmallProduction()
	e := buildEngine(t, spec, SmallFP16(), true)
	qs := randomQueries(spec, 4, 9)
	a, err := e.Infer(qs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Infer(qs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Predictions {
		if a.Predictions[i] != b.Predictions[i] {
			t.Fatal("inference is not deterministic")
		}
	}
}

func TestBuildErrors(t *testing.T) {
	spec := model.SmallProduction()
	params, err := spec.Materialize(model.MaterializeOptions{Seed: 1, MaxRowsPerTable: 16})
	if err != nil {
		t.Fatal(err)
	}
	sys := memsim.U280(8)
	plan, err := placement.Plan(spec, sys, placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(nil, plan, SmallFP16()); err == nil {
		t.Error("nil params: want error")
	}
	if _, err := Build(params, nil, SmallFP16()); err == nil {
		t.Error("nil plan: want error")
	}
	other := model.LargeProduction()
	otherPlan, err := placement.Plan(other, memsim.U280(16), placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(params, otherPlan, SmallFP16()); err == nil {
		t.Error("mismatched plan/params: want error")
	}
	bad := SmallFP16()
	bad.LanesPerPE = -1
	if _, err := Build(params, plan, bad); err == nil {
		t.Error("invalid config: want error")
	}
}

func TestGatherQueryErrors(t *testing.T) {
	spec := model.SmallProduction()
	e := buildEngine(t, spec, SmallFP16(), true)
	if _, err := e.Gather(embedding.Query{{0}}, nil); err == nil {
		t.Error("short query: want error")
	}
	q := randomQueries(spec, 1, 1)[0]
	q[0] = nil
	if _, err := e.Gather(q, nil); err == nil {
		t.Error("missing lookups: want error")
	}
	q = randomQueries(spec, 1, 1)[0]
	q[0] = []int64{spec.Tables[0].Rows + 5}
	if _, err := e.Gather(q, nil); err == nil {
		t.Error("out-of-range index: want error")
	}
	q = randomQueries(spec, 1, 1)[0]
	if _, err := e.Gather(q, make([]float32, 3)); err == nil {
		t.Error("short dst: want error")
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
				if !memsim.ApproxEqual(float64(g), float64(w), tol) {
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

func BenchmarkInferOneSmallFP16(b *testing.B) {
	spec := model.SmallProduction()
	e := buildEngine(b, spec, SmallFP16(), true)
	q := randomQueries(spec, 1, 1)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.InferOne(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTimingModelSmall(b *testing.B) {
	spec := model.SmallProduction()
	e := buildEngine(b, spec, SmallFP16(), true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Timing(2048); err != nil {
			b.Fatal(err)
		}
	}
}
