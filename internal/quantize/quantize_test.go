package quantize

import (
	"fmt"
	"math"
	"testing"

	"microrec/internal/embedding"
	"microrec/internal/fixedpoint"
	"microrec/internal/model"
	"microrec/internal/workload"
)

func setup(t testing.TB) (*model.Parameters, []embedding.Query, []embedding.Query) {
	t.Helper()
	spec := model.SmallProduction()
	params, err := spec.Materialize(model.MaterializeOptions{Seed: 4, MaxRowsPerTable: 128})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(spec, workload.Uniform, 17)
	if err != nil {
		t.Fatal(err)
	}
	calib, err := gen.Batch(20)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := gen.Batch(20)
	if err != nil {
		t.Fatal(err)
	}
	return params, calib, eval
}

// reference is the model's float prediction for q.
func reference(t *testing.T, params *model.Parameters, q embedding.Query) float32 {
	t.Helper()
	feat, err := params.Features(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := params.Forward(feat, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

func TestCalibrateProducesValidScheme(t *testing.T) {
	params, calib, _ := setup(t)
	s, err := Calibrate(params, calib, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Weights) != 4 || len(s.Activations) != 4 {
		t.Errorf("scheme covers %d/%d layers, want 4", len(s.Weights), len(s.Activations))
	}
	// Weights are Xavier-bounded (< 1), so their format should use nearly
	// all fractional bits.
	if s.Weights[0].Frac < 12 {
		t.Errorf("weight format %v wastes integer bits on sub-1.0 weights", s.Weights[0])
	}
}

func TestCalibrateErrors(t *testing.T) {
	params, calib, _ := setup(t)
	if _, err := Calibrate(nil, calib, 16); err == nil {
		t.Error("nil params: want error")
	}
	if _, err := Calibrate(params, nil, 16); err == nil {
		t.Error("no queries: want error")
	}
	if _, err := Calibrate(params, calib, 8); err == nil {
		t.Error("bad width: want error")
	}
}

// TestCalibrateCoversObservedRanges checks the formats Calibrate picks
// against the ranges the float reference reaches on the calibration queries
// (its per-layer outputs read through Forward's callback): at both widths,
// every activation format and the input format cover twice the observed
// maximum, and each is the finest that does — one integer bit fewer would
// not.
func TestCalibrateCoversObservedRanges(t *testing.T) {
	params, calib, _ := setup(t)
	maxIn := 0.0
	maxAct := make([]float64, len(params.Spec.LayerDims()))
	for _, q := range calib {
		feat, err := params.Features(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		maxIn = math.Max(maxIn, maxAbs32(feat))
		if _, err := params.Forward(feat, func(l int, out []float32) {
			maxAct[l] = math.Max(maxAct[l], maxAbs32(out))
		}); err != nil {
			t.Fatal(err)
		}
	}
	check := func(what string, f fixedpoint.Format, observed float64) {
		t.Helper()
		want := 2 * observed
		span := math.Ldexp(1, f.Bits-1-f.Frac)
		if span <= want {
			t.Errorf("%s: %v spans ±%v, below twice the observed %v", what, f, span, observed)
		}
		if f.Frac < f.Bits-2 && span/2 > want {
			t.Errorf("%s: %v spans ±%v, more than needed for twice the observed %v", what, f, span, observed)
		}
	}
	for _, width := range []int{16, 32} {
		s, err := Calibrate(params, calib, width)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("%d-bit input", width), s.Input, maxIn)
		for l, a := range s.Activations {
			check(fmt.Sprintf("%d-bit layer %d", width, l), a, maxAct[l])
		}
	}
}

// TestInferQueryErrors checks that the quantized datapath rejects a query
// the float features reject, rather than reading past a table.
func TestInferQueryErrors(t *testing.T) {
	params, calib, eval := setup(t)
	s, err := Calibrate(params, calib, 16)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(params, s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Infer(eval[0][:1]); err == nil {
		t.Error("short query: want error")
	}
	q := embedding.NewQuery(params.Spec)
	q[0][0] = params.Spec.Tables[0].Rows
	if _, err := m.Infer(q); err == nil {
		t.Error("out-of-range index: want error")
	}
}

func TestQuantizedInferTracksReference(t *testing.T) {
	params, calib, eval := setup(t)
	s, err := Calibrate(params, calib, 16)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(params, s)
	if err != nil {
		t.Fatal(err)
	}
	var maxErr float64
	for _, q := range eval {
		got, err := m.Infer(q)
		if err != nil {
			t.Fatal(err)
		}
		ref := reference(t, params, q)
		if got < 0 || got > 1 {
			t.Errorf("prediction %v outside [0,1]", got)
		}
		maxErr = math.Max(maxErr, math.Abs(float64(got-ref)))
	}
	if maxErr > 0.02 {
		t.Errorf("calibrated 16-bit max error %.5f > 0.02", maxErr)
	}
}

func TestCalibratedBeatsGlobalFormat(t *testing.T) {
	// The point of the extension: per-layer calibrated formats should not
	// be worse than the single global Q6.10 the engine defaults to.
	params, calib, eval := setup(t)
	s, err := Calibrate(params, calib, 16)
	if err != nil {
		t.Fatal(err)
	}
	calibrated, err := New(params, s)
	if err != nil {
		t.Fatal(err)
	}
	global := Scheme{
		Width: 16,
		Input: fixedpoint.Fixed16,
		Weights: []fixedpoint.Format{
			fixedpoint.Fixed16, fixedpoint.Fixed16, fixedpoint.Fixed16, fixedpoint.Fixed16,
		},
		Activations: []fixedpoint.Format{
			fixedpoint.Fixed16, fixedpoint.Fixed16, fixedpoint.Fixed16, fixedpoint.Fixed16,
		},
	}
	plain, err := New(params, global)
	if err != nil {
		t.Fatal(err)
	}
	var errCal, errGlob float64
	for _, q := range eval {
		ref := reference(t, params, q)
		c, err := calibrated.Infer(q)
		if err != nil {
			t.Fatal(err)
		}
		g, err := plain.Infer(q)
		if err != nil {
			t.Fatal(err)
		}
		errCal += math.Abs(float64(c - ref))
		errGlob += math.Abs(float64(g - ref))
	}
	if errCal > errGlob*1.05 {
		t.Errorf("calibrated error %.6f worse than global %.6f", errCal, errGlob)
	}
}

func TestNewErrors(t *testing.T) {
	params, calib, _ := setup(t)
	s, err := Calibrate(params, calib, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(nil, s); err == nil {
		t.Error("nil params: want error")
	}
	bad := s
	bad.Weights = bad.Weights[:2]
	if _, err := New(params, bad); err == nil {
		t.Error("short scheme: want error")
	}
	invalid := s
	invalid.Width = 12
	if _, err := New(params, invalid); err == nil {
		t.Error("invalid width: want error")
	}
}

func TestRescale(t *testing.T) {
	if got := rescale(1000, 2); got != 250 {
		t.Errorf("rescale(1000,2) = %d", got)
	}
	if got := rescale(-1000, 2); got != -250 {
		t.Errorf("rescale(-1000,2) = %d", got)
	}
	if got := rescale(5, -3); got != 40 {
		t.Errorf("rescale(5,-3) = %d", got)
	}
	if got := rescale(7, 0); got != 7 {
		t.Errorf("rescale(7,0) = %d", got)
	}
	// Rounding: 6>>2 with half=2 -> (6+2)>>2 = 2.
	if got := rescale(6, 2); got != 2 {
		t.Errorf("rescale(6,2) = %d", got)
	}
}

func BenchmarkQuantizedInfer(b *testing.B) {
	params, calib, eval := setup(b)
	s, err := Calibrate(params, calib, 16)
	if err != nil {
		b.Fatal(err)
	}
	m, err := New(params, s)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Infer(eval[i%len(eval)]); err != nil {
			b.Fatal(err)
		}
	}
}
