// Package quantize implements calibration-based per-layer fixed-point
// quantization — an accuracy extension beyond the paper's single global
// format per precision level (§5.3 evaluates fixed global 16/32-bit
// datapaths).
//
// Calibration runs the model's float reference (model.Parameters.Features
// and Forward) over sample traffic, records per-tensor dynamic ranges, and
// picks for every tensor the highest-resolution Q-format of the target width
// that still covers its range. The quantized forward pass then requantizes
// activations between layers; its error is measured against the same float
// reference.
package quantize

import (
	"fmt"
	"math"

	"microrec/internal/embedding"
	"microrec/internal/fixedpoint"
	"microrec/internal/model"
)

// Scheme holds per-tensor formats for one model.
type Scheme struct {
	// Width is the storage width (16 or 32).
	Width int
	// Input is the feature-vector format.
	Input fixedpoint.Format
	// Weights[l] is layer l's weight format.
	Weights []fixedpoint.Format
	// Activations[l] is the format of layer l's output.
	Activations []fixedpoint.Format
}

// Validate checks the scheme.
func (s Scheme) Validate() error {
	if s.Width != 16 && s.Width != 32 {
		return fmt.Errorf("quantize: width %d", s.Width)
	}
	if err := s.Input.Validate(); err != nil {
		return err
	}
	if len(s.Weights) == 0 || len(s.Weights) != len(s.Activations) {
		return fmt.Errorf("quantize: %d weight formats, %d activation formats", len(s.Weights), len(s.Activations))
	}
	for _, f := range append(append([]fixedpoint.Format{}, s.Weights...), s.Activations...) {
		if err := f.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Calibrate derives a scheme from sample queries: the float reference model
// (model.Parameters.Features and Forward) runs over the samples while
// per-tensor maxima are recorded.
func Calibrate(params *model.Parameters, queries []embedding.Query, width int) (Scheme, error) {
	if params == nil {
		return Scheme{}, fmt.Errorf("quantize: nil parameters")
	}
	if len(queries) == 0 {
		return Scheme{}, fmt.Errorf("quantize: no calibration queries")
	}
	dims := params.Spec.LayerDims()
	weights, _ := params.Layers()
	maxIn := 0.0
	maxAct := make([]float64, len(dims))
	record := func(l int, out []float32) { maxAct[l] = math.Max(maxAct[l], maxAbs32(out)) }
	for qi, q := range queries {
		feat, err := params.Features(q, nil)
		if err != nil {
			return Scheme{}, fmt.Errorf("quantize: query %d: %w", qi, err)
		}
		maxIn = math.Max(maxIn, maxAbs32(feat))
		if _, err := params.Forward(feat, record); err != nil {
			return Scheme{}, err
		}
	}
	s := Scheme{Width: width}
	// Headroom keeps unseen traffic from saturating immediately.
	const headroom = 2.0
	var err error
	if s.Input, err = fixedpoint.FormatFor(width, math.Max(maxIn, 1e-3)*headroom); err != nil {
		return Scheme{}, err
	}
	for l := range dims {
		wMax := maxAbs32(weights[l].Data)
		wf, err := fixedpoint.FormatFor(width, math.Max(wMax, 1e-3))
		if err != nil {
			return Scheme{}, err
		}
		s.Weights = append(s.Weights, wf)
		af, err := fixedpoint.FormatFor(width, math.Max(maxAct[l], 1e-3)*headroom)
		if err != nil {
			return Scheme{}, err
		}
		s.Activations = append(s.Activations, af)
	}
	return s, nil
}

func maxAbs32(xs []float32) float64 {
	m := 0.0
	for _, v := range xs {
		a := math.Abs(float64(v))
		if a > m {
			m = a
		}
	}
	return m
}

// Model is a quantized model instance ready for inference.
type Model struct {
	scheme  Scheme
	params  *model.Parameters
	dims    [][2]int
	weights [][]int64 // per layer, raw in scheme.Weights[l]
	biases  [][]int64 // per layer, raw in scheme.Activations[l]
}

// New quantizes the parameters under the scheme.
func New(params *model.Parameters, s Scheme) (*Model, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if params == nil {
		return nil, fmt.Errorf("quantize: nil parameters")
	}
	dims := params.Spec.LayerDims()
	if len(dims) != len(s.Weights) {
		return nil, fmt.Errorf("quantize: scheme covers %d layers, model has %d", len(s.Weights), len(dims))
	}
	m := &Model{scheme: s, params: params, dims: dims}
	weights, biases := params.Layers()
	for l := range dims {
		wf := s.Weights[l]
		w := weights[l]
		raw := make([]int64, len(w.Data))
		for i, v := range w.Data {
			raw[i] = wf.Quantize(float64(v))
		}
		m.weights = append(m.weights, raw)
		af := s.Activations[l]
		braw := make([]int64, len(biases[l]))
		for i, v := range biases[l] {
			braw[i] = af.Quantize(float64(v))
		}
		m.biases = append(m.biases, braw)
	}
	return m, nil
}

// Scheme returns the model's formats.
func (m *Model) Scheme() Scheme { return m.scheme }

// Infer runs one query through the per-layer-quantized datapath, from the
// float features of model.Parameters.Features.
func (m *Model) Infer(q embedding.Query) (float32, error) {
	feat, err := m.params.Features(q, nil)
	if err != nil {
		return 0, err
	}
	inf := m.scheme.Input
	x := make([]int64, len(feat))
	for i, v := range feat {
		x[i] = inf.Quantize(float64(v))
	}
	xf := inf
	for l, d := range m.dims {
		in, out := d[0], d[1]
		if len(x) != in {
			return 0, fmt.Errorf("quantize: layer %d input %d, want %d", l, len(x), in)
		}
		wf := m.scheme.Weights[l]
		af := m.scheme.Activations[l]
		w := m.weights[l]
		y := make([]int64, out)
		// The product x*w carries xf.Frac + wf.Frac fractional bits;
		// rescale the exact accumulator into the activation format.
		shift := xf.Frac + wf.Frac - af.Frac
		for j := 0; j < out; j++ {
			var acc int64
			for i := 0; i < in; i++ {
				acc += x[i] * w[i*out+j]
			}
			y[j] = af.Add(rescale(acc, shift), m.biases[l][j])
		}
		if l < len(m.dims)-1 {
			fixedpoint.ReLU(y)
		}
		x = y
		xf = af
	}
	// Sigmoid on the final logit.
	out := xf.Sigmoid(x[0])
	return float32(xf.Dequantize(out)), nil
}

// rescale shifts an exact accumulator right (rounding) or left by the given
// amount of fractional bits.
func rescale(acc int64, shift int) int64 {
	switch {
	case shift > 0:
		half := int64(1) << uint(shift-1)
		if acc >= 0 {
			return (acc + half) >> uint(shift)
		}
		return -((-acc + half) >> uint(shift))
	case shift < 0:
		return acc << uint(-shift)
	default:
		return acc
	}
}
