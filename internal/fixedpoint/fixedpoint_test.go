package fixedpoint

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFormatValidate(t *testing.T) {
	cases := []struct {
		f       Format
		wantErr bool
	}{
		{Fixed16, false},
		{Fixed32, false},
		{Format{Bits: 16, Frac: 1}, false},
		{Format{Bits: 16, Frac: 15}, true},
		{Format{Bits: 16, Frac: 0}, true},
		{Format{Bits: 8, Frac: 4}, true},
		{Format{Bits: 64, Frac: 30}, true},
		{Format{Bits: 32, Frac: 32}, true},
	}
	for _, c := range cases {
		err := c.f.Validate()
		if (err != nil) != c.wantErr {
			t.Errorf("Validate(%+v) error = %v, wantErr %v", c.f, err, c.wantErr)
		}
	}
}

func TestFormatRanges(t *testing.T) {
	// Embedding values (|x| < 8) must be representable in both formats.
	for _, f := range []Format{Fixed16, Fixed32} {
		if f.MaxValue() < 8 {
			t.Errorf("%v max %v too small for embeddings", f, f.MaxValue())
		}
		if f.MinValue() > -8 {
			t.Errorf("%v min %v too large for embeddings", f, f.MinValue())
		}
	}
	// Post-activation sums (|x| < 256) must fit the 32-bit accumulated format.
	if Fixed32.MaxValue() < 256 {
		t.Errorf("Fixed32 max %v too small for activations", Fixed32.MaxValue())
	}
}

func TestFormatString(t *testing.T) {
	if got := Fixed16.String(); got != "Q5.10" {
		t.Errorf("Fixed16.String() = %q, want Q5.10", got)
	}
	if got := Fixed32.String(); got != "Q13.18" {
		t.Errorf("Fixed32.String() = %q, want Q13.18", got)
	}
}

func TestQuantizeRoundTrip(t *testing.T) {
	for _, f := range []Format{Fixed16, Fixed32} {
		for _, x := range []float64{0, 1, -1, 0.5, -0.5, 3.14159, -2.71828, 7.999} {
			got := f.RoundTrip(x)
			if math.Abs(got-x) > f.Resolution() {
				t.Errorf("%v RoundTrip(%v) = %v, err %v > resolution %v",
					f, x, got, math.Abs(got-x), f.Resolution())
			}
		}
	}
}

func TestQuantizeSaturates(t *testing.T) {
	for _, f := range []Format{Fixed16, Fixed32} {
		if got := f.Quantize(1e12); got != f.maxRaw() {
			t.Errorf("%v Quantize(+inf-ish) = %d, want max %d", f, got, f.maxRaw())
		}
		if got := f.Quantize(-1e12); got != f.minRaw() {
			t.Errorf("%v Quantize(-inf-ish) = %d, want min %d", f, got, f.minRaw())
		}
		if got := f.Quantize(math.NaN()); got != 0 {
			t.Errorf("%v Quantize(NaN) = %d, want 0", f, got)
		}
	}
}

func TestAddSubSaturate(t *testing.T) {
	f := Fixed16
	max, min := f.maxRaw(), f.minRaw()
	if got := f.Add(max, 1); got != max {
		t.Errorf("Add(max,1) = %d, want saturation at %d", got, max)
	}
	if got := f.Sub(min, 1); got != min {
		t.Errorf("Sub(min,1) = %d, want saturation at %d", got, min)
	}
	if got := f.Add(100, 200); got != 300 {
		t.Errorf("Add(100,200) = %d, want 300", got)
	}
}

func TestMulMatchesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, f := range []Format{Fixed16, Fixed32} {
		for i := 0; i < 200; i++ {
			x := rng.Float64()*8 - 4
			y := rng.Float64()*8 - 4
			a, b := f.Quantize(x), f.Quantize(y)
			got := f.Dequantize(f.Mul(a, b))
			want := f.RoundTrip(x) * f.RoundTrip(y)
			// One multiplication introduces at most one LSB of rounding
			// error on top of input representation error.
			if math.Abs(got-want) > f.Resolution() {
				t.Fatalf("%v Mul(%v,%v) = %v, want approx %v", f, x, y, got, want)
			}
		}
	}
}

func TestRoundShiftSymmetry(t *testing.T) {
	// roundShift must round half away from zero symmetrically.
	cases := []struct {
		v    int64
		s    uint
		want int64
	}{
		{3, 1, 2}, {-3, 1, -2}, // 1.5 -> 2
		{1, 1, 1}, {-1, 1, -1}, // 0.5 -> 1
		{5, 2, 1}, {-5, 2, -1}, // 1.25 -> 1
		{6, 2, 2}, {-6, 2, -2}, // 1.5 -> 2
		{7, 0, 7},
	}
	for _, c := range cases {
		if got := roundShift(c.v, c.s); got != c.want {
			t.Errorf("roundShift(%d,%d) = %d, want %d", c.v, c.s, got, c.want)
		}
	}
}

func TestReLU(t *testing.T) {
	raw := []int64{-5, 0, 5, -1, 100}
	ReLU(raw)
	want := []int64{0, 0, 5, 0, 100}
	for i := range raw {
		if raw[i] != want[i] {
			t.Errorf("ReLU[%d] = %d, want %d", i, raw[i], want[i])
		}
	}
}

func TestSigmoid(t *testing.T) {
	f := Fixed32
	if got := f.Dequantize(f.Sigmoid(f.Quantize(0))); math.Abs(got-0.5) > f.Resolution() {
		t.Errorf("Sigmoid(0) = %v, want 0.5", got)
	}
	big := f.Dequantize(f.Sigmoid(f.Quantize(10)))
	if big < 0.999 {
		t.Errorf("Sigmoid(10) = %v, want near 1", big)
	}
	small := f.Dequantize(f.Sigmoid(f.Quantize(-10)))
	if small > 0.001 {
		t.Errorf("Sigmoid(-10) = %v, want near 0", small)
	}
}

func TestQuantizeErrorBoundProperty(t *testing.T) {
	for _, f := range []Format{Fixed16, Fixed32} {
		f := f
		prop := func(frac float64) bool {
			// Map arbitrary float into the representable range.
			x := math.Mod(math.Abs(frac), f.MaxValue()-1)
			if math.IsNaN(x) {
				return true
			}
			return f.AbsError(x) <= f.Resolution()/2+1e-12
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("%v: %v", f, err)
		}
	}
}

// Property: Add is commutative and Mul is commutative under saturation.
func TestCommutativityProperty(t *testing.T) {
	f := Fixed16
	prop := func(a, b int16) bool {
		x, y := int64(a), int64(b)
		return f.Add(x, y) == f.Add(y, x) && f.Mul(x, y) == f.Mul(y, x)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Property: saturation never produces values outside the raw range.
func TestSaturationRangeProperty(t *testing.T) {
	f := Fixed16
	prop := func(a, b int16) bool {
		for _, v := range []int64{f.Add(int64(a), int64(b)), f.Mul(int64(a), int64(b))} {
			if v > f.maxRaw() || v < f.minRaw() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// finishRowCase checks FinishRow at storage width T against the composed
// scalar calls it replaces — f.Add(f.Finish(acc), bias), then ReLU — for every
// accumulator x bias pair, with and without ReLU.
func finishRowCase[T Raw](t *testing.T, f Format, accs, biases []int64) {
	t.Helper()
	ep := f.Epilogue()
	acc := make([]int64, 0, len(accs)*len(biases))
	bias := make([]int64, 0, cap(acc))
	for _, a := range accs {
		for _, b := range biases {
			acc = append(acc, a)
			bias = append(bias, b)
		}
	}
	for _, relu := range []bool{false, true} {
		dst := make([]T, len(acc)+1)
		dst[len(acc)] = 99 // one past the row: must not be written
		FinishRow(&ep, acc, bias, relu, dst)
		for j := range acc {
			want := f.Add(f.Finish(acc[j]), bias[j])
			if relu && want < 0 {
				want = 0
			}
			if int64(dst[j]) != want {
				t.Fatalf("%v relu=%v: acc %d bias %d -> %d, composed calls give %d",
					f, relu, acc[j], bias[j], dst[j], want)
			}
		}
		if dst[len(acc)] != 99 {
			t.Fatalf("%v: FinishRow wrote past len(acc)", f)
		}
	}
}

// TestFinishRowMatchesComposedCalls is the table test of the row epilogue:
// both saturation edges (of the Finish and of the bias Add, separately),
// rounding ties half an LSB either side of zero and of each edge, and
// negative accumulators, for both datapath formats at their storage widths.
func TestFinishRowMatchesComposedCalls(t *testing.T) {
	for _, f := range []Format{Fixed16, Fixed32, {Bits: 16, Frac: 1}, {Bits: 32, Frac: 30}} {
		one := int64(1) << uint(f.Frac) // one raw LSB, in accumulator units
		half := one / 2
		hi, lo := f.maxRaw(), f.minRaw()
		accs := []int64{
			0, 1, -1,
			half - 1, half, half + 1, // the tie rounds away from zero
			-half + 1, -half, -half - 1,
			one + half, -one - half, 3*one + half - 1, -3*one - half + 1,
			hi * one, hi*one + half - 1, hi*one + half, (hi + 1) * one, // top edge
			lo * one, lo*one - half + 1, lo*one - half, (lo - 1) * one, // bottom edge
			hi * one * 1000, lo * one * 1000, // far past either edge
			math.MaxInt64 - half, math.MinInt64 + half + 1, // widest accumulators Finish accepts
		}
		biases := []int64{0, 1, -1, 37, -37, hi, lo, hi - 1, lo + 1}
		if f.Bits == 16 {
			finishRowCase[int16](t, f, accs, biases)
		} else {
			finishRowCase[int32](t, f, accs, biases)
		}
	}
	// Random accumulators around the representable range.
	rng := rand.New(rand.NewSource(11))
	for _, f := range []Format{Fixed16, Fixed32} {
		span := int64(1) << uint(f.Bits+f.Frac)
		accs := make([]int64, 500)
		for i := range accs {
			accs[i] = rng.Int63n(2*span) - span
		}
		biases := []int64{0, rng.Int63n(f.maxRaw()), -rng.Int63n(f.maxRaw())}
		if f.Bits == 16 {
			finishRowCase[int16](t, f, accs, biases)
		} else {
			finishRowCase[int32](t, f, accs, biases)
		}
	}
}

func TestFormatFor(t *testing.T) {
	cases := []struct {
		bits   int
		maxAbs float64
		want   Format
	}{
		{16, 0.9, Format{16, 14}},
		{16, 1.5, Format{16, 14}}, // Q1.14 reaches 1.99994
		{16, 7.9, Format{16, 12}},
		{16, 100, Format{16, 8}},
		{32, 7.9, Format{32, 28}},
		{16, 1e9, Format{16, 1}}, // clamped at minimum resolution
	}
	for _, c := range cases {
		got, err := FormatFor(c.bits, c.maxAbs)
		if err != nil {
			t.Fatalf("FormatFor(%d, %v): %v", c.bits, c.maxAbs, err)
		}
		if got != c.want {
			t.Errorf("FormatFor(%d, %v) = %v, want %v", c.bits, c.maxAbs, got, c.want)
		}
		// The chosen format must actually represent maxAbs (unless
		// clamped at the minimum fractional width).
		if got.Frac > 1 && got.MaxValue() < c.maxAbs {
			t.Errorf("FormatFor(%d, %v) = %v cannot represent the max", c.bits, c.maxAbs, got)
		}
	}
	if _, err := FormatFor(8, 1); err == nil {
		t.Error("width 8: want error")
	}
	if _, err := FormatFor(16, 0); err == nil {
		t.Error("maxAbs 0: want error")
	}
	if _, err := FormatFor(16, math.NaN()); err == nil {
		t.Error("NaN: want error")
	}
}
