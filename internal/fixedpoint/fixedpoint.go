// Package fixedpoint implements the saturating fixed-point arithmetic used by
// the MicroRec accelerator datapath.
//
// The paper evaluates two precision levels, 16-bit and 32-bit fixed point
// (Table 2, Table 6). We model them as signed Q-format numbers: a Q(m).(f)
// value stores round(x * 2^f) in an int16 or int32. Multiplications widen to
// the next integer size, accumulate exactly, and saturate on the way back to
// the storage width, which is how HLS arbitrary-precision types behave when
// configured with AP_SAT.
package fixedpoint

import (
	"fmt"
	"math"
)

// Format describes a signed fixed-point representation.
type Format struct {
	// Bits is the total storage width, 16 or 32.
	Bits int
	// Frac is the number of fractional bits.
	Frac int
}

// Common formats used by the accelerator. The fractional widths are chosen so
// that embedding values (|x| < 8) and post-activation ranges (|x| < 256 with
// ReLU) both fit; see TestFormatRanges.
var (
	// Fixed16 is the 16-bit datapath format (Q6.10).
	Fixed16 = Format{Bits: 16, Frac: 10}
	// Fixed32 is the 32-bit datapath format (Q14.18).
	Fixed32 = Format{Bits: 32, Frac: 18}
)

// Validate reports whether the format is one the datapath supports.
func (f Format) Validate() error {
	if f.Bits != 16 && f.Bits != 32 {
		return fmt.Errorf("fixedpoint: unsupported width %d (want 16 or 32)", f.Bits)
	}
	// Reserve the sign bit plus at least one integer bit, since datapath
	// values (embeddings, activations) routinely exceed 1.0 in magnitude.
	if f.Frac <= 0 || f.Frac > f.Bits-2 {
		return fmt.Errorf("fixedpoint: fractional width %d out of range for %d-bit format", f.Frac, f.Bits)
	}
	return nil
}

// Scale returns 2^Frac as a float64.
func (f Format) Scale() float64 { return float64(int64(1) << uint(f.Frac)) }

// MaxValue returns the largest representable value.
func (f Format) MaxValue() float64 {
	return float64(f.maxRaw()) / f.Scale()
}

// MinValue returns the most negative representable value.
func (f Format) MinValue() float64 {
	return float64(f.minRaw()) / f.Scale()
}

// Resolution returns the value of one least-significant bit.
func (f Format) Resolution() float64 { return 1 / f.Scale() }

func (f Format) maxRaw() int64 { return int64(1)<<uint(f.Bits-1) - 1 }
func (f Format) minRaw() int64 { return -(int64(1) << uint(f.Bits-1)) }

// String implements fmt.Stringer, e.g. "Q6.10".
func (f Format) String() string {
	return fmt.Sprintf("Q%d.%d", f.Bits-1-f.Frac, f.Frac)
}

// Quantize converts a float64 to the nearest representable raw value,
// saturating at the format bounds. NaN quantizes to zero.
func (f Format) Quantize(x float64) int64 {
	if math.IsNaN(x) {
		return 0
	}
	r := math.RoundToEven(x * f.Scale())
	if r > float64(f.maxRaw()) {
		return f.maxRaw()
	}
	if r < float64(f.minRaw()) {
		return f.minRaw()
	}
	return int64(r)
}

// Dequantize converts a raw value back to float64.
func (f Format) Dequantize(raw int64) float64 {
	return float64(raw) / f.Scale()
}

// RoundTrip quantizes and dequantizes x, returning the representable value
// nearest to x.
func (f Format) RoundTrip(x float64) float64 {
	return f.Dequantize(f.Quantize(x))
}

// saturate clamps a wide accumulator into the storage width.
func (f Format) saturate(v int64) int64 {
	if v > f.maxRaw() {
		return f.maxRaw()
	}
	if v < f.minRaw() {
		return f.minRaw()
	}
	return v
}

// Add returns a+b in the format with saturation. Inputs must already be raw
// values of this format.
func (f Format) Add(a, b int64) int64 { return f.saturate(a + b) }

// Sub returns a-b in the format with saturation.
func (f Format) Sub(a, b int64) int64 { return f.saturate(a - b) }

// Mul returns a*b rescaled into the format with saturation. The product of
// two Q.f numbers is a Q.2f number; shifting right by f (with rounding toward
// nearest) restores the format, exactly like an HLS multiplier followed by a
// shift.
func (f Format) Mul(a, b int64) int64 {
	wide := a * b
	return f.saturate(roundShift(wide, uint(f.Frac)))
}

// MulAcc returns acc + a*b where acc is a *wide* (2f-fractional-bit)
// accumulator; no saturation is applied, matching the exact wide accumulators
// inside a PE's add tree. Use Finish to rescale the accumulator.
func (f Format) MulAcc(acc, a, b int64) int64 { return acc + a*b }

// Finish rescales a wide accumulator (2f fractional bits) back into the
// storage format with saturation.
func (f Format) Finish(acc int64) int64 {
	return f.saturate(roundShift(acc, uint(f.Frac)))
}

// Raw is the storage type of a raw value at a format's width: int16 for a
// 16-bit format, int32 for a 32-bit one. The scalar operations above work on
// int64 so one signature serves both; bulk datapath storage (activation
// planes, weights) is held at this width.
type Raw interface{ int16 | int32 }

// Epilogue is a format's accumulator-to-activation step — Finish, Add a
// bias, optionally ReLU, store at the storage width — with the shift and the
// saturation bounds derived once, so a row of accumulators is finished by
// one loop over constants instead of two Format method calls and a second
// ReLU pass per element. The fields are exported for the vector
// implementations of FinishRow in internal/kernels.
type Epilogue struct {
	Shift    uint  // Frac: the rescale is a rounding right shift by it
	Half     int64 // 2^(Shift-1), added to the magnitude before the shift
	Max, Min int64 // the storage width's saturation bounds
}

// Epilogue hoists f's rescale and saturation constants.
func (f Format) Epilogue() Epilogue {
	return Epilogue{
		Shift: uint(f.Frac),
		Half:  int64(1) << uint(f.Frac) >> 1,
		Max:   f.maxRaw(),
		Min:   f.minRaw(),
	}
}

// Floor is the lower clamp FinishRow applies after the bias: ReLU after a
// clamp to [Min, Max] is a clamp to [0, Max].
func (e *Epilogue) Floor(relu bool) int64 {
	if relu {
		return 0
	}
	return e.Min
}

// FinishRow finishes one row of wide accumulators into dst:
//
//	dst[j] = f.Add(f.Finish(acc[j]), bias[j]), clamped below at 0 when relu
//
// bit for bit (each step saturates exactly as the composed calls do). T must
// be the format's storage width, so the saturated value always fits;
// len(bias) and len(dst) must be at least len(acc).
//
//microrec:noalloc
func FinishRow[T Raw](e *Epilogue, acc, bias []int64, relu bool, dst []T) {
	shift, half, hi, lo, floor := e.Shift, e.Half, e.Max, e.Min, e.Floor(relu)
	bias = bias[:len(acc)]
	dst = dst[:len(acc)]
	for j, a := range acc {
		// roundShift (round half away from zero) without a branch on the
		// accumulator's sign, which is a coin flip per element: take |a|,
		// round, restore the sign. sign is 0 or -1, and (x^sign)-sign
		// negates x exactly when sign is -1.
		sign := a >> 63
		v := ((a^sign)-sign+half)>>shift ^ sign - sign
		if v > hi {
			v = hi
		}
		if v < lo {
			v = lo
		}
		v += bias[j]
		if v > hi {
			v = hi
		}
		if v < floor {
			v = floor
		}
		dst[j] = T(v)
	}
}

// roundShift shifts v right by s bits rounding half away from zero.
func roundShift(v int64, s uint) int64 {
	if s == 0 {
		return v
	}
	half := int64(1) << (s - 1)
	if v >= 0 {
		return (v + half) >> s
	}
	return -((-v + half) >> s)
}

// ReLU applies max(0, x) elementwise in place on raw values.
func ReLU(raw []int64) {
	for i, v := range raw {
		if v < 0 {
			raw[i] = 0
		}
	}
}

// Sigmoid computes the logistic function on a raw value by dequantizing,
// evaluating in float64 and re-quantizing. The hardware implements this with
// a small lookup table; the table's quantization error is subsumed by the
// output format's resolution.
func (f Format) Sigmoid(raw int64) int64 {
	x := f.Dequantize(raw)
	return f.Quantize(1 / (1 + math.Exp(-x)))
}

// AbsError returns |x - RoundTrip(x)|, the representation error for x inside
// the representable range (and the saturation error outside it).
func (f Format) AbsError(x float64) float64 {
	return math.Abs(x - f.RoundTrip(x))
}

// FormatFor picks the widest-resolution format of the given bit width that
// still represents values up to maxAbs without saturating — the calibration
// rule used by per-layer quantization.
func FormatFor(bits int, maxAbs float64) (Format, error) {
	if bits != 16 && bits != 32 {
		return Format{}, fmt.Errorf("fixedpoint: unsupported width %d", bits)
	}
	if maxAbs <= 0 || math.IsNaN(maxAbs) || math.IsInf(maxAbs, 0) {
		return Format{}, fmt.Errorf("fixedpoint: maxAbs %v", maxAbs)
	}
	intBits := 1
	for float64(int64(1)<<uint(intBits)) <= maxAbs {
		intBits++
		if intBits >= bits-1 {
			break
		}
	}
	frac := bits - 1 - intBits
	if frac < 1 {
		frac = 1
	}
	f := Format{Bits: bits, Frac: frac}
	if err := f.Validate(); err != nil {
		return Format{}, err
	}
	return f, nil
}
