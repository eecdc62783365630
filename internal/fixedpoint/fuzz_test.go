package fixedpoint

import (
	"math"
	"testing"
)

// FuzzQuantize checks the fundamental quantization invariants on arbitrary
// floats: outputs stay in the raw range, round trips stay within half a ULP
// inside the representable range, and saturation clamps outside it.
func FuzzQuantize(f *testing.F) {
	f.Add(0.0)
	f.Add(1.5)
	f.Add(-3.25)
	f.Add(1e30)
	f.Add(-1e30)
	f.Add(math.Pi)
	f.Fuzz(func(t *testing.T, x float64) {
		for _, fm := range []Format{Fixed16, Fixed32} {
			raw := fm.Quantize(x)
			if raw > fm.maxRaw() || raw < fm.minRaw() {
				t.Fatalf("%v: Quantize(%v) = %d out of raw range", fm, x, raw)
			}
			if math.IsNaN(x) {
				if raw != 0 {
					t.Fatalf("%v: Quantize(NaN) = %d", fm, raw)
				}
				return
			}
			back := fm.Dequantize(raw)
			switch {
			case x > maxValue(fm):
				if back != maxValue(fm) {
					t.Fatalf("%v: Quantize(%v) should saturate high, got %v", fm, x, back)
				}
			case x < minValue(fm):
				if back != minValue(fm) {
					t.Fatalf("%v: Quantize(%v) should saturate low, got %v", fm, x, back)
				}
			default:
				if math.Abs(back-x) > resolution(fm)/2+1e-12 {
					t.Fatalf("%v: round trip of %v drifted to %v", fm, x, back)
				}
			}
		}
	})
}
