//go:build !noasm

package kernels

import "unsafe"

// quantizeVec16 and quantizeVec32, when an architecture's init sets them,
// are QuantizeRow for n > 0 elements at each width, vectorized (the AVX-512
// path in avx512_amd64.s): hi and lo are the clamp bounds as float64.
var (
	quantizeVec16 func(src *float32, dst *int16, n int, scale, hi, lo float64)
	quantizeVec32 func(src *float32, dst *int32, n int, scale, hi, lo float64)
)

func init() {
	featureTags = append(featureTags, "batched-quantize")
}

// rtBias is 1.5 * 2^52: adding it to a float64 v with |v| < 2^51 lands the
// sum in [2^52, 2^53), where the float64 ULP is exactly 1, so the add itself
// rounds v to the nearest integer under the IEEE-754 default
// round-half-to-even mode — the same rounding math.RoundToEven implements
// with bit manipulation, for the cost of two additions. (2^52 alone would
// only work for non-negative v: sums just below 2^52 have a 0.5 ULP.)
const rtBias = 1<<52 + 1<<51

// QuantizeRow converts one contiguous float32 run straight into a run at the
// format's width, len(dst) >= len(src): the engine quantizes its embedding
// tables through it once, when they are filled. On a host with AVX-512 it is
// the vector loop (quantizeVec16/32, eight elements an instruction);
// otherwise a loop over hoisted constants, replacing the per-element
// Format.Quantize (which re-derives the scale, runs a NaN test through math,
// and rounds by exponent surgery).
//
// Bit-identity with QuantizeRowRef:
//   - float32→float64 conversion and scaling by 2^Frac are both exact, so v
//     here is the exact value Quantize rounds;
//   - for |v| < 2^51 the rtBias round-trip is exactly round-half-to-even;
//   - for |v| >= 2^51 the round-trip may be off by a few ULP, but any such t
//     still lies far beyond the clamp bounds (|raw| < 2^31 for every
//     validated format), so both paths saturate to the same raw;
//   - NaN and ±Inf are handled before/by the clamps exactly as in Quantize.
//
//microrec:noalloc
func QuantizeRow[T Elem](q *Quantizer, src []float32, dst []T) {
	scale, maxF, minF := q.scale, q.maxF, q.minF
	dst = dst[:len(src)]
	if len(src) > 0 && quantizeVec16 != nil {
		if unsafe.Sizeof(dst[0]) == 2 {
			quantizeVec16(&src[0], (*int16)(unsafe.Pointer(&dst[0])), len(src), scale, maxF, minF)
		} else {
			quantizeVec32(&src[0], (*int32)(unsafe.Pointer(&dst[0])), len(src), scale, maxF, minF)
		}
		return
	}
	for i, x := range src {
		v := float64(x) * scale
		if v != v { // NaN quantizes to zero
			dst[i] = 0
			continue
		}
		t := (v + rtBias) - rtBias
		if t > maxF {
			dst[i] = T(q.maxRaw)
			continue
		}
		if t < minF {
			dst[i] = T(q.minRaw)
			continue
		}
		dst[i] = T(t)
	}
}
