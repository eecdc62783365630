package kernels

import "microrec/internal/fixedpoint"

// Quantizer is a format's float→raw conversion with the scale and the
// saturation bounds derived once: the table fill quantizes one row per call,
// a call per row of every table, so re-deriving them from the Format each
// time (as Format.Quantize does) costs more than the conversion.
// An engine builds one at Build and passes it to QuantizeRow.
type Quantizer struct {
	f              fixedpoint.Format
	scale          float64
	maxF, minF     float64
	maxRaw, minRaw int64
}

// NewQuantizer hoists f's conversion constants.
func NewQuantizer(f fixedpoint.Format) Quantizer {
	maxRaw := int64(1)<<uint(f.Bits-1) - 1
	minRaw := -(int64(1) << uint(f.Bits-1))
	return Quantizer{
		f: f, scale: f.Scale(),
		maxF: float64(maxRaw), minF: float64(minRaw),
		maxRaw: maxRaw, minRaw: minRaw,
	}
}

// QuantizeRowRef is the portable reference row-quantize and the semantic
// definition of QuantizeRow: dst[i] = f.Quantize(float64(src[i])), one call
// per element, len(dst) >= len(src). T must be f's storage width. Its one
// non-test caller is the noasm build's QuantizeRow (quantize_noasm.go), a
// file microrec-vet does not load, so deadexport is allowed on it.
//
//microrec:noalloc
func QuantizeRowRef[T Elem](f fixedpoint.Format, src []float32, dst []T) { //microrec:allow deadexport
	for i, x := range src {
		dst[i] = T(f.Quantize(float64(x)))
	}
}
