package kernels

// FMAChunk is a packed 32-bit layer's chunk length, for the external tests.
func FMAChunk(w *Weights[int32]) int { return w.fma }

// MaddCadence is a packed 16-bit layer's widening cadence, for the external
// tests.
func MaddCadence(w *Weights[int16]) int { return w.madd }
