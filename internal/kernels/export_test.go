package kernels

// FMAChunk is a packed 32-bit layer's chunk length, for the external tests.
func FMAChunk(w *Weights[int32]) int { return w.fma }
