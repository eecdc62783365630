package kernels

// unitVec, when an architecture's init sets it, is UnitFloats for n > 0
// draws, vectorized (the AVX-512 path in avx512_amd64.s).
var unitVec func(draws *uint64, dst *float32, n int, scale float32)

// UnitFloats turns raw draws of math/rand's default source into the values
// the parameter stream stores (internal/model): dst[i] = (u*2 - 1) * scale,
// u = float32(float64(x) / 2⁶³) for the low 63 bits x of draws[i] — what
// rand.Float32 returns for a draw it keeps (dropping the ones it resamples
// is the caller's business). len(dst) >= len(draws). UnitFloatsRef is the
// definition; the vectorized path performs the same operations with the
// same roundings.
//
//microrec:noalloc
func UnitFloats(draws []uint64, scale float32, dst []float32) {
	if len(draws) > 0 && unitVec != nil {
		_ = dst[len(draws)-1]
		unitVec(&draws[0], &dst[0], len(draws), scale)
		return
	}
	UnitFloatsRef(draws, scale, dst)
}

// UnitFloatsRef is the portable UnitFloats.
//
//microrec:noalloc
func UnitFloatsRef(draws []uint64, scale float32, dst []float32) {
	dst = dst[:len(draws)]
	for i, y := range draws {
		u := float32(float64(int64(y&(1<<63-1))) / (1 << 63))
		dst[i] = (u*2 - 1) * scale
	}
}
