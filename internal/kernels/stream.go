package kernels

// The parameter stream's two kernels (internal/model draws every stored
// parameter from it): Extend runs the source's recurrence over a block of
// raw draws, UnitFloats turns kept draws into stored values.
//
// math/rand's default source is an additive lagged-Fibonacci generator: draw
// n is y[n] = y[n-LagLong] + y[n-LagShort] mod 2⁶⁴, and Uint64 returns y[n]
// itself. Float32 consumes the low 63 bits x of one draw per attempt and
// resamples when x ≥ SkipFrom (2⁶³ − 2³⁸ − 2⁹: float64(x)/2⁶³ reaches
// 1 − 2⁻²⁵, the float32 round-up point, there).
const (
	LagLong  = 607 // the source's register length
	LagShort = 273 // its tap
	// SkipFrom is the smallest 63-bit draw Float32 resamples.
	SkipFrom = 1<<63 - 1<<38 - 1<<9
)

// extendVec, when an architecture's init sets it, is Extend for the first n
// new draws of the buffer at buf (n > 0, a multiple of 8), vectorized (the
// AVX-512 path in avx512_amd64.s). A vector of eight is exact because the
// short lag is longer than it: a lane reads only draws written at least
// LagShort − 7 places earlier.
var extendVec func(buf *uint64, n int) (skips int)

// Extend computes buf[LagLong:] from the recurrence, buf[:LagLong] holding
// the LagLong draws before them, and returns how many of the new draws
// Float32 resamples. ExtendRef is the definition; the vectorized path runs
// whole vectors and leaves the n mod 8 last draws to it.
//
//microrec:noalloc
func Extend(buf []uint64) (skips int) {
	if n := (len(buf) - LagLong) &^ 7; n > 0 && extendVec != nil {
		skips = extendVec(&buf[0], n)
		buf = buf[n:] // the rest follows from the LagLong draws before it
	}
	return skips + ExtendRef(buf)
}

// ExtendRef is the portable Extend.
//
//microrec:noalloc
func ExtendRef(buf []uint64) (skips int) {
	out := buf[LagLong:]
	long, short := buf[:len(out)], buf[LagLong-LagShort:][:len(out)]
	for i := range out {
		y := long[i] + short[i]
		out[i] = y
		if y&(1<<63-1) >= SkipFrom {
			skips++
		}
	}
	return skips
}

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
