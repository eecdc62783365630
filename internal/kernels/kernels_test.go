package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"microrec/internal/fixedpoint"
)

// Every identity test below runs once per registered implementation of the
// contract, as a subtest named after it, and skips — naming the CPU feature —
// the ones this host cannot run: a green run on a host without AVX-512 says
// SKIP for those cases, not PASS. Under the noasm tag only the references are
// registered and the tests reduce to ref-vs-ref — that is intentional: the
// noasm CI leg proves the portable path itself keeps passing, while the
// default leg proves each optimized path matches it bit for bit.

// gemmKernel pairs an element type's implementation table with a generator
// of random raws over that type's whole domain — not just the values a
// calibrated model would produce — so lane-width mistakes in an optimized
// kernel (a multiply that loses sign or high bits) cannot hide. Full-range
// int32 weights leave the 32-bit FMA kernels no exact chunk (fma = 0), so
// over kernel32's draws they pin the reference fallback; TestGemm32FMAExact
// bounds the weights to reach the FMA body. The GEMM and epilogue tests drive
// each implementation's unexported halves, the layer test the whole layer.
type gemmKernel[T Elem] struct {
	name string
	// impls points at the table rather than copying it: package variables
	// are initialized before the init functions that register the optimized
	// kernels.
	impls *[]Impl[T]
	rnd   func(*rand.Rand) T
}

var (
	kernel16 = gemmKernel[int16]{"int16", &Layer16Impls, func(r *rand.Rand) int16 { return int16(r.Uint32()) }}
	kernel32 = gemmKernel[int32]{"int32", &Layer32Impls, func(r *rand.Rand) int32 { return int32(r.Uint32()) }}
)

// eachImpl runs f as one subtest per implementation in impls.
func eachImpl[T Elem](t *testing.T, prefix string, impls []Impl[T], f func(t *testing.T, impl *Impl[T])) {
	t.Helper()
	for _, impl := range impls {
		t.Run(prefix+"/"+impl.Name, func(t *testing.T) {
			if impl.Missing != "" {
				t.Skipf("host lacks %s", impl.Missing)
			}
			f(t, &impl)
		})
	}
}

// each runs f once per implementation's GEMM walk.
func (k gemmKernel[T]) each(t *testing.T, f func(t *testing.T, gemm gemmFunc[T])) {
	t.Helper()
	eachImpl(t, k.name, *k.impls, func(t *testing.T, impl *Impl[T]) { f(t, impl.gemm) })
}

// compare runs one packed layer through GemmRef and gemm on the same plane
// and demands identical accumulators over the logical shape. X is b full
// rows of stride elements: the caller fills the padding lanes past w.In with
// garbage, which the zero-padded weights must annihilate.
func (k gemmKernel[T]) compare(t testing.TB, gemm gemmFunc[T], X []T, b, stride int, w *Weights[T]) {
	t.Helper()
	// Poison both accumulator planes differently so stale values cannot
	// fake a match, and the float64 scratch with NaN, which turns any sum
	// that reads a lane its kernel did not write into a mismatch.
	ref := make([]int64, b*stride)
	opt := make([]int64, b*stride)
	for i := range ref {
		ref[i] = 1<<62 + int64(i)
		opt[i] = -(1<<61 + int64(i))
	}
	F := make([]float64, b*stride)
	for i := range F {
		F[i] = math.NaN()
	}
	GemmRef(X, ref, b, stride, w, nil)
	gemm(X, opt, b, stride, w, F)
	for qi := 0; qi < b; qi++ {
		for j := 0; j < w.Out; j++ {
			if ref[qi*stride+j] != opt[qi*stride+j] {
				t.Fatalf("%s b=%d in=%d out=%d stride=%d madd=%d fma=%d: Acc[%d][%d] = %d (opt) want %d (ref)",
					k.name, b, w.In, w.Out, stride, w.madd, w.fma, qi, j, opt[qi*stride+j], ref[qi*stride+j])
			}
		}
	}
}

// randomCase packs a random in x out layer and compares on a random plane
// whose row stride is the smallest legal one plus slack Lane-multiples.
func (k gemmKernel[T]) randomCase(t *testing.T, gemm gemmFunc[T], rng *rand.Rand, b, in, out, slack int) {
	t.Helper()
	w := Pack(in, out, func(i, j int) T { return k.rnd(rng) })
	stride := max(w.InP, w.OutP) + slack*Lane
	X := make([]T, b*stride)
	for i := range X {
		X[i] = k.rnd(rng)
	}
	k.compare(t, gemm, X, b, stride, &w)
}

// TestPackLayout pins the stored 16-bit layout: transposed, padded to Lane
// x outGroup, padding all zero, logical values in place.
func TestPackLayout(t *testing.T) {
	const in, out = 19, 6
	w := Pack(in, out, func(i, j int) int16 { return int16(100*i + j + 1) })
	if w.In != in || w.Out != out || w.InP != Lane || w.OutP != 8 || w.panel != 1 || len(w.WT) != 8*Lane {
		t.Fatalf("shape: %+v (len %d)", w, len(w.WT))
	}
	for j := 0; j < w.OutP; j++ {
		for i := 0; i < w.InP; i++ {
			want := int16(0)
			if i < in && j < out {
				want = int16(100*i + j + 1)
			}
			if got := w.WT[j*w.InP+i]; got != want {
				t.Fatalf("WT[%d][%d] = %d, want %d", j, i, got, want)
			}
		}
	}
}

// TestPackLayout32 pins the stored 32-bit layout: panels of panelWidth
// outputs, each InP rows of one weight per output, padded to Lane x
// panelWidth, padding all zero, logical values in place — and the chunk
// length taken from the largest weight.
func TestPackLayout32(t *testing.T) {
	const in, out = 45, 37 // two panels, the second mostly padding
	w := Pack(in, out, func(i, j int) int32 { return int32(10000*i + j + 1) })
	if w.In != in || w.Out != out || w.InP != 2*Lane || w.OutP != 2*panelWidth || w.panel != panelWidth || len(w.WT) != 2*Lane*2*panelWidth {
		t.Fatalf("shape: %+v (len %d)", w, len(w.WT))
	}
	for p := 0; p < w.OutP/panelWidth; p++ {
		for i := 0; i < w.InP; i++ {
			for o := 0; o < panelWidth; o++ {
				j := p*panelWidth + o
				want := int32(0)
				if i < in && j < out {
					want = int32(10000*i + j + 1)
				}
				if got := w.WT[(p*w.InP+i)*panelWidth+o]; got != want {
					t.Fatalf("panel %d row %d lane %d = %d, want %d", p, i, o, got, want)
				}
			}
		}
	}
	if want := 1 << 22 / (10000*(in-1) + out); w.fma != want { // 9: not capped by InP
		t.Fatalf("fma = %d, want %d", w.fma, want)
	}
}

// gemmShapes runs f over the random sweep and the pinned boundary shapes:
// every row count around the four-row tile (1..9: no tile, a tile plus each
// remainder, two tiles, two plus one), input lengths on both sides of a Lane
// multiple, output counts on both sides of the 4-output group and the
// 16-column block.
func gemmShapes(f func(rng *rand.Rand, b, in, out, slack int)) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		f(rng, 1+rng.Intn(9), 1+rng.Intn(70), 1+rng.Intn(70), rng.Intn(3))
	}
	for _, s := range []struct{ b, in, out int }{
		{1, 1, 1},
		{1, 15, 1},  // below one 256-bit vector
		{1, 16, 1},  // exactly one
		{1, 17, 1},  // one plus padding
		{3, 16, 3},  // out below the 4-output group
		{4, 16, 4},  // exact group
		{5, 17, 5},  // both padded
		{2, 8, 16},  // exact column block
		{2, 8, 17},  // column block plus one output
		{6, 24, 33}, // ragged batch, several column blocks
		{7, 100, 9},
		{8, 352, 31},
	} {
		f(rng, s.b, s.in, s.out, 0)
	}
	for b := 1; b <= 9; b++ {
		for _, in := range []int{
			31,  // below one 512-bit vector
			32,  // exactly one
			33,  // one plus padding
			48,  // one and a half: an odd count of 256-bit steps
			876, // the large model's feature width
		} {
			f(rng, b, in, 5, b%2)
		}
	}
}

// TestGemmBitIdentityShapes is the identity property over shapes, for every
// implementation of both element types.
func TestGemmBitIdentityShapes(t *testing.T) {
	kernel16.each(t, func(t *testing.T, gemm gemmFunc[int16]) {
		gemmShapes(func(rng *rand.Rand, b, in, out, slack int) {
			kernel16.randomCase(t, gemm, rng, b, in, out, slack)
		})
	})
	kernel32.each(t, func(t *testing.T, gemm gemmFunc[int32]) {
		gemmShapes(func(rng *rand.Rand, b, in, out, slack int) {
			kernel32.randomCase(t, gemm, rng, b, in, out, slack)
		})
	})
}

// TestGemm32WraparoundIdentity drives int64 accumulators into overflow: raws
// at the 32-bit extremes over a long row make partial sums wrap. Wrapping
// addition still commutes, so the kernels must agree bit for bit even here.
// Weights at the extremes leave the FMA kernels no exact chunk, so this pins
// their reference fallback (TestGemm32FMAExact pins the FMA body). Row
// counts 1..9 run on a packed plane and on one with stride slack.
func TestGemm32WraparoundIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const maxB, in, out = 9, 2048, 8
	extremes := []int32{math.MinInt32, math.MaxInt32}
	w := Pack(in, out, func(i, j int) int32 { return extremes[rng.Intn(2)] })
	strides := []int{in, in + Lane}
	planes := make([][]int32, len(strides))
	for s, stride := range strides {
		planes[s] = make([]int32, maxB*stride)
		for i := range planes[s] {
			planes[s][i] = extremes[rng.Intn(2)]
		}
	}
	kernel32.each(t, func(t *testing.T, gemm gemmFunc[int32]) {
		for b := 1; b <= maxB; b++ {
			for s, stride := range strides {
				kernel32.compare(t, gemm, planes[s][:b*stride], b, stride, &w)
			}
		}
	})
}

// TestGemm32FMAExact is the exactness property of the 32-bit FMA kernels on
// weights bounded so that a layer takes the FMA body, not the reference
// fallback. The largest weight magnitude is exactly ⌊2^22/L⌋ for chunk
// lengths L from 1 (every step a chunk of its own) through lengths that
// split a row evenly, unevenly, or not at all. Activations sit at MinInt32
// and MaxInt32: sign-aligned, so every chunk's sum reaches the ±2^53 bound
// (±2^51 in the AVX2 form's quarter chunks), and odd, so a sum past the
// bound could not be exact. Padding lanes and the stride slack between rows
// hold the same extremes, stale. Row counts 1..13 cover the six-row kernel
// alone, the remainder alone, both, and two tiles plus one; out = 40 is a
// full panel plus a ragged one.
func TestGemm32FMAExact(t *testing.T) {
	cases := []struct{ in, L, wantFMA int }{
		{1024, 1, 1},
		{512, 2, 2},
		{512, 3, 3}, // below four: the AVX2 form takes the reference
		{512, 4, 4}, // the AVX2 form's one-step chunks
		{512, 5, 5},
		{1024, 300, 300}, // production-small layer 1's bound
		{512, 362, 362},  // ... and layer 3's
		{1024, 512, 512}, // two even chunks
		{1024, 1000, 1000},
		{100, 362, 128}, // stored as 128: one chunk, capped by the row
	}
	const maxB, out = 13, 40
	type layer struct {
		name   string
		w      Weights[int32]
		X      []int32
		stride int
	}
	var layers []layer
	rng := rand.New(rand.NewSource(7))
	for _, c := range cases {
		maxAbs := int32(1 << 22 / c.L)
		for _, mode := range []string{"aligned+", "aligned-", "odd", "random"} {
			var at func(i, j int) int32
			var x func() int32
			switch mode {
			case "aligned+": // every product +2^31 * maxAbs
				at = func(i, j int) int32 { return -maxAbs }
				x = func() int32 { return math.MinInt32 }
			case "aligned-":
				at = func(i, j int) int32 { return maxAbs }
				x = func() int32 { return math.MinInt32 }
			case "odd": // sums near the bound, of either parity
				at = func(i, j int) int32 {
					if i == 0 && j == 0 {
						return maxAbs // pin the largest magnitude
					}
					return maxAbs - int32(rng.Intn(2))
				}
				x = func() int32 { return math.MaxInt32 }
			default:
				acts := []int32{math.MinInt32, math.MaxInt32, 0, 1, -1}
				at = func(i, j int) int32 {
					switch {
					case i == 0 && j == 0:
						return maxAbs
					case rng.Intn(2) == 0:
						return []int32{maxAbs, -maxAbs, 0}[rng.Intn(3)]
					}
					return int32(rng.Int63n(2*int64(maxAbs)+1)) - maxAbs
				}
				x = func() int32 {
					if rng.Intn(2) == 0 {
						return int32(rng.Uint32())
					}
					return acts[rng.Intn(len(acts))]
				}
			}
			w := Pack(c.in, out, at)
			if w.fma != c.wantFMA {
				t.Fatalf("in=%d maxAbs=%d: chunk %d, want %d", c.in, maxAbs, w.fma, c.wantFMA)
			}
			stride := w.InP + Lane
			X := make([]int32, maxB*stride)
			for i := range X {
				X[i] = x()
			}
			layers = append(layers, layer{fmt.Sprintf("in%d_L%d_%s", c.in, c.L, mode), w, X, stride})
		}
	}
	kernel32.each(t, func(t *testing.T, gemm gemmFunc[int32]) {
		for _, l := range layers {
			t.Run(l.name, func(t *testing.T) {
				for b := 1; b <= maxB; b++ {
					kernel32.compare(t, gemm, l.X[:b*l.stride], b, l.stride, &l.w)
				}
			})
		}
	})
}

// TestFMAChunkIsSafeAndTight checks the exactness bound numerically: L steps
// of worst-case products (|x| = 2^31, |w| = maxAbs) stay within 2^53, L+1
// do not (unless L was capped by the row length), and a weight past 2^22
// yields no exact chunk at all.
func TestFMAChunkIsSafeAndTight(t *testing.T) {
	const steps = 1 << 40 // never the binding cap
	const bound = 1 << 53
	check := func(maxAbs int64) {
		l := int64(fmaChunk(maxAbs, steps))
		worst := maxAbs << 31
		if l*worst > bound {
			t.Fatalf("maxAbs %d: chunk %d reaches %d > 2^53", maxAbs, l, l*worst)
		}
		if (l+1)*worst <= bound {
			t.Fatalf("maxAbs %d: chunk %d is not tight", maxAbs, l)
		}
	}
	for maxAbs := int64(1); maxAbs <= 1<<16; maxAbs++ {
		check(maxAbs)
	}
	for e := 17; e <= 22; e++ {
		for _, d := range []int64{-1, 0, 1} {
			check(1<<e + d)
		}
	}
	for _, maxAbs := range []int64{1<<22 + 1, 1 << 30, math.MaxInt32, 1 << 31} {
		if l := fmaChunk(maxAbs, steps); l != 0 {
			t.Fatalf("maxAbs %d: chunk %d, want 0 (reference kernel)", maxAbs, l)
		}
	}
	if l := fmaChunk(0, 352); l != 352 {
		t.Fatalf("all-zero layer: chunk %d, want the row length 352", l)
	}
	if l := fmaChunk(13981, 352); l != 300 {
		t.Fatalf("production-small layer 1: chunk %d, want 300", l)
	}
}

// TestMaddCadenceIsSafeAndTight checks the overflow proof numerically for
// every weight magnitude: K worst-case pair sums fit an int32, K+1 do not
// (unless K was capped by the row length), and a saturated negative weight
// yields no safe cadence at all.
func TestMaddCadenceIsSafeAndTight(t *testing.T) {
	const blocks = 1 << 20 // never the binding cap for maxAbs >= 1
	for maxAbs := int64(1); maxAbs <= 32768; maxAbs++ {
		k := int64(maddCadence(maxAbs, blocks))
		worstPair := 2 * 32768 * maxAbs // |x0*w0 + x1*w1| with |x| = 2^15
		if k*worstPair > math.MaxInt32 {
			t.Fatalf("maxAbs %d: cadence %d overflows (%d)", maxAbs, k, k*worstPair)
		}
		if (k+1)*worstPair <= math.MaxInt32 {
			t.Fatalf("maxAbs %d: cadence %d is not tight", maxAbs, k)
		}
	}
	if k := maddCadence(32768, blocks); k != 0 {
		t.Fatalf("saturated weight: cadence %d, want 0 (reference kernel)", k)
	}
	if k := maddCadence(0, 22); k != 22 {
		t.Fatalf("all-zero layer: cadence %d, want the row length 22", k)
	}
	if k := maddCadence(55, 22); k != 22 {
		t.Fatalf("calibrated layer: cadence %d, want one widening per dot product", k)
	}
}

// TestGemm16AdversarialSaturation is the overflow property test for the
// 16-bit kernels: activations and weights at the int16 extremes, rows up to
// 4096 long, and a weight magnitude chosen to land the widening cadence on
// every interesting value for both step sizes (a 4096-long row is 256
// VPMADDWD steps or 128 VPDPWSSD steps) — every step (K = 1), one short of
// the row (K = steps-1, so the last step alone forces a second widening),
// exactly the row, and no safe cadence (K = 0, the reference fallback). Row
// counts cover the register tile alone, the single-row form alone, and both.
// Each case runs sign-aligned planes that drive every int32 lane to its
// bound in both directions, then random draws from the extreme set.
func TestGemm16AdversarialSaturation(t *testing.T) {
	acts := []int16{-32768, -32767, 0, 32767}
	cases := []struct {
		in       int
		maxAbs   int16 // largest weight magnitude in the layer
		wantMadd int
	}{
		{4096, 32767, 1},
		{4096, 16384, 1},
		{4096, 16383, 2},
		{4096, 258, 127},  // one short of the 128 VPDPWSSD steps
		{4096, 255, 128},  // exactly the VPDPWSSD steps, half the VPMADDWD ones
		{4096, 128, 255},  // one short of the 256 VPMADDWD steps
		{4096, 127, 256},  // one widening, lanes within 2^23 of the bound
		{1008, 1057, 31},  // stored as 1024: one short of 32 VPDPWSSD steps
		{1008, 521, 62},   // ... and two short of the 64 VPMADDWD steps
		{352, 55, 22},     // production-small layer 1 at its calibrated bound
		{4096, -32768, 0}, // saturated negative weight: one step can wrap
		{48, -32768, 0},
	}
	kernel16.each(t, func(t *testing.T, gemm gemmFunc[int16]) {
		rng := rand.New(rand.NewSource(5))
		for _, c := range cases {
			for _, b := range []int{1, 3, 4, 6, 9} {
				const out = 7
				for _, mode := range []string{"aligned+", "aligned-", "random"} {
					weights := []int16{c.maxAbs, -c.maxAbs, 0}
					if c.maxAbs == -32768 {
						weights = []int16{-32768, 32767, 0}
					}
					at := func(i, j int) int16 { return weights[rng.Intn(len(weights))] }
					x := func() int16 { return acts[rng.Intn(len(acts))] }
					switch mode {
					case "aligned+": // every product +2^15 * |w|
						at = func(i, j int) int16 { return -abs16(c.maxAbs) }
						x = func() int16 { return -32768 }
					case "aligned-":
						at = func(i, j int) int16 { return abs16(c.maxAbs) }
						x = func() int16 { return -32768 }
					}
					w := Pack(c.in, out, at)
					if w.madd != c.wantMadd {
						t.Fatalf("in=%d maxAbs=%d: cadence %d, want %d", c.in, c.maxAbs, w.madd, c.wantMadd)
					}
					stride := w.InP
					X := make([]int16, b*stride)
					for i := range X {
						X[i] = x()
					}
					t.Run(fmt.Sprintf("in%d_w%d_b%d_%s", c.in, c.maxAbs, b, mode), func(t *testing.T) {
						kernel16.compare(t, gemm, X, b, stride, &w)
					})
				}
			}
		}
	})
}

// fuzz is the body of the GEMM fuzz targets: it takes the batch shape (b
// 1..9, in 1..256, out 1..40), the plane's stride slack (0..2 Lanes) and the
// raw values (vals, read as little-endian elements of T and cycled over the
// weights and then the plane, padding lanes included) and demands that every
// implementation this host can run equals GemmRef.
func (k gemmKernel[T]) fuzz(t *testing.T, fb, fin, fout, fslack uint8, vals []byte) {
	b, in, out, slack := 1+int(fb%9), 1+int(fin), 1+int(fout%40), int(fslack%3)
	size := int(unsafe.Sizeof(T(0)))
	next := 0
	val := func() T {
		if len(vals) < size {
			return 0
		}
		if next+size > len(vals) {
			next = 0
		}
		var v uint64
		for i := size - 1; i >= 0; i-- {
			v = v<<8 | uint64(vals[next+i])
		}
		next += size
		return T(v)
	}
	w := Pack(in, out, func(i, j int) T { return val() })
	stride := max(w.InP, w.OutP) + slack*Lane
	X := make([]T, b*stride)
	for i := range X {
		X[i] = val()
	}
	for _, impl := range *k.impls {
		if impl.Missing == "" {
			k.compare(t, impl.gemm, X, b, stride, &w)
		}
	}
}

// FuzzGemm16Identity fuzzes every 16-bit GEMM against GemmRef.
func FuzzGemm16Identity(f *testing.F) {
	f.Add(uint8(4), uint8(32), uint8(4), uint8(0), []byte{1, 0, 255, 255})
	f.Add(uint8(6), uint8(47), uint8(17), uint8(1), []byte{0, 128, 255, 127, 3})       // extremes, K = 0
	f.Add(uint8(9), uint8(255), uint8(5), uint8(2), []byte{0, 64, 1, 192, 255, 63, 7}) // K = 1 with remainder rows
	f.Add(uint8(1), uint8(0), uint8(0), uint8(0), []byte{})
	f.Fuzz(kernel16.fuzz)
}

// FuzzGemm32Identity fuzzes every 32-bit GEMM against GemmRef. Weights
// past 2^22 in magnitude send a layer to the reference fallback; smaller
// ones, like the first seed's ±1, reach the FMA body.
func FuzzGemm32Identity(f *testing.F) {
	f.Add(uint8(4), uint8(32), uint8(4), uint8(0), []byte{1, 0, 0, 0, 255, 255, 255, 255})
	f.Add(uint8(6), uint8(47), uint8(17), uint8(1), []byte{0, 0, 0, 128, 255, 255, 255, 127, 3}) // extremes, tile plus remainder
	f.Add(uint8(8), uint8(255), uint8(39), uint8(2), []byte{0, 0, 0, 128, 0, 0, 0, 128})         // MinInt32 squared, two tiles
	f.Add(uint8(1), uint8(0), uint8(0), uint8(0), []byte{})
	f.Fuzz(kernel32.fuzz)
}

// abs16 is |v| saturated to int16 (-32768 stays -32768: the one magnitude
// with no positive twin, which is exactly the K = 0 case).
func abs16(v int16) int16 {
	if v < 0 && v != -32768 {
		return -v
	}
	return v
}

// finishIdentity compares every registered implementation's row epilogue of
// one width against fixedpoint.FinishRow, the definition: accumulators at
// every rounding and saturation boundary and at the int64 extremes, biases
// that saturate on their own, ReLU on and off, and row lengths on every
// residue of the eight-lane vector step. dst is poisoned past the row to catch a store the
// length does not cover.
func finishIdentity[T Elem](t *testing.T, name string, formats []fixedpoint.Format, impls []Impl[T]) {
	eachImpl(t, name, impls, func(t *testing.T, impl *Impl[T]) {
		finish := impl.finish
		rng := rand.New(rand.NewSource(6))
		for _, f := range formats {
			e := f.Epilogue()
			edge := (e.Max + 1) << e.Shift // the first accumulator that finishes past Max
			accs := []int64{
				0, 1, -1, e.Half - 1, e.Half, e.Half + 1, -e.Half + 1, -e.Half, -e.Half - 1,
				3 * e.Half, -3 * e.Half, // exact .5 raws: round half away from zero
				edge - e.Half - 1, edge - e.Half, edge, -edge - e.Half + 1, -edge - e.Half, -edge - e.Half - 1,
				1 << 62, -(1 << 62), 1<<62 - 1, -(1 << 62) + 1, 1<<62 + e.Half, -(1 << 62) - e.Half,
				math.MaxInt64, math.MaxInt64 - e.Half, math.MaxInt64 - e.Half + 1, math.MinInt64, math.MinInt64 + 1,
			}
			biases := []int64{0, 1, -1, e.Max, e.Min, e.Max - 1, e.Min + 1}
			lengths := []int{64, 100, 1024}
			for n := 0; n <= 17; n++ {
				lengths = append(lengths, n)
			}
			for _, n := range lengths {
				acc := make([]int64, n)
				bias := make([]int64, n+3) // longer than acc is legal
				for i := range acc {
					switch rng.Intn(3) {
					case 0:
						acc[i] = accs[rng.Intn(len(accs))]
					case 1: // inside the format's range
						acc[i] = (rng.Int63n(2*e.Max) - e.Max) << e.Shift >> uint(rng.Intn(4))
					default: // any magnitude
						acc[i] = int64(rng.Uint64()) >> uint(rng.Intn(64))
					}
				}
				for i := range bias {
					if rng.Intn(2) == 0 {
						bias[i] = biases[rng.Intn(len(biases))]
					} else {
						bias[i] = rng.Int63n(2*e.Max) - e.Max
					}
				}
				for _, relu := range []bool{false, true} {
					want := make([]T, n+5)
					got := make([]T, n+5)
					for i := range want {
						want[i], got[i] = T(-21845), T(-21845)
					}
					fixedpoint.FinishRow(&e, acc, bias, relu, want)
					finish(&e, acc, bias, relu, got)
					for i := range want {
						if got[i] != want[i] {
							a, bi := int64(0), int64(0)
							if i < n {
								a, bi = acc[i], bias[i]
							}
							t.Fatalf("%v n=%d relu=%v: dst[%d] = %d, want %d (acc %d, bias %d)", f, n, relu, i, got[i], want[i], a, bi)
						}
					}
				}
			}
		}
	})
}

// TestFinishRowBitIdentity is the epilogue's identity property, both widths.
func TestFinishRowBitIdentity(t *testing.T) {
	var f16, f32 []fixedpoint.Format
	for _, f := range quantFormats {
		if f.Bits == 16 {
			f16 = append(f16, f)
		} else {
			f32 = append(f32, f)
		}
	}
	finishIdentity(t, "int16", f16, Layer16Impls)
	finishIdentity(t, "int32", f32, Layer32Impls)
}

// TestLayerBitIdentity compares every registered layer with LayerRef, the
// definition, over whole layers: batches of one row, a strip short of one
// row, one strip, one strip plus a row, two strips plus a ragged one and the
// serving batch; full-range activations (stale padding lanes and stride
// slack included) and a NaN-poisoned float64 scratch; weights at the
// production magnitudes, which reach the optimized bodies, and full-range
// ones, which take the fallbacks. Besides the production epilogues it runs
// transparent ones — no rounding, no clamp, no ReLU, shifts of 0, 16, 32
// and 48 bits — whose truncating narrow store carries the sum's bits at that
// shift into the output, so no wrong bit of a sum can hide behind a
// saturation. The row past b and every column past w.Out must keep their
// stale values.
func TestLayerBitIdentity(t *testing.T) {
	layerIdentity(t, kernel16, fixedpoint.Fixed16)
	layerIdentity(t, kernel32, fixedpoint.Fixed32)
}

func layerIdentity[T Elem](t *testing.T, k gemmKernel[T], f fixedpoint.Format) {
	type epilogue struct {
		name string
		e    fixedpoint.Epilogue
		relu bool
	}
	epilogues := []epilogue{{"production", f.Epilogue(), false}, {"production-relu", f.Epilogue(), true}}
	for _, shift := range []uint{0, 16, 32, 48} {
		e := fixedpoint.Epilogue{Shift: shift, Max: math.MaxInt64, Min: math.MinInt64}
		epilogues = append(epilogues, epilogue{fmt.Sprintf("transparent%d", shift), e, false})
	}
	type layer struct {
		name string
		w    Weights[T]
		bias []int64
	}
	var layers []layer
	rng := rand.New(rand.NewSource(8))
	for _, s := range []struct{ in, out int }{{35, 6}, {100, 70}} {
		maxAbs := int64(f.Scale() / math.Sqrt(float64(s.in))) // a layer's ±1/sqrt(in)
		bias := make([]int64, s.out)
		for j := range bias {
			bias[j] = rng.Int63n(2*maxAbs+1) - maxAbs
		}
		calibrated := Pack(s.in, s.out, func(i, j int) T { return T(rng.Int63n(2*maxAbs+1) - maxAbs) })
		if calibrated.madd == 0 && calibrated.fma < 4 {
			t.Fatalf("%dx%d: calibrated weights take the reference walk", s.in, s.out)
		}
		full := Pack(s.in, s.out, func(i, j int) T { return k.rnd(rng) })
		layers = append(layers,
			layer{fmt.Sprintf("calibrated%dx%d", s.in, s.out), calibrated, bias},
			layer{fmt.Sprintf("full%dx%d", s.in, s.out), full, bias})
	}
	eachImpl(t, k.name, *k.impls, func(t *testing.T, impl *Impl[T]) {
		for _, l := range layers {
			stride := max(l.w.InP, l.w.OutP) + Lane
			for _, b := range []int{1, StripRows - 1, StripRows, StripRows + 1, 2*StripRows + 5, 64} {
				X := make([]T, (b+1)*stride)
				for i := range X {
					X[i] = k.rnd(rng)
				}
				n := min(b, StripRows) * stride
				ref, opt, F := make([]int64, n), make([]int64, n), make([]float64, n)
				for _, ep := range epilogues {
					for i := range ref {
						ref[i], opt[i], F[i] = 1<<62+int64(i), -(1<<61 + int64(i)), math.NaN()
					}
					want, got := slices.Clone(X), slices.Clone(X)
					LayerRef(want, b, stride, &l.w, l.bias, &ep.e, ep.relu, ref, nil)
					impl.Run(got, b, stride, &l.w, l.bias, &ep.e, ep.relu, opt, F)
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s %s b=%d: X[%d][%d] = %d, want %d", l.name, ep.name, b, i/stride, i%stride, got[i], want[i])
						}
					}
				}
			}
		}
	})
}

// quantFormats are the formats the identity tests sweep: the two datapath
// formats plus odd widths FormatFor can produce.
var quantFormats = []fixedpoint.Format{
	fixedpoint.Fixed16,
	fixedpoint.Fixed32,
	{Bits: 16, Frac: 1},
	{Bits: 16, Frac: 14},
	{Bits: 32, Frac: 1},
	{Bits: 32, Frac: 30},
}

// quantizeIdentity compares QuantizeRow against the reference at one element
// type.
func quantizeIdentity[T Elem](t *testing.T, f fixedpoint.Format, src []float32) {
	t.Helper()
	q := NewQuantizer(f)
	ref := make([]T, len(src))
	opt := make([]T, len(src))
	QuantizeRowRef(f, src, ref)
	QuantizeRow(&q, src, opt)
	for i := range src {
		if ref[i] != opt[i] {
			t.Fatalf("format %v: src[%d]=%v -> %d (opt) want %d (ref)", f, i, src[i], opt[i], ref[i])
		}
		if want := f.Quantize(float64(src[i])); int64(ref[i]) != want {
			t.Fatalf("format %v: src[%d]=%v narrowed to %d, Format.Quantize gives %d", f, i, src[i], ref[i], want)
		}
	}
}

// TestQuantizeRowBitIdentity compares QuantizeRow against the reference over
// adversarial values: exact halves (the round-to-even cases), saturation
// boundaries, NaN, infinities, subnormals, and random magnitudes across the
// whole float32 exponent range — each format at its own storage width, and
// checks the narrow store loses nothing against the int64 Format.Quantize.
func TestQuantizeRowBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, f := range quantFormats {
		if err := f.Validate(); err != nil {
			t.Fatalf("bad test format %v: %v", f, err)
		}
		scale := f.Scale()
		hi, lo := f.Dequantize(f.Quantize(math.Inf(1))), f.Dequantize(f.Quantize(math.Inf(-1))) // the format's extremes
		src := []float32{
			0, float32(math.Copysign(0, -1)),
			float32(0.5 / scale), float32(-0.5 / scale), // exact .5 raws
			float32(1.5 / scale), float32(-1.5 / scale),
			float32(hi), float32(lo),
			float32(hi * 2), float32(lo * 2), // saturate
			float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
			math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
			math.MaxFloat32, -math.MaxFloat32,
		}
		for i := 0; i < 1000; i++ {
			mag := math.Ldexp(rng.Float64()*2-1, rng.Intn(80)-40)
			src = append(src, float32(mag))
		}
		if f.Bits == 16 {
			quantizeIdentity[int16](t, f, src)
		} else {
			quantizeIdentity[int32](t, f, src)
		}
	}
}

// TestQuantizeRowLengths covers every run length around the vector width,
// so each partial final vector (the AVX-512 loop's masked tail) meets the
// reference, with a NaN and both saturations inside the run.
func TestQuantizeRowLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 0; n <= 33; n++ {
		src := make([]float32, n)
		for i := range src {
			src[i] = float32(rng.Float64()*4 - 2)
		}
		if n > 3 {
			src[1], src[2], src[3] = float32(math.NaN()), 1e9, -1e9
		}
		quantizeIdentity[int16](t, fixedpoint.Fixed16, src)
		quantizeIdentity[int32](t, fixedpoint.Fixed32, src)
	}
}

// TestUnitFloatsBitIdentity holds UnitFloats to its reference over the
// draws where the conversions round (around every power of two the 63-bit
// value crosses, the top of the range, the high bit that is not part of
// it) and random ones, at every length to 33 and several scales.
func TestUnitFloatsBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	draws := []uint64{0, 1, 1<<63 - 1, 1 << 63, 1<<64 - 1, 1<<63 - 1<<38 - 1<<9, 1<<63 - 1<<38 - 1<<9 - 1}
	for e := 0; e < 63; e++ {
		for _, d := range []int64{-1, 0, 1} {
			draws = append(draws, uint64(int64(1)<<e+d), uint64(int64(1)<<e+d)|1<<63)
		}
	}
	for len(draws) < 2000 {
		draws = append(draws, rng.Uint64())
	}
	for _, scale := range []float32{1, 0.1, 0.03125, -3} {
		want := make([]float32, len(draws))
		got := make([]float32, len(draws))
		UnitFloatsRef(draws, scale, want)
		UnitFloats(draws, scale, got)
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("scale %v: draw %#x -> %v, reference %v", scale, draws[i], got[i], want[i])
			}
		}
		for n := 0; n <= 33; n++ {
			out := make([]float32, n+1)
			out[n] = 42 // past the run: must survive
			UnitFloats(draws[:n], scale, out)
			for i := 0; i < n; i++ {
				if math.Float32bits(out[i]) != math.Float32bits(want[i]) {
					t.Fatalf("scale %v length %d: element %d = %v, want %v", scale, n, i, out[i], want[i])
				}
			}
			if out[n] != 42 {
				t.Fatalf("length %d: wrote past the run", n)
			}
		}
	}
}

// TestQuantizeRowEmpty ensures the kernels accept zero-length rows.
func TestQuantizeRowEmpty(t *testing.T) {
	q := NewQuantizer(fixedpoint.Fixed16)
	QuantizeRow[int16](&q, nil, nil)
	QuantizeRowRef[int16](fixedpoint.Fixed16, nil, nil)
}

// TestPrefetchHints exercises the hint path (crash-freedom is the contract:
// prefetch must tolerate any resident span and a nil row).
func TestPrefetchHints(t *testing.T) {
	PrefetchRow[float32](nil)
	row := make([]float32, 33) // spans 3 cache lines
	PrefetchRow(row)
	PrefetchRows[float32](nil, 4, []int64{0})
	PrefetchRows(make([]int16, 64), 12, []int64{0, 4})
	PrefetchRows(row, 11, nil)
	PrefetchRows(row, 11, []int64{0, 2, 1})
}

// linesOf returns the cache lines the n bytes at p touch, first to last.
func linesOf(p unsafe.Pointer, n int) []uintptr {
	var lines []uintptr
	first := uintptr(p) &^ (cacheLineBytes - 1)
	last := (uintptr(p) + uintptr(n) - 1) &^ (cacheLineBytes - 1)
	for a := first; a <= last; a += cacheLineBytes {
		lines = append(lines, a)
	}
	return lines
}

// lineAlignedFloats returns a float32 slice whose first element starts a
// cache line, so tests can place a row at a chosen offset within a line.
func lineAlignedFloats(n int) []float32 {
	buf := make([]float32, n+cacheLineBytes/4)
	skip := (cacheLineBytes - uintptr(unsafe.Pointer(&buf[0]))%cacheLineBytes) % cacheLineBytes / 4
	return buf[skip : int(skip)+n]
}

// TestPrefetchRowHintsEveryLine swaps the line hint for a recorder and checks,
// for every (offset within a line, row length) pair, that each cache line
// between the row's first and last byte is hinted exactly once — including
// the line that holds only the tail of a row that does not start on a line
// boundary, which a walk in 64-byte steps from the row's start misses.
func TestPrefetchRowHintsEveryLine(t *testing.T) {
	var hinted []uintptr
	saved := prefetchLine
	prefetchLine = func(p unsafe.Pointer) { hinted = append(hinted, uintptr(p)&^(cacheLineBytes-1)) }
	defer func() { prefetchLine = saved }()

	buf := lineAlignedFloats(16 + 80)
	for off := 0; off < 16; off++ { // float offset within the line: bytes 0, 4, ..., 60
		for n := 1; n <= 80; n++ {
			row := buf[off : off+n]
			hinted = hinted[:0]
			PrefetchRow(row)
			if want := linesOf(unsafe.Pointer(&row[0]), 4*n); !slices.Equal(hinted, want) {
				t.Fatalf("row at byte offset %d, %d floats: hinted lines %x, want %x", 4*off, n, hinted, want)
			}
		}
	}
}

// TestFeaturesNonEmpty pins the Features contract: a non-empty string that
// is "portable" exactly when no optimized path was installed.
func TestFeaturesNonEmpty(t *testing.T) {
	s := Features()
	if s == "" {
		t.Fatal("Features() empty")
	}
	if (len(featureTags) == 0) != (s == "portable") {
		t.Fatalf("Features() = %q with tags %v", s, featureTags)
	}
	t.Logf("kernel features: %s", s)
}
