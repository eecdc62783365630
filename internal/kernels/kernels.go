// Package kernels holds the innermost loops of the serving datapath — the
// fixed-point batch GEMM, the embedding row-quantize, and software prefetch —
// as a portable pure-Go reference plus build-tagged optimized paths (AVX2 and
// AVX-512 VNNI assembly on amd64, selected by CPUID at init, and a batched
// pure-Go quantize).
//
// The datapath is width-native: activation planes and FC weights are stored
// at the fixed-point format's width — int16 for a 16-bit format, int32 for a
// 32-bit one — and everything here is generic over that element type. The
// paper evaluates its 16- and 32-bit datapaths as different hardware; so does
// this package: the 16-bit GEMM multiplies int16 pairs into int32 partial
// sums (VPDPWSSD, 32 MACs per instruction, or VPMADDWD, 16), the 32-bit GEMM
// converts both operands to float64 and runs on the FMA pipe (VFMADD231PD, 8
// MACs per zmm instruction, 4 per ymm) in chunks short enough that every
// partial sum is an exact integer, and a 16-bit model streams a quarter of
// the bytes a one-size-fits-all int64 layout would.
//
// The paper's thesis is that recommendation inference is bounded by data
// movement, not FLOPs, so the inner loops must be shaped for the hardware:
// wide lanes for the GEMM inner product, one precomputed scale per engine
// instead of a per-element quantize call, and a window of row fetches started
// before any of them is read.
//
// Bit-identity is the contract, not an aspiration: every optimized kernel
// must produce the exact int64 accumulators of the portable reference
// (property tests run both side by side). It holds because int64 addition
// is associative and commutative even under wraparound, so any regrouping of
// exact partial sums gives the reference's sum. For the 16-bit GEMM the int32
// partial sums are widened into int64 lanes before they can overflow — the
// cadence is derived from the layer's largest weight when the layer is packed
// (Weights.madd). For the 32-bit GEMM the float64 partial sums are converted
// to int64 before they can leave the range where float64 holds every integer
// — the chunk length is derived the same way (Weights.fma). For the quantize
// it holds because scaling by a power of two is exact in float64 and the bias
// trick reproduces round-half-to-even exactly inside the format's range.
//
// Building with the `noasm` tag forces the reference path everywhere (a CI
// leg keeps that fallback working); Features reports which path is live so
// recorded numbers are attributable to the ISA that produced them.
package kernels

import (
	"math"
	"strings"
	"unsafe"

	"microrec/internal/fixedpoint"
)

// Elem is the storage type of one activation or weight: the fixed-point
// format's width.
type Elem = fixedpoint.Raw

// Lane is the element count every stored row is padded to: one 512-bit
// vector of int16 (the widest step any kernel takes). Plane strides and a
// layer's stored input length are multiples of Lane, so no kernel has an
// element remainder loop.
const Lane = 32

// maddStep is the shortest step a 16-bit kernel takes per multiply-add
// instruction: one 256-bit vector of int16. The 512-bit kernel's step is
// Lane. Either way one step adds two products to every int32 lane, so one
// cadence (counted in steps) serves both.
const maddStep = 16

// outGroup is the number of outputs one 16-bit inner-kernel call produces; a
// 16-bit layer's stored output count is padded to it with all-zero weight
// rows.
const outGroup = 4

// panelWidth is the output count of one stored 32-bit weight panel: one row
// of 32 int32, which the FMA kernels convert into four vectors of eight
// float64 (one zmm each). A 32-bit layer's stored output count is padded to
// it with all-zero weights.
const panelWidth = 32

// RoundUp rounds n up to a multiple of Lane.
func RoundUp(n int) int { return (n + Lane - 1) &^ (Lane - 1) }

// Weights is one FC layer laid out for the GEMM kernels, at the format's
// width and zero-padded to InP x OutP, in panels of P consecutive outputs:
// weight (i, j) — input i to output j — is
//
//	WT[(j/P)*InP*P + i*P + j%P]
//
// so a panel is InP rows of P weights, one row per input. A 16-bit layer has
// P = 1, which is the transposed layout (one contiguous row per output, so
// the dot-product kernels read every weight sequentially); a 32-bit layer
// has P = panelWidth, so the outer-product kernels read one panel row per
// input step. A zero weight annihilates whatever stale value sits in an
// activation row's padding lanes, so the kernels run whole vectors over the
// padded shape and the result is the sum over the logical shape.
type Weights[T Elem] struct {
	In, Out   int // logical shape
	InP, OutP int // stored shape: In rounded up to Lane, Out to max(outGroup, P)
	WT        []T
	panel     int // P, the outputs per panel: 1 at 16 bits, panelWidth at 32
	// madd is the 16-bit kernels' widening cadence: how many multiply-add
	// steps (VPMADDWD+VPADDD, or VPDPWSSD) one int32 lane may absorb before
	// it must be sign-extended into int64 (see maddCadence). Zero sends the
	// layer through the reference kernel.
	madd int
	// fma is the 32-bit kernels' chunk length L: how many input steps one
	// float64 accumulator may absorb before it must be converted into int64
	// (see fmaChunk). Zero sends the layer through the reference kernel.
	fma int
}

// at is the index in WT of the weight from input i to output j.
func (w *Weights[T]) at(i, j int) int {
	return (j/w.panel)*w.InP*w.panel + i*w.panel + j%w.panel
}

// col returns WT from output j's first weight on: input i's is
// col(j)[i*w.panel].
func (w *Weights[T]) col(j int) []T { return w.WT[w.at(0, j):] }

// Pack lays out one layer. at(i, j) is the raw weight from input i to
// output j.
func Pack[T Elem](in, out int, at func(i, j int) T) Weights[T] {
	w := Weights[T]{In: in, Out: out, InP: RoundUp(in), panel: 1}
	if unsafe.Sizeof(T(0)) == 4 {
		w.panel = panelWidth
	}
	group := max(outGroup, w.panel)
	w.OutP = (out + group - 1) / group * group
	w.WT = make([]T, w.OutP*w.InP)
	var maxAbs int64
	for j := 0; j < out; j++ {
		col := w.col(j)
		for i := 0; i < in; i++ {
			v := at(i, j)
			col[i*w.panel] = v
			if a := int64(v); a > maxAbs {
				maxAbs = a
			} else if -a > maxAbs {
				maxAbs = -a
			}
		}
	}
	if w.panel == 1 {
		w.madd = maddCadence(maxAbs, w.InP/maddStep)
	} else {
		w.fma = fmaChunk(maxAbs, w.InP)
	}
	return w
}

// maddCadence returns how many consecutive multiply-add steps an int32 lane
// can accumulate exactly for a layer whose largest weight magnitude is
// maxAbs, capped at blocks (the most steps any kernel takes over one dot
// product).
//
// One step adds x0*w0 + x1*w1 to a lane — VPMADDWD forms the pair sum and
// VPADDD adds it, the non-saturating VPDPWSSD does both at once — with
// |x| <= 2^15 (any int16, including stale padding) and |w| <= maxAbs, so the
// addend's magnitude is at most 2^16*maxAbs; K of them sum to at most
// K*2^16*maxAbs, which fits an int32 while K <= (2^31-1) / (2^16*maxAbs). A
// weight saturated at -32768 gives K = 0: a single step can then wrap
// (-32768*-32768 twice is 2^31), and the layer takes the reference kernel
// instead.
func maddCadence(maxAbs int64, blocks int) int {
	if maxAbs == 0 {
		return blocks
	}
	k := math.MaxInt32 / (maxAbs << 16)
	if k > int64(blocks) {
		return blocks
	}
	return int(k)
}

// fmaChunk returns how many consecutive input steps a float64 accumulator
// can absorb exactly for a 32-bit layer whose largest weight magnitude is
// maxAbs, capped at steps (the stored input length).
//
// One step adds x*w to an accumulator with |x| <= 2^31 (any int32, including
// stale padding) and |w| <= maxAbs, so after L steps every partial sum is an
// integer of magnitude at most L*2^31*maxAbs. float64 holds every integer up
// to 2^53, and a fused multiply-add rounds only its exact result, so the
// whole chunk is exact while L <= 2^22 / maxAbs. A weight above 2^22 in
// magnitude gives L = 0, and the layer takes the reference kernel instead.
func fmaChunk(maxAbs int64, steps int) int {
	if maxAbs == 0 {
		return steps
	}
	return int(min(1<<22/maxAbs, int64(steps)))
}

// GemmRef is the portable reference GEMM and the semantic definition of the
// operation: for every query row q < b and output j < w.Out,
//
//	Acc[q*stride+j] = sum over i < w.In of X[q*stride+i] * weight(i, j)
//
// accumulated exactly in int64 (wrapping addition, which stays associative),
// with weight(i, j) = w.WT[w.at(i, j)]. X and Acc are flat with a shared row
// stride >= max(w.InP, w.OutP), so the same buffers serve every layer. It
// reads only the logical shape; the optimized kernels read the padded one and
// must agree because the padding weights are zero. Columns w.Out..w.OutP of
// Acc are unspecified. F is scratch for the kernels that read activations as
// float64 (the 32-bit ones): at least (b-1)*stride + w.InP elements when T is
// int32. GemmRef does not touch it.
//
// The loop nest is column-blocked so each cache-resident group of weights is
// reused by all b queries, and register-blocked (4 queries x 2 outputs) to
// amortize weight loads.
//
//microrec:noalloc
func GemmRef[T Elem](X []T, Acc []int64, b, stride int, w *Weights[T], F []float64) {
	in, out, p := w.In, w.Out, w.panel
	for j0 := 0; j0 < out; j0 += gemmColBlock {
		j1 := j0 + gemmColBlock
		if j1 > out {
			j1 = out
		}
		qi := 0
		for ; qi+4 <= b; qi += 4 {
			x0 := X[(qi+0)*stride : (qi+0)*stride+in]
			x1 := X[(qi+1)*stride : (qi+1)*stride+in]
			x2 := X[(qi+2)*stride : (qi+2)*stride+in]
			x3 := X[(qi+3)*stride : (qi+3)*stride+in]
			y0 := Acc[(qi+0)*stride : (qi+0)*stride+out]
			y1 := Acc[(qi+1)*stride : (qi+1)*stride+out]
			y2 := Acc[(qi+2)*stride : (qi+2)*stride+out]
			y3 := Acc[(qi+3)*stride : (qi+3)*stride+out]
			j := j0
			for ; j+2 <= j1; j += 2 {
				var a00, a01, a10, a11, a20, a21, a30, a31 int64
				w0, w1 := w.col(j), w.col(j+1)
				for i := 0; i < in; i++ {
					wa := int64(w0[i*p])
					wb := int64(w1[i*p])
					v0, v1, v2, v3 := int64(x0[i]), int64(x1[i]), int64(x2[i]), int64(x3[i])
					a00 += v0 * wa
					a01 += v0 * wb
					a10 += v1 * wa
					a11 += v1 * wb
					a20 += v2 * wa
					a21 += v2 * wb
					a30 += v3 * wa
					a31 += v3 * wb
				}
				y0[j], y0[j+1] = a00, a01
				y1[j], y1[j+1] = a10, a11
				y2[j], y2[j+1] = a20, a21
				y3[j], y3[j+1] = a30, a31
			}
			for ; j < j1; j++ {
				var a0, a1, a2, a3 int64
				w0 := w.col(j)
				for i := 0; i < in; i++ {
					wa := int64(w0[i*p])
					a0 += int64(x0[i]) * wa
					a1 += int64(x1[i]) * wa
					a2 += int64(x2[i]) * wa
					a3 += int64(x3[i]) * wa
				}
				y0[j], y1[j], y2[j], y3[j] = a0, a1, a2, a3
			}
		}
		for ; qi < b; qi++ {
			xr := X[qi*stride : qi*stride+in]
			yr := Acc[qi*stride : qi*stride+out]
			for j := j0; j < j1; j++ {
				var acc int64
				w0 := w.col(j)
				for i := 0; i < in; i++ {
					acc += int64(xr[i]) * int64(w0[i*p])
				}
				yr[j] = acc
			}
		}
	}
}

// gemmColBlock is the number of output columns processed per weight pass; a
// block of 16 outputs' weights stays cache-resident while every query in the
// batch reuses it. Shared by the reference and the 16-bit wrappers so both
// walk memory in the same order.
const gemmColBlock = 16

// StripRows is the most rows a layer computes at once: a strip's sums are
// finished before the next strip's GEMM starts, so the layer scratch is one
// strip, whatever the batch. A multiple of 12, so the 16-bit VNNI tile (4
// rows) and the 32-bit FMA kernels (6 rows) both divide it; a batch of at
// most StripRows rows is one strip, the whole-batch walk.
const StripRows = 24

// LayerFunc is the FC layer contract LayerRef defines, at one element width.
type LayerFunc[T Elem] func(X []T, b, stride int, w *Weights[T], bias []int64, e *fixedpoint.Epilogue, relu bool, acc []int64, F []float64)

// LayerRef is the portable reference FC layer and the definition of one: it
// leaves X[q*stride+j], for every row q < b and output j < w.Out, the
// fixedpoint.FinishRow of GemmRef's sum (q, j) with bias[j], strip by strip
// (Impl.Run). Columns past w.Out keep stale values. acc (the sums) and F
// (the 32-bit walks' float64 rows) hold min(b, StripRows)*stride elements.
//
//microrec:noalloc
func LayerRef[T Elem](X []T, b, stride int, w *Weights[T], bias []int64, e *fixedpoint.Epilogue, relu bool, acc []int64, F []float64) {
	ref := Impl[T]{gemm: GemmRef[T], finish: fixedpoint.FinishRow[T]}
	ref.Run(X, b, stride, w, bias, e, relu, acc, F)
}

// gemmFunc is the GEMM walk contract GemmRef defines, called with b >= 1.
type gemmFunc[T Elem] func(X []T, Acc []int64, b, stride int, w *Weights[T], F []float64)

// Impl is one named implementation of the layer contract: a GEMM walk
// (GemmRef's contract) paired with the row epilogue that finishes its sums
// (fixedpoint.FinishRow's). The build-tagged init functions register every
// implementation the build contains, runnable on this host or not, so tests
// and benchmarks can drive each one by name, not only the one dispatched.
type Impl[T Elem] struct {
	// Name is the feature tag Features reports while the implementation is
	// dispatched ("ref" reports nothing); Missing names the CPU feature this
	// host lacks to run it, empty when runnable.
	Name, Missing string
	gemm          gemmFunc[T]
	finish        func(e *fixedpoint.Epilogue, acc, bias []int64, relu bool, dst []T)
}

// Run is the layer walk every implementation shares, a LayerFunc. For each
// strip of at most StripRows rows the GEMM walk writes the strip's sums into
// acc, then the epilogue finishes each of the strip's rows back over X. In
// place is safe: the strip's GEMM has read every input column of its rows
// before any of them is finished, and no other strip reads them.
//
//microrec:noalloc
func (m *Impl[T]) Run(X []T, b, stride int, w *Weights[T], bias []int64, e *fixedpoint.Epilogue, relu bool, acc []int64, F []float64) {
	for s := 0; s < b; s += StripRows {
		x := X[s*stride:]
		rows := min(StripRows, b-s)
		m.gemm(x, acc, rows, stride, w, F)
		for r := 0; r < rows; r++ {
			m.finish(e, acc[r*stride:r*stride+w.Out], bias, relu, x[r*stride:])
		}
	}
}

// Implementation tables, one per width, in ascending order of preference:
// dispatch takes the last runnable entry. Appended to by the build-tagged
// init functions and fixed from then on; under the noasm tag only the
// references are ever listed.
var (
	Layer16Impls = []Impl[int16]{{Name: "ref", gemm: GemmRef[int16], finish: fixedpoint.FinishRow[int16]}}
	Layer32Impls = []Impl[int32]{{Name: "ref", gemm: GemmRef[int32], finish: fixedpoint.FinishRow[int32]}}
)

// Layer16 and Layer32 are the active FC layers over int16 and int32 planes
// and weights, assigned once by the build-tagged init functions (under the
// noasm tag none runs and the references stay). An engine binds the one its
// format's Bits picks at Build.
var (
	Layer16 LayerFunc[int16] = LayerRef[int16]
	Layer32 LayerFunc[int32] = LayerRef[int32]
)

// dispatch returns the most preferred runnable implementation in impls and
// records its feature tag.
func dispatch[T Elem](impls []Impl[T]) LayerFunc[T] {
	for i := len(impls) - 1; i > 0; i-- {
		if impls[i].Missing == "" {
			featureTags = append(featureTags, impls[i].Name)
			return impls[i].Run
		}
	}
	return LayerRef[T]
}

// featureTags collects the optimized paths the init functions enabled, in
// registration order; empty means the pure reference path.
var featureTags []string

// Features reports which kernel paths are live, e.g.
// "avx512-vnni16+avx512-fma32+avx512-quantize+avx512-extend+avx512dq-unit+prefetch-t0+batched-quantize"
// on a host with AVX-512 VNNI and DQ,
// "avx2-vpmaddwd16+avx2-fma32+prefetch-t0+batched-quantize" on one with AVX2
// and FMA3 only, or "portable" when every kernel is the reference (the noasm
// build, or a host without the required ISA). Every recorded measurement
// carries this string, so numbers name the path that produced them.
func Features() string {
	if len(featureTags) == 0 {
		return "portable"
	}
	return strings.Join(featureTags, "+")
}
