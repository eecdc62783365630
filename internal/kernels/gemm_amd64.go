//go:build amd64 && !noasm

package kernels

import "microrec/internal/fixedpoint"

func init() {
	cpu := cpuFeatures()
	var noAVX2, noFMA, noAVX512, noAVX512DQ string
	if !cpu.avx2 {
		noAVX2 = "AVX2 with OS-enabled ymm state"
	}
	if !cpu.avx2 || !cpu.fma {
		noFMA = "AVX2+FMA3 with OS-enabled ymm state"
	}
	if !cpu.avx512vnni {
		noAVX512 = "AVX512F+BW+VL+VNNI with OS-enabled opmask and zmm state"
	}
	if !cpu.avx512dq {
		noAVX512DQ = "AVX512F+BW+VL+VNNI+DQ with OS-enabled opmask and zmm state"
	}
	Layer16Impls = append(Layer16Impls,
		Impl[int16]{"avx2-vpmaddwd16", noAVX2, gemm16AVX2, fixedpoint.FinishRow[int16]},
		Impl[int16]{"avx512-vnni16", noAVX512, gemm16VNNI, finishRow16AVX512})
	Layer32Impls = append(Layer32Impls,
		Impl[int32]{"avx2-fma32", noFMA, gemm32AVX2, fixedpoint.FinishRow[int32]},
		Impl[int32]{"avx512-fma32", noAVX512DQ, gemm32AVX512, finishRow32AVX512})
	Layer16 = dispatch(Layer16Impls)
	Layer32 = dispatch(Layer32Impls)
	if cpu.avx512vnni {
		quantizeVec16, quantizeVec32 = quantize8x16, quantize8x32
		extendVec = extend8
		featureTags = append(featureTags, "avx512-quantize", "avx512-extend")
	}
	if cpu.avx512vnni && cpu.avx512dq {
		unitVec = unit8
		featureTags = append(featureTags, "avx512dq-unit")
	}
	// The prefetch hints are plain SSE (PREFETCHT0), available on every
	// amd64; see prefetch_amd64.go.
	featureTags = append(featureTags, "prefetch-t0")
}

// cpuid executes CPUID with the given leaf and subleaf; implemented in
// kernels_amd64.s.
func cpuid(op, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0 (requires OSXSAVE); implemented in kernels_amd64.s.
func xgetbv() (eax, edx uint32)

// cpuFeatureSet is what the assembly paths need from the host, read once at
// init.
type cpuFeatureSet struct {
	// avx2: the CPU supports AVX2 and the OS preserves the YMM state across
	// context switches (OSXSAVE set, XCR0 enabling both SSE and AVX state) —
	// the standard dance before touching 256-bit registers.
	avx2 bool
	// fma: the CPU supports FMA3 (the float64 fused multiply-add; it uses
	// the same ymm state as AVX2).
	fma bool
	// avx512vnni: additionally AVX512F, BW, VL and VNNI, with the opmask and
	// both halves of the ZMM state (ZMM0-15 upper halves, ZMM16-31) enabled
	// in XCR0 — the same dance for 512-bit registers.
	avx512vnni bool
	// avx512dq: additionally AVX512DQ (the conversions between int64 and
	// float64).
	avx512dq bool
}

func cpuFeatures() (f cpuFeatureSet) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return f
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const fmaBit, osxsaveBit, avxBit = 1 << 12, 1 << 27, 1 << 28
	if ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return f
	}
	xcr0, _ := xgetbv()
	if xcr0&0x06 != 0x06 { // XMM and YMM state both OS-managed
		return f
	}
	_, ebx7, ecx7, _ := cpuid(7, 0)
	const (
		avx2Bit     = 1 << 5
		avx512Bits  = 1<<16 | 1<<30 | 1<<31 // F, BW, VL
		vnniBit     = 1 << 11
		dqBit       = 1 << 17
		zmmStateSet = 0xE6 // XMM, YMM, opmask, ZMM_Hi256, Hi16_ZMM
	)
	f.avx2 = ebx7&avx2Bit != 0
	f.fma = ecx1&fmaBit != 0
	f.avx512vnni = f.avx2 && xcr0&zmmStateSet == zmmStateSet &&
		ebx7&avx512Bits == avx512Bits && ecx7&vnniBit != 0
	f.avx512dq = f.avx512vnni && ebx7&dqBit != 0
	return f
}

// dot4x16 is the AVX2 16-bit inner kernel (kernels_amd64.s): four dot
// products of the activation row at x against the four consecutive weight
// rows starting at w (pitch elements apart), over blocks*maddStep elements
// (blocks > 0), written to acc[0..3]. VPMADDWD multiplies sixteen int16 pairs
// and sums adjacent products into eight int32 lanes; each row keeps one int32
// accumulator vector, which is sign-extended and added into that row's int64
// lanes every cadence blocks (1 <= cadence) and once at the end. The caller
// guarantees an int32 lane cannot overflow within cadence blocks.
//
//go:noescape
func dot4x16(x, w *int16, pitch, blocks, cadence int, acc *int64)

// tile4x16 is the AVX-512 VNNI 16-bit tile kernel (avx512_amd64.s): for the
// four activation rows starting at x (stride elements apart) and the
// 4*groups consecutive weight rows starting at w (pitch elements apart), all
// sixteen-per-group dot products over blocks*Lane elements (blocks > 0),
// written to acc[r*stride+o] for row r and output o. Per group, sixteen zmm
// registers each hold one (row, output) pair's int32 partial sums; one
// VPDPWSSD multiplies thirty-two int16 pairs and adds adjacent products into
// the pair's sixteen lanes, so a step of four weight loads and four
// activation loads feeds sixteen of them. The partial sums are sign-extended
// and reduced to int64 every cadence blocks (1 <= cadence) and once at the
// end. The caller guarantees an int32 lane cannot overflow within cadence
// blocks.
//
//go:noescape
func tile4x16(x, w *int16, stride, pitch, groups, blocks, cadence int, acc *int64)

// row4x16 is tile4x16 for a single activation row (the batch's b mod 4
// remainder): 4*groups dot products written to acc[o]. Each output keeps two
// int32 accumulators, fed by alternate blocks, so eight independent VPDPWSSD
// chains hide the instruction's latency; the pair is summed (still within the
// cadence bound: together they hold what one accumulator would) before it is
// widened.
//
//go:noescape
func row4x16(x, w *int16, pitch, groups, blocks, cadence int, acc *int64)

// fma6x32 is the AVX-512 32-bit kernel (avx512_amd64.s): for the rows
// (1..6) float64 activation rows starting at f and the weight panel at w
// (steps rows of panelWidth int32, one per input), all rows*panelWidth
// sums over steps inputs, written to acc[r*stride+o] for row r and output o.
// Per step the panel row is converted to four zmm of float64 and each
// activation row's value, broadcast, feeds four VFMADD231PD into that row's
// accumulators; every chunk steps (1 <= chunk) and at the end the float64
// sums are converted to int64 and added into acc. The caller guarantees the
// chunk keeps every partial sum an integer of magnitude at most 2^53.
//
//go:noescape
func fma6x32(f *float64, w *int32, stride, steps, chunk, rows int, acc *int64)

// fma6x8 is fma6x32 on AVX2+FMA3 (kernels_amd64.s), over eight consecutive
// outputs of a panel (w points at the first; a step is still panelWidth
// int32 long) and with ymm accumulators, written to acc[r*stride+o] for o <
// 8. Its float64 -> int64 conversion is exact only within ±2^51, so the
// caller's chunk must keep every partial sum inside that.
//
//go:noescape
func fma6x8(f *float64, w *int32, stride, steps, chunk, rows int, acc *int64)

// toFloat64 converts rows rows of n int32 (n a multiple of 8) at x into
// float64 at f, both planes stride elements a row (kernels_amd64.s).
//
//go:noescape
func toFloat64(x *int32, f *float64, rows, stride, n int)

// finish8x16 and finish8x32 are the AVX-512 row epilogue (avx512_amd64.s):
// fixedpoint.FinishRow's arithmetic, eight int64 lanes per step, over n
// accumulators (a final partial vector is masked), narrowed into int16 or
// int32. floor is the lower clamp after the bias: lo, or 0 under ReLU.
//
//go:noescape
func finish8x16(acc, bias *int64, dst *int16, n int, shift uint64, half, hi, lo, floor int64)

//go:noescape
func extend8(buf *uint64, n int) (skips int)

//go:noescape
func unit8(draws *uint64, dst *float32, n int, scale float32)

//go:noescape
func quantize8x16(src *float32, dst *int16, n int, scale, hi, lo float64)

//go:noescape
func quantize8x32(src *float32, dst *int32, n int, scale, hi, lo float64)

//go:noescape
func finish8x32(acc, bias *int64, dst *int32, n int, shift uint64, half, hi, lo, floor int64)

// gemm16AVX2 is the 16-bit batch GEMM: the same column-blocked walk as
// GemmRef (so a weight block stays cache-resident across the batch), one
// query row at a time — every row count takes this loop, there is no
// multi-row fast path for a ragged batch to fall off — with each group of
// four outputs handed to the VPMADDWD kernel over the whole padded row.
//
//microrec:noalloc
func gemm16AVX2(X []int16, Acc []int64, b, stride int, w *Weights[int16], F []float64) {
	if w.madd == 0 {
		GemmRef(X, Acc, b, stride, w, F)
		return
	}
	// The assembly is unchecked: prove the last row it touches is in range.
	_, _ = X[(b-1)*stride+w.InP-1], Acc[(b-1)*stride+w.OutP-1]
	blocks := w.InP / maddStep
	for j0 := 0; j0 < w.OutP; j0 += gemmColBlock {
		j1 := min(j0+gemmColBlock, w.OutP)
		for qi := 0; qi < b; qi++ {
			x := &X[qi*stride]
			for j := j0; j < j1; j += outGroup {
				dot4x16(x, &w.WT[j*w.InP], w.InP, blocks, w.madd, &Acc[qi*stride+j])
			}
		}
	}
}

// gemm16VNNI is the 16-bit batch GEMM on AVX-512 VNNI: GemmRef's
// column-blocked walk, four query rows at a time through the register tile —
// each weight vector loaded once per four rows, each activation vector once
// per four outputs — and the b mod 4 remainder rows one at a time through
// the single-row form, so a ragged batch costs its remainder rows the tile's
// reuse and nothing else.
//
//microrec:noalloc
func gemm16VNNI(X []int16, Acc []int64, b, stride int, w *Weights[int16], F []float64) {
	if w.madd == 0 {
		GemmRef(X, Acc, b, stride, w, F)
		return
	}
	// The assembly is unchecked: prove the last row it touches is in range.
	_, _ = X[(b-1)*stride+w.InP-1], Acc[(b-1)*stride+w.OutP-1]
	blocks := w.InP / Lane
	for j0 := 0; j0 < w.OutP; j0 += gemmColBlock {
		groups := (min(j0+gemmColBlock, w.OutP) - j0) / outGroup
		wt := &w.WT[j0*w.InP]
		qi := 0
		for ; qi+4 <= b; qi += 4 {
			tile4x16(&X[qi*stride], wt, stride, w.InP, groups, blocks, w.madd, &Acc[qi*stride+j0])
		}
		for ; qi < b; qi++ {
			row4x16(&X[qi*stride], wt, w.InP, groups, blocks, w.madd, &Acc[qi*stride+j0])
		}
	}
}

// fmaRows is the most activation rows one 32-bit FMA kernel call takes.
const fmaRows = 6

// gemm32AVX512 is the 32-bit batch GEMM on AVX-512: the activation rows are
// converted to float64 once, into F, then each weight panel — cache-resident
// while the whole batch reuses it — is run against six rows at a time
// through the FMA kernel, the b mod 6 remainder through the same kernel with
// fewer rows.
//
//microrec:noalloc
func gemm32AVX512(X []int32, Acc []int64, b, stride int, w *Weights[int32], F []float64) {
	if w.fma == 0 {
		GemmRef(X, Acc, b, stride, w, F)
		return
	}
	// The assembly is unchecked: prove the last row it touches is in range.
	_, _, _ = X[(b-1)*stride+w.InP-1], F[(b-1)*stride+w.InP-1], Acc[(b-1)*stride+w.OutP-1]
	toFloat64(&X[0], &F[0], b, stride, w.InP)
	for j := 0; j < w.OutP; j += panelWidth {
		panel := &w.WT[w.at(0, j)]
		for qi := 0; qi < b; qi += fmaRows {
			fma6x32(&F[qi*stride], panel, stride, w.InP, w.fma, min(fmaRows, b-qi), &Acc[qi*stride+j])
		}
	}
}

// gemm32AVX2 is gemm32AVX512's walk on AVX2+FMA3, each panel a quarter at a
// time (sixteen ymm registers hold six rows of eight outputs), in chunks of
// a quarter of the layer's chunk length: the AVX2 conversion back to int64
// is exact only within ±2^51, a quarter of the 2^53 the chunk length is
// derived for. A layer whose chunk length is below four takes the
// reference.
//
//microrec:noalloc
func gemm32AVX2(X []int32, Acc []int64, b, stride int, w *Weights[int32], F []float64) {
	chunk := w.fma / 4
	if chunk == 0 {
		GemmRef(X, Acc, b, stride, w, F)
		return
	}
	_, _, _ = X[(b-1)*stride+w.InP-1], F[(b-1)*stride+w.InP-1], Acc[(b-1)*stride+w.OutP-1]
	toFloat64(&X[0], &F[0], b, stride, w.InP)
	for j := 0; j < w.OutP; j += 8 {
		quarter := &w.WT[w.at(0, j)]
		for qi := 0; qi < b; qi += fmaRows {
			fma6x8(&F[qi*stride], quarter, stride, w.InP, chunk, min(fmaRows, b-qi), &Acc[qi*stride+j])
		}
	}
}

// finishRow16AVX512 is fixedpoint.FinishRow[int16] on AVX-512.
//
//microrec:noalloc
func finishRow16AVX512(e *fixedpoint.Epilogue, acc, bias []int64, relu bool, dst []int16) {
	if len(acc) == 0 {
		return
	}
	// The assembly is unchecked: prove bias and dst cover every accumulator.
	_, _ = bias[len(acc)-1], dst[len(acc)-1]
	finish8x16(&acc[0], &bias[0], &dst[0], len(acc), uint64(e.Shift), e.Half, e.Max, e.Min, e.Floor(relu))
}

// finishRow32AVX512 is fixedpoint.FinishRow[int32] on AVX-512.
//
//microrec:noalloc
func finishRow32AVX512(e *fixedpoint.Epilogue, acc, bias []int64, relu bool, dst []int32) {
	if len(acc) == 0 {
		return
	}
	_, _ = bias[len(acc)-1], dst[len(acc)-1]
	finish8x32(&acc[0], &bias[0], &dst[0], len(acc), uint64(e.Shift), e.Half, e.Max, e.Min, e.Floor(relu))
}
