//go:build amd64 && !noasm

package kernels

func init() {
	if hasAVX2() {
		Gemm16 = gemm16AVX2
		Gemm32 = gemm32AVX2
		featureTags = append(featureTags, "avx2-vpmaddwd16", "avx2-vpmuldq32")
	}
	// The prefetch stub is plain SSE (PREFETCHNTA), available on every
	// amd64; see prefetch_amd64.go.
	prefetchLine = prefetchNT
	featureTags = append(featureTags, "prefetch-nt")
}

// cpuid executes CPUID with the given leaf and subleaf; implemented in
// kernels_amd64.s.
func cpuid(op, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0 (requires OSXSAVE); implemented in kernels_amd64.s.
func xgetbv() (eax, edx uint32)

// hasAVX2 reports whether the CPU supports AVX2 and the OS preserves the
// YMM state across context switches (OSXSAVE set and XCR0 enabling both
// SSE and AVX state), the standard dance before touching 256-bit registers.
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsaveBit, avxBit = 1 << 27, 1 << 28
	if ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	if xcr0&6 != 6 { // XMM and YMM state both OS-managed
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2Bit = 1 << 5
	return ebx7&avx2Bit != 0
}

// dot4x16 is the 16-bit inner kernel (kernels_amd64.s): four dot products of
// the activation row at x against the four consecutive weight rows starting
// at w (pitch elements apart), over blocks*Lane elements (blocks > 0),
// written to acc[0..3]. VPMADDWD multiplies sixteen int16 pairs and sums
// adjacent products into eight int32 lanes; each row keeps one int32
// accumulator vector, which is sign-extended and added into that row's int64
// lanes every cadence blocks (1 <= cadence) and once at the end. The caller
// guarantees an int32 lane cannot overflow within cadence blocks.
//
//go:noescape
func dot4x16(x, w *int16, pitch, blocks, cadence int, acc *int64)

// dot4x32 is the 32-bit inner kernel (kernels_amd64.s): the same four dot
// products over int32 rows. VPMULDQ gives the exact signed 32x32->64 product
// of the even elements of eight; the odd elements come from a second,
// odd-to-even-duplicating load (VMOVSHDUP) of the same addresses. Eight
// int64 accumulator vectors — even and odd per row — are reduced at the end;
// int64 lane sums commute exactly, so the reduction is bit-identical to the
// scalar ascending-i sum even under wraparound.
//
//go:noescape
func dot4x32(x, w *int32, pitch, blocks int, acc *int64)

// gemm16AVX2 is the 16-bit batch GEMM: the same column-blocked walk as
// GemmRef (so a weight block stays cache-resident across the batch), one
// query row at a time — every row count takes this loop, there is no
// multi-row fast path for a ragged batch to fall off — with each group of
// four outputs handed to the VPMADDWD kernel over the whole padded row.
//
//microrec:noalloc
func gemm16AVX2(X []int16, Acc []int64, b, stride int, w *Weights[int16]) {
	if w.madd == 0 {
		GemmRef(X, Acc, b, stride, w)
		return
	}
	if b == 0 {
		return
	}
	// The assembly is unchecked: prove the last row it touches is in range.
	_, _ = X[(b-1)*stride+w.InP-1], Acc[(b-1)*stride+w.OutP-1]
	blocks := w.InP / Lane
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

// gemm32AVX2 is the 32-bit batch GEMM: gemm16AVX2's walk over the VPMULDQ
// kernel. int64 accumulation needs no cadence.
//
//microrec:noalloc
func gemm32AVX2(X []int32, Acc []int64, b, stride int, w *Weights[int32]) {
	if b == 0 {
		return
	}
	_, _ = X[(b-1)*stride+w.InP-1], Acc[(b-1)*stride+w.OutP-1]
	blocks := w.InP / 8
	for j0 := 0; j0 < w.OutP; j0 += gemmColBlock {
		j1 := min(j0+gemmColBlock, w.OutP)
		for qi := 0; qi < b; qi++ {
			x := &X[qi*stride]
			for j := j0; j < j1; j += outGroup {
				dot4x32(x, &w.WT[j*w.InP], w.InP, blocks, &Acc[qi*stride+j])
			}
		}
	}
}
