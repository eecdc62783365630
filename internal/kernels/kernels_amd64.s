//go:build amd64 && !noasm

#include "textflag.h"

// REDUCE4 sums the four int64 lanes of each of Y4..Y7 and stores the four
// totals to (R8): unpack-and-add pairs rows (0,1) and (2,3) down to two lanes
// each, then the 128-bit halves are regrouped so one add finishes all four.
#define REDUCE4 \
	VPUNPCKLQDQ Y5, Y4, Y8;  \
	VPUNPCKHQDQ Y5, Y4, Y9;  \
	VPADDQ      Y9, Y8, Y8;  \
	VPUNPCKLQDQ Y7, Y6, Y10; \
	VPUNPCKHQDQ Y7, Y6, Y11; \
	VPADDQ      Y11, Y10, Y10; \
	VPERM2I128  $0x20, Y10, Y8, Y12; \
	VPERM2I128  $0x31, Y10, Y8, Y13; \
	VPADDQ      Y13, Y12, Y12; \
	VMOVDQU     Y12, (R8)

// WIDEN sign-extends the eight int32 lanes of src into int64 and adds them
// into the four lanes of dst.
#define WIDEN(src, srcx, dst) \
	VPMOVSXDQ    srcx, Y9;      \
	VEXTRACTI128 $1, src, X10;  \
	VPMOVSXDQ    X10, Y10;      \
	VPADDQ       Y9, dst, dst;  \
	VPADDQ       Y10, dst, dst

// func dot4x16(x, w *int16, pitch, blocks, cadence int, acc *int64)
//
// acc[r] = sum_i x[i] * w[r*pitch + i] for r in 0..3, i in 0..16*blocks.
// Y0..Y3 hold each row's int32 partial sums, Y4..Y7 its int64 sums; the
// partials are widened every cadence blocks, before they can overflow.
TEXT ·dot4x16(SB), NOSPLIT, $0-48
	MOVQ x+0(FP), SI
	MOVQ w+8(FP), R9
	MOVQ pitch+16(FP), DX
	SHLQ $1, DX              // pitch in bytes
	MOVQ blocks+24(FP), CX   // blocks still to do
	MOVQ cadence+32(FP), R13
	MOVQ acc+40(FP), R8

	LEAQ (R9)(DX*1), R10     // weight row 1
	LEAQ (R10)(DX*1), R11    // weight row 2
	LEAQ (R11)(DX*1), R12    // weight row 3
	XORQ AX, AX              // byte offset into every row

	VPXOR X4, X4, X4         // VPXOR on xmm zeroes the ymm
	VPXOR X5, X5, X5
	VPXOR X6, X6, X6
	VPXOR X7, X7, X7

chunk16:
	MOVQ    R13, BX          // this chunk: min(cadence, remaining) blocks
	CMPQ    CX, BX
	CMOVQLT CX, BX
	SUBQ    BX, CX
	VPXOR   X0, X0, X0
	VPXOR   X1, X1, X1
	VPXOR   X2, X2, X2
	VPXOR   X3, X3, X3

loop16:
	VMOVDQU  (SI)(AX*1), Y8
	VPMADDWD (R9)(AX*1), Y8, Y12
	VPMADDWD (R10)(AX*1), Y8, Y13
	VPMADDWD (R11)(AX*1), Y8, Y14
	VPMADDWD (R12)(AX*1), Y8, Y15
	VPADDD   Y12, Y0, Y0
	VPADDD   Y13, Y1, Y1
	VPADDD   Y14, Y2, Y2
	VPADDD   Y15, Y3, Y3
	ADDQ     $32, AX
	DECQ     BX
	JNZ      loop16

	WIDEN(Y0, X0, Y4)
	WIDEN(Y1, X1, Y5)
	WIDEN(Y2, X2, Y6)
	WIDEN(Y3, X3, Y7)
	TESTQ CX, CX
	JNZ   chunk16

	REDUCE4
	VZEROUPPER
	RET

// func dot4x32(x, w *int32, pitch, blocks int, acc *int64)
//
// acc[r] = sum_i x[i] * w[r*pitch + i] for r in 0..3, i in 0..8*blocks.
// VPMULDQ multiplies the low dword of each qword lane, i.e. elements
// 0,2,4,6 of a plain load; VMOVSHDUP loads the same eight elements with the
// odd ones copied down into those positions. Y0..Y7 are the even/odd int64
// accumulators of rows 0..3.
TEXT ·dot4x32(SB), NOSPLIT, $0-40
	MOVQ x+0(FP), SI
	MOVQ w+8(FP), R9
	MOVQ pitch+16(FP), DX
	SHLQ $2, DX              // pitch in bytes
	MOVQ blocks+24(FP), CX
	MOVQ acc+32(FP), R8

	LEAQ (R9)(DX*1), R10
	LEAQ (R10)(DX*1), R11
	LEAQ (R11)(DX*1), R12
	XORQ AX, AX

	VPXOR X0, X0, X0
	VPXOR X1, X1, X1
	VPXOR X2, X2, X2
	VPXOR X3, X3, X3
	VPXOR X4, X4, X4
	VPXOR X5, X5, X5
	VPXOR X6, X6, X6
	VPXOR X7, X7, X7

loop32:
	VMOVDQU   (SI)(AX*1), Y8     // x, even elements in multiply position
	VMOVSHDUP (SI)(AX*1), Y9     // x, odd elements in multiply position

	VMOVSHDUP (R9)(AX*1), Y11
	VPMULDQ   (R9)(AX*1), Y8, Y10
	VPMULDQ   Y11, Y9, Y11
	VPADDQ    Y10, Y0, Y0
	VPADDQ    Y11, Y1, Y1

	VMOVSHDUP (R10)(AX*1), Y13
	VPMULDQ   (R10)(AX*1), Y8, Y12
	VPMULDQ   Y13, Y9, Y13
	VPADDQ    Y12, Y2, Y2
	VPADDQ    Y13, Y3, Y3

	VMOVSHDUP (R11)(AX*1), Y11
	VPMULDQ   (R11)(AX*1), Y8, Y10
	VPMULDQ   Y11, Y9, Y11
	VPADDQ    Y10, Y4, Y4
	VPADDQ    Y11, Y5, Y5

	VMOVSHDUP (R12)(AX*1), Y13
	VPMULDQ   (R12)(AX*1), Y8, Y12
	VPMULDQ   Y13, Y9, Y13
	VPADDQ    Y12, Y6, Y6
	VPADDQ    Y13, Y7, Y7

	ADDQ $32, AX
	DECQ CX
	JNZ  loop32

	// Merge each row's even/odd chains into Y4..Y7 (row 3 first, so no
	// source is overwritten before it is read), then reduce.
	VPADDQ Y7, Y6, Y7
	VPADDQ Y5, Y4, Y6
	VPADDQ Y3, Y2, Y5
	VPADDQ Y1, Y0, Y4
	REDUCE4
	VZEROUPPER
	RET

// func prefetchT0(p unsafe.Pointer)
TEXT ·prefetchT0(SB), NOSPLIT, $0-8
	MOVQ       p+0(FP), AX
	PREFETCHT0 (AX)
	RET

// ROWLINES walks the cache lines of n table rows: for each int64 index at
// (BX), the row starts at SI + index*DX and is DX bytes long; AX steps from
// the line of its first byte to the line of its last (R8), running OP on each.
// Clobbers AX, BX, CX, R8.
#define ROWLINES(OP) \
	TESTQ CX, CX;          \
	JZ    done;            \
row:                       \
	MOVQ  (BX), AX;        \
	IMULQ DX, AX;          \
	ADDQ  SI, AX;          \
	LEAQ  -1(AX)(DX*1), R8; \
	ANDQ  $-64, AX;        \
line:                      \
	OP;                    \
	ADDQ  $64, AX;         \
	CMPQ  AX, R8;          \
	JLS   line;            \
	ADDQ  $8, BX;          \
	DECQ  CX;              \
	JNZ   row;             \
done:

#define HINTLINE  PREFETCHT0 (AX)
#define STORELINE MOVQ AX, (DI); ADDQ $8, DI

// func prefetchRows(base unsafe.Pointer, rowBytes uintptr, rows *int64, n int)
TEXT ·prefetchRows(SB), NOSPLIT, $0-32
	MOVQ base+0(FP), SI
	MOVQ rowBytes+8(FP), DX
	MOVQ rows+16(FP), BX
	MOVQ n+24(FP), CX
	ROWLINES(HINTLINE)
	RET

// func prefetchRowsLines(base unsafe.Pointer, rowBytes uintptr, rows *int64, n int, out *uintptr) int
TEXT ·prefetchRowsLines(SB), NOSPLIT, $0-48
	MOVQ base+0(FP), SI
	MOVQ rowBytes+8(FP), DX
	MOVQ rows+16(FP), BX
	MOVQ n+24(FP), CX
	MOVQ out+32(FP), DI
	MOVQ DI, R9
	ROWLINES(STORELINE)
	SUBQ R9, DI
	SHRQ $3, DI
	MOVQ DI, ret+40(FP)
	RET

// func cpuid(op, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL  op+0(FP), AX
	MOVL  sub+4(FP), CX
	CPUID
	MOVL  AX, eax+8(FP)
	MOVL  BX, ebx+12(FP)
	MOVL  CX, ecx+16(FP)
	MOVL  DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL  CX, CX
	XGETBV
	MOVL  AX, eax+0(FP)
	MOVL  DX, edx+4(FP)
	RET
