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

// W2 converts one input step of a quarter weight panel — 8 int32 at (BX),
// one per output — into two vectors of four float64, Y12 and Y13.
#define W2 \
	VCVTDQ2PD (BX), Y12; \
	VCVTDQ2PD 16(BX), Y13

// FROW2(f, a, b) is one activation row's share of a step: its float64 at
// step AX, broadcast, times the two weight vectors, added into a and b.
#define FROW2(f, a, b) \
	VBROADCASTSD (f)(AX*8), Y14; \
	VFMADD231PD  Y12, Y14, a;    \
	VFMADD231PD  Y13, Y14, b

// FLUSH2(a, b) turns one row's two accumulators into int64 — each holds
// 2^52 + 2^51 + v for an integer |v| <= 2^51, whose bit pattern less that
// of 2^52 + 2^51 (Y15) is v — and adds them into its 8 int64 sums at (DI).
#define FLUSH2(a, b) \
	VPSUBQ  Y15, a, a;    \
	VPSUBQ  Y15, b, b;    \
	VPADDQ  (DI), a, a;   \
	VPADDQ  32(DI), b, b; \
	VMOVDQU a, (DI);      \
	VMOVDQU b, 32(DI)

// func fma6x8(f *float64, w *int32, stride, steps, chunk, rows int, acc *int64)
//
// acc[r*stride + o] = sum_i f[r*stride + i] * w[i*32 + o]
// for r in 0..rows (1 <= rows <= 6), o in 0..8, i in 0..steps.
//
// fma6x32 (avx512_amd64.s) on ymm, over a quarter of a weight panel: sixteen
// registers hold six rows of eight outputs. AVX2 has no float64 -> int64
// conversion, so every accumulator starts each chunk at 2^52 + 2^51 instead
// of zero: while the chunk's sum v stays within ±2^51, every partial sum
// lies in [2^52, 2^53], where float64 holds each integer and the low bits
// of the pattern are v plus a constant. chunk must be short enough for that
// (a quarter of fmaChunk's bound).
//
// Register map:
//   Y(2r), Y(2r+1)  float64 sums of row r, outputs 0..7     Y0..Y11
//   Y12, Y13        the step's 8 weights as float64
//   Y14             the step's activation of one row, broadcast
//   Y15             2^52 + 2^51 in every lane
//   scalar registers as in fma6x32
TEXT ·fma6x8(SB), NOSPLIT, $0-56
	MOVQ f+0(FP), R8
	MOVQ w+8(FP), BX
	MOVQ stride+16(FP), DX
	MOVQ steps+24(FP), SI
	MOVQ chunk+32(FP), R15
	MOVQ rows+40(FP), R14

	SHLQ $3, DX              // float64 and int64 rows alike
	LEAQ (R8)(DX*1), R9
	LEAQ (R9)(DX*1), R10
	LEAQ (R10)(DX*1), R11
	LEAQ (R11)(DX*1), R12
	LEAQ (R12)(DX*1), R13

	MOVQ         $0x4338000000000000, AX
	MOVQ         AX, X15
	VPBROADCASTQ X15, Y15
	XORQ         AX, AX

	VPXOR X0, X0, X0
	MOVQ  acc+48(FP), DI
	MOVQ  R14, CX

fzero:
	VMOVDQU Y0, (DI)
	VMOVDQU Y0, 32(DI)
	ADDQ    DX, DI
	DECQ    CX
	JNZ     fzero

fchunk:
	MOVQ    R15, CX          // this chunk: min(chunk, remaining) steps
	CMPQ    SI, CX
	CMOVQLT SI, CX
	SUBQ    CX, SI
	VMOVDQA Y15, Y0
	VMOVDQA Y15, Y1
	VMOVDQA Y15, Y2
	VMOVDQA Y15, Y3
	VMOVDQA Y15, Y4
	VMOVDQA Y15, Y5
	VMOVDQA Y15, Y6
	VMOVDQA Y15, Y7
	VMOVDQA Y15, Y8
	VMOVDQA Y15, Y9
	VMOVDQA Y15, Y10
	VMOVDQA Y15, Y11
	CMPQ    R14, $6
	JEQ     floop6
	CMPQ    R14, $5
	JEQ     floop5
	CMPQ    R14, $4
	JEQ     floop4
	CMPQ    R14, $3
	JEQ     floop3
	CMPQ    R14, $2
	JEQ     floop2
	JMP     floop1

floop6:
	W2
	FROW2(R8, Y0, Y1)
	FROW2(R9, Y2, Y3)
	FROW2(R10, Y4, Y5)
	FROW2(R11, Y6, Y7)
	FROW2(R12, Y8, Y9)
	FROW2(R13, Y10, Y11)
	ADDQ $128, BX
	INCQ AX
	DECQ CX
	JNZ  floop6
	JMP  fflush

floop5:
	W2
	FROW2(R8, Y0, Y1)
	FROW2(R9, Y2, Y3)
	FROW2(R10, Y4, Y5)
	FROW2(R11, Y6, Y7)
	FROW2(R12, Y8, Y9)
	ADDQ $128, BX
	INCQ AX
	DECQ CX
	JNZ  floop5
	JMP  fflush

floop4:
	W2
	FROW2(R8, Y0, Y1)
	FROW2(R9, Y2, Y3)
	FROW2(R10, Y4, Y5)
	FROW2(R11, Y6, Y7)
	ADDQ $128, BX
	INCQ AX
	DECQ CX
	JNZ  floop4
	JMP  fflush

floop3:
	W2
	FROW2(R8, Y0, Y1)
	FROW2(R9, Y2, Y3)
	FROW2(R10, Y4, Y5)
	ADDQ $128, BX
	INCQ AX
	DECQ CX
	JNZ  floop3
	JMP  fflush

floop2:
	W2
	FROW2(R8, Y0, Y1)
	FROW2(R9, Y2, Y3)
	ADDQ $128, BX
	INCQ AX
	DECQ CX
	JNZ  floop2
	JMP  fflush

floop1:
	W2
	FROW2(R8, Y0, Y1)
	ADDQ $128, BX
	INCQ AX
	DECQ CX
	JNZ  floop1

fflush:
	MOVQ acc+48(FP), DI
	FLUSH2(Y0, Y1)
	CMPQ R14, $2
	JLT  fnext
	ADDQ DX, DI
	FLUSH2(Y2, Y3)
	CMPQ R14, $3
	JLT  fnext
	ADDQ DX, DI
	FLUSH2(Y4, Y5)
	CMPQ R14, $4
	JLT  fnext
	ADDQ DX, DI
	FLUSH2(Y6, Y7)
	CMPQ R14, $5
	JLT  fnext
	ADDQ DX, DI
	FLUSH2(Y8, Y9)
	CMPQ R14, $6
	JLT  fnext
	ADDQ DX, DI
	FLUSH2(Y10, Y11)

fnext:
	TESTQ SI, SI
	JNZ   fchunk

	VZEROUPPER
	RET

// func toFloat64(x *int32, f *float64, rows, stride, n int)
//
// f[r*stride + i] = float64(x[r*stride + i]) for r in 0..rows, i in 0..n,
// n a multiple of 8 (exact: every int32 is a float64).
TEXT ·toFloat64(SB), NOSPLIT, $0-40
	MOVQ x+0(FP), SI
	MOVQ f+8(FP), DI
	MOVQ rows+16(FP), R8
	MOVQ stride+24(FP), R9
	MOVQ n+32(FP), R10

cvtrow:
	XORQ AX, AX

cvtloop:
	VCVTDQ2PD (SI)(AX*4), Y0
	VCVTDQ2PD 16(SI)(AX*4), Y1
	VMOVUPD   Y0, (DI)(AX*8)
	VMOVUPD   Y1, 32(DI)(AX*8)
	ADDQ      $8, AX
	CMPQ      AX, R10
	JLT       cvtloop

	LEAQ (SI)(R9*4), SI
	LEAQ (DI)(R9*8), DI
	DECQ R8
	JNZ  cvtrow

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
