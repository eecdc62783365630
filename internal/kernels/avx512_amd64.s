//go:build amd64 && !noasm

#include "textflag.h"
#include "go_asm.h"

// All 512-bit register use in the package lives in the functions below:
// assembly functions are never asynchronously preempted, so no zmm state is
// ever live across a goroutine switch, and each ends in VZEROUPPER so the
// SSE code after it pays no transition penalty.

// ONES sets every int64 lane of Z31 to 1 (all-ones, then a logical shift
// leaves the top bit at the bottom).
#define ONES \
	VPTERNLOGD $0xFF, Z31, Z31, Z31; \
	VPSRLQ     $63, Z31, Z31

// WIDEN turns the sixteen int32 lanes of a into eight int64 lanes, each the
// sum of the two int32 it overlays: the odd element by an arithmetic shift,
// the even element as VPMULDQ's sign-extended low-dword product with 1
// (Z31). t is scratch.
#define WIDEN(a, t) \
	VPSRAQ  $32, a, t;  \
	VPMULDQ Z31, a, a;  \
	VPADDQ  t, a, a

// WIDEN4 widens the four int32 accumulators a, b, c, d for REDUCE4.
// Scratch: Z16..Z19.
#define WIDEN4(a, b, c, d) \
	WIDEN(a, Z16); \
	WIDEN(b, Z17); \
	WIDEN(c, Z18); \
	WIDEN(d, Z19)

// REDUCE4 sums the eight int64 lanes of each of a, b, c, d and leaves the
// four totals in a, split across its 128-bit lanes as
// [a b | a' b' | c d | c' d'] with total(a) = a + a' and so on. Every add is
// an int64 lane add, which commutes exactly. Scratch: Z16..Z19.
#define REDUCE4(a, b, c, d) \
	VPUNPCKLQDQ b, a, Z16;       \
	VPUNPCKHQDQ b, a, Z17;       \
	VPADDQ      Z17, Z16, a;     \
	VPUNPCKLQDQ d, c, Z18;       \
	VPUNPCKHQDQ d, c, Z19;       \
	VPADDQ      Z19, Z18, c;     \
	VSHUFI64X2  $0x44, c, a, Z16; \
	VSHUFI64X2  $0xEE, c, a, Z17; \
	VPADDQ      Z17, Z16, a

// FOLD2 finishes two REDUCE4 results: the 128-bit lanes of p and q are
// regrouped so one add leaves [p: a b c d | q: a b c d], which is added into
// total. Scratch: Z16, Z17.
#define FOLD2(p, q, total) \
	VSHUFI64X2 $0x88, q, p, Z16;  \
	VSHUFI64X2 $0xDD, q, p, Z17;  \
	VPADDQ     Z17, Z16, Z16;     \
	VPADDQ     Z16, total, total

// func tile4x16(x, w *int16, stride, pitch, groups, blocks, cadence int, acc *int64)
//
// acc[r*stride + o] = sum_i x[r*stride + i] * w[o*pitch + i]
// for r in 0..3, o in 0..4*groups, i in 0..32*blocks.
//
// Register map, per group of four outputs:
//   Z(4r+o)   int32 partial sums of (row r, output o)      Z0..Z15
//   Z16..Z19  the four weight vectors of this step (reduction scratch after)
//   Z20..Z23  the four activation vectors of this step
//   Z24, Z25  int64 totals: rows 0,1 and rows 2,3, four outputs each
//   Z31       int64 ones (WIDEN)
//   SI DI R14 R15  activation rows 0..3      R9..R12  weight rows 0..3
//   AX  byte offset into every row           DX  pitch in bytes
//   CX  blocks still to do                   BX  blocks left in this chunk
//   R13 cadence                              R8  acc for this group
// groups counts down in its argument slot.
TEXT ·tile4x16(SB), NOSPLIT, $0-64
	MOVQ x+0(FP), SI
	MOVQ w+8(FP), R9
	MOVQ stride+16(FP), BX
	MOVQ pitch+24(FP), DX
	MOVQ cadence+48(FP), R13
	MOVQ acc+56(FP), R8

	LEAQ (SI)(BX*2), DI
	LEAQ (DI)(BX*2), R14
	LEAQ (R14)(BX*2), R15
	SHLQ $1, DX
	LEAQ (R9)(DX*1), R10
	LEAQ (R10)(DX*1), R11
	LEAQ (R11)(DX*1), R12
	ONES

tgroup:
	MOVQ   blocks+40(FP), CX
	XORQ   AX, AX
	VPXORQ Z24, Z24, Z24
	VPXORQ Z25, Z25, Z25

tchunk:
	MOVQ    R13, BX          // this chunk: min(cadence, remaining) blocks
	CMPQ    CX, BX
	CMOVQLT CX, BX
	SUBQ    BX, CX
	VPXOR   X0, X0, X0       // VEX xmm writes zero the whole zmm
	VPXOR   X1, X1, X1
	VPXOR   X2, X2, X2
	VPXOR   X3, X3, X3
	VPXOR   X4, X4, X4
	VPXOR   X5, X5, X5
	VPXOR   X6, X6, X6
	VPXOR   X7, X7, X7
	VPXOR   X8, X8, X8
	VPXOR   X9, X9, X9
	VPXOR   X10, X10, X10
	VPXOR   X11, X11, X11
	VPXOR   X12, X12, X12
	VPXOR   X13, X13, X13
	VPXOR   X14, X14, X14
	VPXOR   X15, X15, X15

tloop:
	VMOVDQU64 (R9)(AX*1), Z16
	VMOVDQU64 (R10)(AX*1), Z17
	VMOVDQU64 (R11)(AX*1), Z18
	VMOVDQU64 (R12)(AX*1), Z19
	VMOVDQU64 (SI)(AX*1), Z20
	VMOVDQU64 (DI)(AX*1), Z21
	VMOVDQU64 (R14)(AX*1), Z22
	VMOVDQU64 (R15)(AX*1), Z23
	VPDPWSSD  Z16, Z20, Z0
	VPDPWSSD  Z17, Z20, Z1
	VPDPWSSD  Z18, Z20, Z2
	VPDPWSSD  Z19, Z20, Z3
	VPDPWSSD  Z16, Z21, Z4
	VPDPWSSD  Z17, Z21, Z5
	VPDPWSSD  Z18, Z21, Z6
	VPDPWSSD  Z19, Z21, Z7
	VPDPWSSD  Z16, Z22, Z8
	VPDPWSSD  Z17, Z22, Z9
	VPDPWSSD  Z18, Z22, Z10
	VPDPWSSD  Z19, Z22, Z11
	VPDPWSSD  Z16, Z23, Z12
	VPDPWSSD  Z17, Z23, Z13
	VPDPWSSD  Z18, Z23, Z14
	VPDPWSSD  Z19, Z23, Z15
	ADDQ      $64, AX
	DECQ      BX
	JNZ       tloop

	WIDEN4(Z0, Z1, Z2, Z3)
	REDUCE4(Z0, Z1, Z2, Z3)
	WIDEN4(Z4, Z5, Z6, Z7)
	REDUCE4(Z4, Z5, Z6, Z7)
	WIDEN4(Z8, Z9, Z10, Z11)
	REDUCE4(Z8, Z9, Z10, Z11)
	WIDEN4(Z12, Z13, Z14, Z15)
	REDUCE4(Z12, Z13, Z14, Z15)
	FOLD2(Z0, Z4, Z24)
	FOLD2(Z8, Z12, Z25)
	TESTQ CX, CX
	JNZ   tchunk

	MOVQ          stride+16(FP), BX
	SHLQ          $3, BX     // acc row stride in bytes
	LEAQ          (R8)(BX*2), AX
	VEXTRACTI64X4 $0, Z24, (R8)
	VEXTRACTI64X4 $1, Z24, (R8)(BX*1)
	VEXTRACTI64X4 $0, Z25, (AX)
	VEXTRACTI64X4 $1, Z25, (AX)(BX*1)

	LEAQ (R9)(DX*4), R9      // next four weight rows
	LEAQ (R10)(DX*4), R10
	LEAQ (R11)(DX*4), R11
	LEAQ (R12)(DX*4), R12
	ADDQ $32, R8
	DECQ groups+32(FP)
	JNZ  tgroup

	VZEROUPPER
	RET

// func row4x16(x, w *int16, pitch, groups, blocks, cadence int, acc *int64)
//
// acc[o] = sum_i x[i] * w[o*pitch + i] for o in 0..4*groups, i in 0..32*blocks.
//
// Z0..Z3 take output o's even blocks, Z4..Z7 its odd blocks; Z24's low half
// holds the group's four int64 totals. Scalar registers as in tile4x16, with
// groups in R14.
TEXT ·row4x16(SB), NOSPLIT, $0-56
	MOVQ x+0(FP), SI
	MOVQ w+8(FP), R9
	MOVQ pitch+16(FP), DX
	MOVQ groups+24(FP), R14
	MOVQ cadence+40(FP), R13
	MOVQ acc+48(FP), R8

	SHLQ $1, DX
	LEAQ (R9)(DX*1), R10
	LEAQ (R10)(DX*1), R11
	LEAQ (R11)(DX*1), R12
	ONES

rgroup:
	MOVQ   blocks+32(FP), CX
	XORQ   AX, AX
	VPXORQ Z24, Z24, Z24

rchunk:
	MOVQ    R13, BX
	CMPQ    CX, BX
	CMOVQLT CX, BX
	SUBQ    BX, CX
	VPXOR   X0, X0, X0
	VPXOR   X1, X1, X1
	VPXOR   X2, X2, X2
	VPXOR   X3, X3, X3
	VPXOR   X4, X4, X4
	VPXOR   X5, X5, X5
	VPXOR   X6, X6, X6
	VPXOR   X7, X7, X7
	CMPQ    BX, $2
	JLT     rlast

rpair:
	VMOVDQU64 (SI)(AX*1), Z16
	VMOVDQU64 64(SI)(AX*1), Z17
	VPDPWSSD  (R9)(AX*1), Z16, Z0
	VPDPWSSD  (R10)(AX*1), Z16, Z1
	VPDPWSSD  (R11)(AX*1), Z16, Z2
	VPDPWSSD  (R12)(AX*1), Z16, Z3
	VPDPWSSD  64(R9)(AX*1), Z17, Z4
	VPDPWSSD  64(R10)(AX*1), Z17, Z5
	VPDPWSSD  64(R11)(AX*1), Z17, Z6
	VPDPWSSD  64(R12)(AX*1), Z17, Z7
	ADDQ      $128, AX
	SUBQ      $2, BX
	CMPQ      BX, $2
	JGE       rpair

rlast:
	TESTQ     BX, BX
	JZ        rwiden
	VMOVDQU64 (SI)(AX*1), Z16
	VPDPWSSD  (R9)(AX*1), Z16, Z0
	VPDPWSSD  (R10)(AX*1), Z16, Z1
	VPDPWSSD  (R11)(AX*1), Z16, Z2
	VPDPWSSD  (R12)(AX*1), Z16, Z3
	ADDQ      $64, AX

rwiden:
	// An output's two accumulators together hold what one would have after
	// this chunk's blocks, so their int32 sum is inside the cadence bound.
	VPADDD Z4, Z0, Z0
	VPADDD Z5, Z1, Z1
	VPADDD Z6, Z2, Z2
	VPADDD Z7, Z3, Z3
	WIDEN4(Z0, Z1, Z2, Z3)
	REDUCE4(Z0, Z1, Z2, Z3)
	FOLD2(Z0, Z0, Z24)
	TESTQ CX, CX
	JNZ   rchunk

	VEXTRACTI64X4 $0, Z24, (R8)
	LEAQ (R9)(DX*4), R9
	LEAQ (R10)(DX*4), R10
	LEAQ (R11)(DX*4), R11
	LEAQ (R12)(DX*4), R12
	ADDQ $32, R8
	DECQ R14
	JNZ  rgroup

	VZEROUPPER
	RET

// W4 converts one input step of a weight panel — 32 int32 at (BX), one per
// output — into four vectors of eight float64, Z24..Z27 (exact: every int32
// is a float64).
#define W4 \
	VCVTDQ2PD (BX), Z24;   \
	VCVTDQ2PD 32(BX), Z25; \
	VCVTDQ2PD 64(BX), Z26; \
	VCVTDQ2PD 96(BX), Z27

// FROW(f, a, b, c, d) is one activation row's share of a step: its float64
// at step AX, broadcast, times the four weight vectors, added into the row's
// accumulators a..d.
#define FROW(f, a, b, c, d) \
	VBROADCASTSD (f)(AX*8), Z28; \
	VFMADD231PD  Z24, Z28, a;    \
	VFMADD231PD  Z25, Z28, b;    \
	VFMADD231PD  Z26, Z28, c;    \
	VFMADD231PD  Z27, Z28, d

// FLUSH(a, b, c, d) converts one row's four accumulators — exact integers —
// to int64 and adds them into its 32 int64 sums at (DI).
#define FLUSH(a, b, c, d) \
	VCVTPD2QQ a, a;          \
	VCVTPD2QQ b, b;          \
	VCVTPD2QQ c, c;          \
	VCVTPD2QQ d, d;          \
	VPADDQ    (DI), a, a;    \
	VPADDQ    64(DI), b, b;  \
	VPADDQ    128(DI), c, c; \
	VPADDQ    192(DI), d, d; \
	VMOVDQU64 a, (DI);       \
	VMOVDQU64 b, 64(DI);     \
	VMOVDQU64 c, 128(DI);    \
	VMOVDQU64 d, 192(DI)

// func fma6x32(f *float64, w *int32, stride, steps, chunk, rows int, acc *int64)
//
// acc[r*stride + o] = sum_i f[r*stride + i] * w[i*32 + o]
// for r in 0..rows (1 <= rows <= 6), o in 0..32, i in 0..steps.
//
// An outer product per input step: the panel's 32 weights are converted to
// float64 once and every row's activation, broadcast, multiplies all of them
// into that row's four accumulators. The accumulators are float64, so each
// chunk of at most chunk steps — short enough that every partial sum is an
// integer float64 holds exactly (fmaChunk) — is converted to int64 and added
// into acc, which starts at zero. One loop per row count, so a ragged
// remainder runs the same step with fewer rows.
//
// Register map:
//   Z(4r)..Z(4r+3)  float64 sums of row r, outputs 0..31     Z0..Z23
//   Z24..Z27        the step's 32 weights as float64
//   Z28             the step's activation of one row, broadcast
//   R8..R13  activation rows 0..5        BX  weight row of this step
//   AX  step index                       CX  steps left in this chunk
//   SI  steps left after this chunk      DX  row stride in bytes
//   R14 rows                             R15 chunk
//   DI  acc row
TEXT ·fma6x32(SB), NOSPLIT, $0-56
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
	XORQ AX, AX

	VPXORQ  Z0, Z0, Z0
	MOVQ   acc+48(FP), DI
	MOVQ   R14, CX

zero:
	VMOVDQU64 Z0, (DI)
	VMOVDQU64 Z0, 64(DI)
	VMOVDQU64 Z0, 128(DI)
	VMOVDQU64 Z0, 192(DI)
	ADDQ      DX, DI
	DECQ      CX
	JNZ       zero

chunk:
	MOVQ    R15, CX          // this chunk: min(chunk, remaining) steps
	CMPQ    SI, CX
	CMOVQLT SI, CX
	SUBQ    CX, SI
	VPXOR   X0, X0, X0
	VPXOR   X1, X1, X1
	VPXOR   X2, X2, X2
	VPXOR   X3, X3, X3
	VPXOR   X4, X4, X4
	VPXOR   X5, X5, X5
	VPXOR   X6, X6, X6
	VPXOR   X7, X7, X7
	VPXOR   X8, X8, X8
	VPXOR   X9, X9, X9
	VPXOR   X10, X10, X10
	VPXOR   X11, X11, X11
	VPXOR   X12, X12, X12
	VPXOR   X13, X13, X13
	VPXOR   X14, X14, X14
	VPXOR   X15, X15, X15
	VPXORQ  Z16, Z16, Z16
	VPXORQ  Z17, Z17, Z17
	VPXORQ  Z18, Z18, Z18
	VPXORQ  Z19, Z19, Z19
	VPXORQ  Z20, Z20, Z20
	VPXORQ  Z21, Z21, Z21
	VPXORQ  Z22, Z22, Z22
	VPXORQ  Z23, Z23, Z23
	CMPQ    R14, $6
	JEQ     loop6
	CMPQ    R14, $5
	JEQ     loop5
	CMPQ    R14, $4
	JEQ     loop4
	CMPQ    R14, $3
	JEQ     loop3
	CMPQ    R14, $2
	JEQ     loop2
	JMP     loop1

loop6:
	W4
	FROW(R8, Z0, Z1, Z2, Z3)
	FROW(R9, Z4, Z5, Z6, Z7)
	FROW(R10, Z8, Z9, Z10, Z11)
	FROW(R11, Z12, Z13, Z14, Z15)
	FROW(R12, Z16, Z17, Z18, Z19)
	FROW(R13, Z20, Z21, Z22, Z23)
	ADDQ $128, BX
	INCQ AX
	DECQ CX
	JNZ  loop6
	JMP  flush

loop5:
	W4
	FROW(R8, Z0, Z1, Z2, Z3)
	FROW(R9, Z4, Z5, Z6, Z7)
	FROW(R10, Z8, Z9, Z10, Z11)
	FROW(R11, Z12, Z13, Z14, Z15)
	FROW(R12, Z16, Z17, Z18, Z19)
	ADDQ $128, BX
	INCQ AX
	DECQ CX
	JNZ  loop5
	JMP  flush

loop4:
	W4
	FROW(R8, Z0, Z1, Z2, Z3)
	FROW(R9, Z4, Z5, Z6, Z7)
	FROW(R10, Z8, Z9, Z10, Z11)
	FROW(R11, Z12, Z13, Z14, Z15)
	ADDQ $128, BX
	INCQ AX
	DECQ CX
	JNZ  loop4
	JMP  flush

loop3:
	W4
	FROW(R8, Z0, Z1, Z2, Z3)
	FROW(R9, Z4, Z5, Z6, Z7)
	FROW(R10, Z8, Z9, Z10, Z11)
	ADDQ $128, BX
	INCQ AX
	DECQ CX
	JNZ  loop3
	JMP  flush

loop2:
	W4
	FROW(R8, Z0, Z1, Z2, Z3)
	FROW(R9, Z4, Z5, Z6, Z7)
	ADDQ $128, BX
	INCQ AX
	DECQ CX
	JNZ  loop2
	JMP  flush

loop1:
	W4
	FROW(R8, Z0, Z1, Z2, Z3)
	ADDQ $128, BX
	INCQ AX
	DECQ CX
	JNZ  loop1

flush:
	MOVQ acc+48(FP), DI
	FLUSH(Z0, Z1, Z2, Z3)
	CMPQ R14, $2
	JLT  next
	ADDQ DX, DI
	FLUSH(Z4, Z5, Z6, Z7)
	CMPQ R14, $3
	JLT  next
	ADDQ DX, DI
	FLUSH(Z8, Z9, Z10, Z11)
	CMPQ R14, $4
	JLT  next
	ADDQ DX, DI
	FLUSH(Z12, Z13, Z14, Z15)
	CMPQ R14, $5
	JLT  next
	ADDQ DX, DI
	FLUSH(Z16, Z17, Z18, Z19)
	CMPQ R14, $6
	JLT  next
	ADDQ DX, DI
	FLUSH(Z20, Z21, Z22, Z23)

next:
	TESTQ SI, SI
	JNZ   chunk

	VZEROUPPER
	RET

// FINISH8 is fixedpoint.FinishRow's arithmetic, operation for operation, on
// the eight int64 accumulators in Z6 with their biases in Z8:
//
//	sign := a >> 63                                  VPSRAQ $63
//	v := (a ^ sign) - sign                           VPABSQ (wraps alike at MinInt64)
//	v = (v + half) >> shift                          VPADDQ, VPSRAQ
//	v = (v ^ sign) - sign                            VPXORQ, VPSUBQ
//	if v > hi { v = hi }; if v < lo { v = lo }       VPMINSQ, VPMAXSQ
//	v += bias                                        VPADDQ
//	if v > hi { v = hi }; if v < floor { v = floor } VPMINSQ, VPMAXSQ
//
// Constants: X1 shift, Z2 half, Z3 hi, Z4 lo, Z5 floor.
#define FINISH8 \
	VPSRAQ  $63, Z6, Z7; \
	VPABSQ  Z6, Z6;      \
	VPADDQ  Z2, Z6, Z6;  \
	VPSRAQ  X1, Z6, Z6;  \
	VPXORQ  Z7, Z6, Z6;  \
	VPSUBQ  Z7, Z6, Z6;  \
	VPMINSQ Z3, Z6, Z6;  \
	VPMAXSQ Z4, Z6, Z6;  \
	VPADDQ  Z8, Z6, Z6;  \
	VPMINSQ Z3, Z6, Z6;  \
	VPMAXSQ Z5, Z6, Z6

// FINISHLOOP is the loop shared by the two storage widths: NARROW is the
// truncating down-convert (exact: v is already inside the width's bounds),
// DSTEP the bytes eight stored elements take. A final partial vector is
// loaded, and stored, under the mask K1 of its n mod 8 low lanes. Expects
// SI acc, BX bias, DI dst, CX n. (The argument loads are spelled out per
// function: go vet checks their names against the enclosing TEXT, not
// through a macro.)
#define FINISHLOOP(NARROW, DSTEP) \
	CMPQ        CX, $8;         \
	JLT         tail;           \
loop:                           \
	VMOVDQU64   (SI), Z6;       \
	VMOVDQU64   (BX), Z8;       \
	FINISH8;                    \
	NARROW      Z6, (DI);       \
	ADDQ        $64, SI;        \
	ADDQ        $64, BX;        \
	ADDQ        DSTEP, DI;      \
	SUBQ        $8, CX;         \
	CMPQ        CX, $8;         \
	JGE         loop;           \
tail:                           \
	TESTQ       CX, CX;         \
	JZ          done;           \
	MOVL        $1, AX;         \
	SHLL        CX, AX;         \
	DECL        AX;             \
	KMOVW       AX, K1;         \
	VMOVDQU64.Z (SI), K1, Z6;   \
	VMOVDQU64.Z (BX), K1, Z8;   \
	FINISH8;                    \
	NARROW      Z6, K1, (DI);   \
done:                           \
	VZEROUPPER;                 \
	RET

// func finish8x16(acc, bias *int64, dst *int16, n int, shift uint64, half, hi, lo, floor int64)
TEXT ·finish8x16(SB), NOSPLIT, $0-72
	MOVQ         acc+0(FP), SI
	MOVQ         bias+8(FP), BX
	MOVQ         dst+16(FP), DI
	MOVQ         n+24(FP), CX
	MOVQ         shift+32(FP), X1
	VPBROADCASTQ half+40(FP), Z2
	VPBROADCASTQ hi+48(FP), Z3
	VPBROADCASTQ lo+56(FP), Z4
	VPBROADCASTQ floor+64(FP), Z5
	FINISHLOOP(VPMOVQW, $16)

// func finish8x32(acc, bias *int64, dst *int32, n int, shift uint64, half, hi, lo, floor int64)
TEXT ·finish8x32(SB), NOSPLIT, $0-72
	MOVQ         acc+0(FP), SI
	MOVQ         bias+8(FP), BX
	MOVQ         dst+16(FP), DI
	MOVQ         n+24(FP), CX
	MOVQ         shift+32(FP), X1
	VPBROADCASTQ half+40(FP), Z2
	VPBROADCASTQ hi+48(FP), Z3
	VPBROADCASTQ lo+56(FP), Z4
	VPBROADCASTQ floor+64(FP), Z5
	FINISHLOOP(VPMOVQD, $32)

// QUANT8 converts eight float32 at (SI) under K1 to eight rounded, clamped
// int32 in Y0, exactly as Format.Quantize: widen (exact), scale by 2^Frac
// (exact), round half to even, clamp to [lo, hi] (Z3, Z2), and zero every
// NaN lane — K2 is K1's ordered lanes; VMINPD would turn a NaN into hi. The
// clamped values are integers inside the width, so the truncating narrow is
// exact.
#define QUANT8 \
	VCVTPS2PD.Z  (SI), K1, Z0; \
	VCMPPD       $7, Z0, Z0, K1, K2; \
	VMULPD       Z1, Z0, Z0; \
	VRNDSCALEPD  $0, Z0, Z0; \
	VMINPD       Z2, Z0, Z0; \
	VMAXPD       Z3, Z0, Z0; \
	VCVTTPD2DQ.Z Z0, K2, Y0

// QUANTLOOP is the loop shared by the two storage widths: STORE writes Y0's
// eight int32 lanes at the width under K1, DSTEP the bytes they take. A
// final partial vector is loaded, and stored, under the mask K1 of its n
// mod 8 low lanes. Expects SI src, DI dst, CX n, Z1 scale, Z2 hi, Z3 lo.
#define QUANTLOOP(STORE, DSTEP) \
	MOVL        $0xFF, AX;      \
	KMOVW       AX, K1;         \
	CMPQ        CX, $8;         \
	JLT         tail;           \
loop:                           \
	QUANT8;                     \
	STORE       Y0, K1, (DI);   \
	ADDQ        $32, SI;        \
	ADDQ        DSTEP, DI;      \
	SUBQ        $8, CX;         \
	CMPQ        CX, $8;         \
	JGE         loop;           \
tail:                           \
	TESTQ       CX, CX;         \
	JZ          done;           \
	MOVL        $1, AX;         \
	SHLL        CX, AX;         \
	DECL        AX;             \
	KMOVW       AX, K1;         \
	QUANT8;                     \
	STORE       Y0, K1, (DI);   \
done:                           \
	VZEROUPPER;                 \
	RET

// func quantize8x16(src *float32, dst *int16, n int, scale, hi, lo float64)
TEXT ·quantize8x16(SB), NOSPLIT, $0-48
	MOVQ         src+0(FP), SI
	MOVQ         dst+8(FP), DI
	MOVQ         n+16(FP), CX
	VBROADCASTSD scale+24(FP), Z1
	VBROADCASTSD hi+32(FP), Z2
	VBROADCASTSD lo+40(FP), Z3
	QUANTLOOP(VPMOVDW, $16)

// func quantize8x32(src *float32, dst *int32, n int, scale, hi, lo float64)
TEXT ·quantize8x32(SB), NOSPLIT, $0-48
	MOVQ         src+0(FP), SI
	MOVQ         dst+8(FP), DI
	MOVQ         n+16(FP), CX
	VBROADCASTSD scale+24(FP), Z1
	VBROADCASTSD hi+32(FP), Z2
	VBROADCASTSD lo+40(FP), Z3
	QUANTLOOP(VMOVDQU32, $32)

// UNIT8 turns the eight raw draws at (SI) under K1 into eight float32 in
// Y0, each (u*2 - 1) * scale for u math/rand's Float32 of the draw, with
// the scalar code's operations and roundings: the low 63 bits (Z1) to
// float64 (round to nearest, as CVTSI2SDQ), times 2⁻⁶³ (Z2, exact), to
// float32 (round to nearest, as CVTSD2SS), doubled, less one (Y3), times
// scale (Y4).
#define UNIT8 \
	VPANDQ.Z     (SI), Z1, K1, Z0; \
	VCVTQQ2PD    Z0, Z0; \
	VMULPD       Z2, Z0, Z0; \
	VCVTPD2PS    Z0, Y0; \
	VADDPS       Y0, Y0, Y0; \
	VSUBPS       Y3, Y0, Y0; \
	VMULPS       Y4, Y0, Y0

// func unit8(draws *uint64, dst *float32, n int, scale float32)
//
// A final partial vector is loaded, and stored, under the mask K1 of its
// n mod 8 low lanes.
TEXT ·unit8(SB), NOSPLIT, $0-28
	MOVQ         draws+0(FP), SI
	MOVQ         dst+8(FP), DI
	MOVQ         n+16(FP), CX
	VBROADCASTSS scale+24(FP), Y4
	MOVQ         $0x7fffffffffffffff, AX
	VPBROADCASTQ AX, Z1
	MOVQ         $0x3c00000000000000, AX
	VPBROADCASTQ AX, Z2
	MOVL         $0x3f800000, AX
	VPBROADCASTD AX, Y3
	MOVL         $0xFF, AX
	KMOVW        AX, K1
	CMPQ         CX, $8
	JLT          tail
loop:
	UNIT8
	VMOVUPS      Y0, K1, (DI)
	ADDQ         $64, SI
	ADDQ         $32, DI
	SUBQ         $8, CX
	CMPQ         CX, $8
	JGE          loop
tail:
	TESTQ        CX, CX
	JZ           done
	MOVL         $1, AX
	SHLL         CX, AX
	DECL         AX
	KMOVW        AX, K1
	UNIT8
	VMOVUPS      Y0, K1, (DI)
done:
	VZEROUPPER
	RET

// SKIPCOUNT adds one to each lane of cnt whose draw in y Float32 resamples:
// the low 63 bits (Z13) not below SkipFrom (Z14), compared unsigned into
// the mask k, under which ones (Z15) are added. t is scratch.
#define SKIPCOUNT(y, t, k, cnt) \
	VPANDQ  Z13, y, t;        \
	VPCMPUQ $5, Z14, t, k;    \
	VPADDQ  Z15, cnt, k, cnt

// func extend8(buf *uint64, n int) (skips int)
//
// Extend over the first n new draws (n > 0, a multiple of 8): eight draws a
// vector, VPADDQ of the long lag (SI) and the short one (DX), stored at DI
// and counted by SKIPCOUNT into per-lane counts (Z8, Z9) that are summed
// once at the end, all in Z0–Z15, which VZEROUPPER leaves clean. Four
// vectors a step while 32 remain, then one. A step
// reads draws up to LagLong − LagShort + 31 past its first and writes from
// LagLong on, so every draw it reads was written by an earlier step.
TEXT ·extend8(SB), NOSPLIT, $0-24
	MOVQ         buf+0(FP), SI
	MOVQ         n+8(FP), CX
	LEAQ         ((const_LagLong-const_LagShort)*8)(SI), DX
	LEAQ         (const_LagLong*8)(SI), DI
	MOVQ         $0x7fffffffffffffff, AX
	VPBROADCASTQ AX, Z13
	MOVQ         $const_SkipFrom, AX
	VPBROADCASTQ AX, Z14
	VPTERNLOGD   $0xFF, Z15, Z15, Z15
	VPSRLQ       $63, Z15, Z15
	VPXORQ       Z8, Z8, Z8
	VPXORQ       Z9, Z9, Z9
	CMPQ         CX, $32
	JLT          one

four:
	VMOVDQU64    (SI), Z0
	VMOVDQU64    64(SI), Z1
	VMOVDQU64    128(SI), Z2
	VMOVDQU64    192(SI), Z3
	VPADDQ       (DX), Z0, Z0
	VPADDQ       64(DX), Z1, Z1
	VPADDQ       128(DX), Z2, Z2
	VPADDQ       192(DX), Z3, Z3
	VMOVDQU64    Z0, (DI)
	VMOVDQU64    Z1, 64(DI)
	VMOVDQU64    Z2, 128(DI)
	VMOVDQU64    Z3, 192(DI)
	SKIPCOUNT(Z0, Z4, K1, Z8)
	SKIPCOUNT(Z1, Z5, K2, Z9)
	SKIPCOUNT(Z2, Z6, K3, Z8)
	SKIPCOUNT(Z3, Z7, K4, Z9)
	ADDQ         $256, SI
	ADDQ         $256, DX
	ADDQ         $256, DI
	SUBQ         $32, CX
	CMPQ         CX, $32
	JGE          four

one:
	TESTQ        CX, CX
	JZ           sum
	VMOVDQU64    (SI), Z0
	VPADDQ       (DX), Z0, Z0
	VMOVDQU64    Z0, (DI)
	SKIPCOUNT(Z0, Z4, K1, Z8)
	ADDQ         $64, SI
	ADDQ         $64, DX
	ADDQ         $64, DI
	SUBQ         $8, CX
	JMP          one

sum:
	VPADDQ        Z9, Z8, Z8
	VEXTRACTI64X4 $1, Z8, Y9
	VPADDQ        Y9, Y8, Y8
	VEXTRACTI128  $1, Y8, X9
	VPADDQ        X9, X8, X8
	VPSHUFD       $0x4e, X8, X9
	VPADDQ        X9, X8, X8
	VMOVQ         X8, skips+16(FP)
	VZEROUPPER
	RET

// The peak loops are the compute ceilings of the GEMM kernels' inner steps,
// measured on the host: register-only, no loads, enough independent chains
// to cover each instruction's latency on two 512-bit ports. Each runs n
// iterations; the MACs an iteration does are in peak_amd64.go.

// func peakFMA(n int)
//
// Twelve independent VFMADD231PD an iteration (8 MACs each), the 32-bit
// FMA kernel's step.
TEXT ·peakFMA(SB), NOSPLIT, $0-8
	MOVQ  n+0(FP), CX
	VPXORQ Z30, Z30, Z30
	VPXORQ Z31, Z31, Z31
	VPXOR X0, X0, X0
	VPXOR X1, X1, X1
	VPXOR X2, X2, X2
	VPXOR X3, X3, X3
	VPXOR X4, X4, X4
	VPXOR X5, X5, X5
	VPXOR X6, X6, X6
	VPXOR X7, X7, X7
	VPXOR X8, X8, X8
	VPXOR X9, X9, X9
	VPXOR X10, X10, X10
	VPXOR X11, X11, X11

peakfma:
	VFMADD231PD Z30, Z31, Z0
	VFMADD231PD Z30, Z31, Z1
	VFMADD231PD Z30, Z31, Z2
	VFMADD231PD Z30, Z31, Z3
	VFMADD231PD Z30, Z31, Z4
	VFMADD231PD Z30, Z31, Z5
	VFMADD231PD Z30, Z31, Z6
	VFMADD231PD Z30, Z31, Z7
	VFMADD231PD Z30, Z31, Z8
	VFMADD231PD Z30, Z31, Z9
	VFMADD231PD Z30, Z31, Z10
	VFMADD231PD Z30, Z31, Z11
	DECQ CX
	JNZ  peakfma
	VZEROUPPER
	RET

// func peakVPDPWSSD(n int)
//
// Twelve independent VPDPWSSD an iteration (32 MACs each: sixteen int32
// lanes, two int16 products per lane), the 16-bit VNNI tile's step.
TEXT ·peakVPDPWSSD(SB), NOSPLIT, $0-8
	MOVQ  n+0(FP), CX
	VPXORQ Z30, Z30, Z30
	VPXORQ Z31, Z31, Z31
	VPXOR X0, X0, X0
	VPXOR X1, X1, X1
	VPXOR X2, X2, X2
	VPXOR X3, X3, X3
	VPXOR X4, X4, X4
	VPXOR X5, X5, X5
	VPXOR X6, X6, X6
	VPXOR X7, X7, X7
	VPXOR X8, X8, X8
	VPXOR X9, X9, X9
	VPXOR X10, X10, X10
	VPXOR X11, X11, X11

peakvnni:
	VPDPWSSD Z30, Z31, Z0
	VPDPWSSD Z30, Z31, Z1
	VPDPWSSD Z30, Z31, Z2
	VPDPWSSD Z30, Z31, Z3
	VPDPWSSD Z30, Z31, Z4
	VPDPWSSD Z30, Z31, Z5
	VPDPWSSD Z30, Z31, Z6
	VPDPWSSD Z30, Z31, Z7
	VPDPWSSD Z30, Z31, Z8
	VPDPWSSD Z30, Z31, Z9
	VPDPWSSD Z30, Z31, Z10
	VPDPWSSD Z30, Z31, Z11
	DECQ CX
	JNZ  peakvnni
	VZEROUPPER
	RET
