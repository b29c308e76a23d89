// AVX2 span kernels for Shoup64 (4 lanes per iteration). No 64-bit
// vector multiply or unsigned compare exists below AVX-512, so both are
// composed: products from VPMULUDQ 32x32 partials (identical wrapping
// arithmetic to bits.Mul64), and the conditional subtract from a
// sign-flipped VPCMPGTQ + VPBLENDVB — x >= c unsigned iff x^2^63 >=
// c^2^63 signed, with the flipped constant c^2^63 hoisted per kernel.
// Lane layouts follow internal/kernels/backend256.

#include "textflag.h"

// MULHI64 hi = floor(a*b / 2^64), bits.Mul64's high word. Preserves a, b.
#define MULHI64(a, b, hi, t1, t2, t3) \
	VPSRLQ   $32, a, t1; \
	VPSRLQ   $32, b, t2; \
	VPMULUDQ t2, t1, hi; \
	VPMULUDQ b, t1, t3;  \
	VPMULUDQ t2, a, t1;  \
	VPMULUDQ b, a, t2;   \
	VPSRLQ   $32, t2, t2; \
	VPADDQ   t2, t3, t3; \
	VPSLLQ   $32, t3, t2; \
	VPSRLQ   $32, t2, t2; \
	VPADDQ   t2, t1, t1; \
	VPSRLQ   $32, t3, t3; \
	VPSRLQ   $32, t1, t1; \
	VPADDQ   t3, hi, hi; \
	VPADDQ   t1, hi, hi

// MULLO64 lo = a*b mod 2^64: al*bl + ((ah*bl + al*bh) << 32).
// Preserves a, b.
#define MULLO64(a, b, lo, t1, t2) \
	VPSRLQ   $32, a, t1; \
	VPMULUDQ b, t1, t1;  \
	VPSRLQ   $32, b, t2; \
	VPMULUDQ t2, a, t2;  \
	VPADDQ   t2, t1, t1; \
	VPSLLQ   $32, t1, t1; \
	VPMULUDQ b, a, lo;   \
	VPADDQ   t1, lo, lo

// CONDSUB x -= c where x >= c. cf = c^2^63 hoisted; signFlip in Y15.
// The mask is true where x < c (keep x), else take x-c.
#define CONDSUB(x, c, cf, t1, t2) \
	VPSUBQ    c, x, t1; \
	VPXOR     Y15, x, t2; \
	VPCMPGTQ  t2, cf, t2; \
	VPBLENDVB t2, x, t1, x

// SHOUPMUL out = d*w - mulhi(d, pre)*q, in [0, 2q) for any 64-bit d.
// Expects q broadcast in Y12. Preserves d, w, pre.
#define SHOUPMUL(d, w, pre, out, t1, t2, t3, t4) \
	MULHI64(d, pre, t4, t1, t2, t3); \
	MULLO64(d, w, out, t1, t2); \
	MULLO64(t4, Y12, t1, t2, t3); \
	VPSUBQ  t1, out, out

// LAZYCONSTS loads the relaxed-kernel constant block: Y15 = 2^63,
// Y14 = 2q, Y13 = (2q)^2^63, Y12 = q, from q in AX (clobbers BX, R13).
#define LAZYCONSTS \
	MOVQ AX, X12; \
	VPBROADCASTQ X12, Y12; \
	LEAQ (AX)(AX*1), BX; \
	MOVQ BX, X14; \
	VPBROADCASTQ X14, Y14; \
	MOVQ $0x8000000000000000, R13; \
	MOVQ R13, X15; \
	VPBROADCASTQ X15, Y15; \
	XORQ R13, BX; \
	MOVQ BX, X13; \
	VPBROADCASTQ X13, Y13

// func ctSpanAVX2(q uint64, out, lo, hi, w, pre *uint64, n int)
TEXT ·ctSpanAVX2(SB), NOSPLIT, $0-56
	MOVQ q+0(FP), AX
	MOVQ out+8(FP), DI
	MOVQ lo+16(FP), SI
	MOVQ hi+24(FP), DX
	MOVQ w+32(FP), R8
	MOVQ pre+40(FP), R9
	MOVQ n+48(FP), CX
	LAZYCONSTS

ctloop:
	VMOVDQU (SI), Y0              // a
	VMOVDQU (DX), Y1              // b
	VMOVDQU (R8), Y2              // w
	VMOVDQU (R9), Y3              // pre
	VPADDQ  Y1, Y0, Y4            // s = a + b
	CONDSUB(Y4, Y14, Y13, Y5, Y6)
	VPADDQ  Y14, Y0, Y5
	VPSUBQ  Y1, Y5, Y5            // d = a + 2q - b
	SHOUPMUL(Y5, Y2, Y3, Y6, Y7, Y8, Y9, Y10) // t
	VPUNPCKLQDQ Y6, Y4, Y0        // s0 t0 s2 t2
	VPUNPCKHQDQ Y6, Y4, Y1        // s1 t1 s3 t3
	VPERM2I128  $0x20, Y1, Y0, Y2 // s0 t0 s1 t1
	VPERM2I128  $0x31, Y1, Y0, Y3 // s2 t2 s3 t3
	VMOVDQU Y2, (DI)
	VMOVDQU Y3, 32(DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, R8
	ADDQ    $32, R9
	ADDQ    $64, DI
	SUBQ    $4, CX
	JNZ     ctloop
	VZEROUPPER
	RET

// func gsSpanAVX2(q uint64, oLo, oHi, in, w, pre *uint64, n int)
TEXT ·gsSpanAVX2(SB), NOSPLIT, $0-56
	MOVQ q+0(FP), AX
	MOVQ oLo+8(FP), DI
	MOVQ oHi+16(FP), SI
	MOVQ in+24(FP), DX
	MOVQ w+32(FP), R8
	MOVQ pre+40(FP), R9
	MOVQ n+48(FP), CX
	LAZYCONSTS

gsloop:
	VMOVDQU (DX), Y0              // e0 o0 e1 o1
	VMOVDQU 32(DX), Y1            // e2 o2 e3 o3
	VPUNPCKLQDQ Y1, Y0, Y2        // e0 e2 e1 e3
	VPERMQ  $0xD8, Y2, Y2         // e
	VPUNPCKHQDQ Y1, Y0, Y3        // o0 o2 o1 o3
	VPERMQ  $0xD8, Y3, Y3         // o
	VMOVDQU (R8), Y0              // w
	VMOVDQU (R9), Y1              // pre
	SHOUPMUL(Y3, Y0, Y1, Y4, Y5, Y6, Y7, Y8) // t in [0, 2q)
	VPADDQ  Y4, Y2, Y5            // lo = e + t
	CONDSUB(Y5, Y14, Y13, Y6, Y7)
	VPADDQ  Y14, Y2, Y6
	VPSUBQ  Y4, Y6, Y6            // hi = e + 2q - t
	CONDSUB(Y6, Y14, Y13, Y7, Y8)
	VMOVDQU Y5, (DI)
	VMOVDQU Y6, (SI)
	ADDQ    $64, DX
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, R8
	ADDQ    $32, R9
	SUBQ    $4, CX
	JNZ     gsloop
	VZEROUPPER
	RET

// func mulSpanAVX2(q, mu uint64, dst, a, b *uint64, n int, s1, s2, s3, s4 uint64)
// Barrett: t1 = lo>>s1 | hi<<s2; qhat = (t1*mu).lo>>s3 | (t1*mu).hi<<s4;
// r = lo - qhat*q, then two condsubs (r < 3q). Constants: Y15 = 2^63,
// Y14 = q, Y13 = q^2^63, Y12 = mu; shift counts ride in X8-X11 so the
// working set stays in Y0-Y7.
TEXT ·mulSpanAVX2(SB), NOSPLIT, $0-80
	MOVQ q+0(FP), AX
	MOVQ dst+16(FP), DI
	MOVQ a+24(FP), SI
	MOVQ b+32(FP), DX
	MOVQ n+40(FP), CX
	MOVQ AX, X14
	VPBROADCASTQ X14, Y14
	MOVQ $0x8000000000000000, R13
	MOVQ R13, X15
	VPBROADCASTQ X15, Y15
	XORQ R13, AX
	MOVQ AX, X13
	VPBROADCASTQ X13, Y13
	VPBROADCASTQ mu+8(FP), Y12
	MOVQ s1+48(FP), X8
	MOVQ s2+56(FP), X9
	MOVQ s3+64(FP), X10
	MOVQ s4+72(FP), X11

mulloop:
	VMOVDQU (SI), Y0              // a
	VMOVDQU (DX), Y1              // b
	MULLO64(Y0, Y1, Y2, Y3, Y4)     // lo
	MULHI64(Y0, Y1, Y3, Y4, Y5, Y6) // hi
	VPSRLQ  X8, Y2, Y4
	VPSLLQ  X9, Y3, Y5
	VPOR    Y5, Y4, Y4            // t1
	MULLO64(Y4, Y12, Y5, Y6, Y7)     // l2
	MULHI64(Y4, Y12, Y6, Y0, Y1, Y7) // h2
	VPSRLQ  X10, Y5, Y5
	VPSLLQ  X11, Y6, Y6
	VPOR    Y6, Y5, Y5            // qhat
	MULLO64(Y5, Y14, Y6, Y0, Y1)  // qhat*q
	VPSUBQ  Y6, Y2, Y2            // r = lo - qhat*q
	CONDSUB(Y2, Y14, Y13, Y0, Y1)
	CONDSUB(Y2, Y14, Y13, Y0, Y1)
	VMOVDQU Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	SUBQ    $4, CX
	JNZ     mulloop
	VZEROUPPER
	RET

// func mulPreSpanAVX2(q uint64, dst, a, w, pre *uint64, n int)
TEXT ·mulPreSpanAVX2(SB), NOSPLIT, $0-48
	MOVQ q+0(FP), AX
	MOVQ dst+8(FP), DI
	MOVQ a+16(FP), SI
	MOVQ w+24(FP), R8
	MOVQ pre+32(FP), R9
	MOVQ n+40(FP), CX
	MOVQ AX, X12
	VPBROADCASTQ X12, Y12

mulpreloop:
	VMOVDQU (SI), Y0
	VMOVDQU (R8), Y1
	VMOVDQU (R9), Y2
	SHOUPMUL(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)
	VMOVDQU Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, R8
	ADDQ    $32, R9
	ADDQ    $32, DI
	SUBQ    $4, CX
	JNZ     mulpreloop
	VZEROUPPER
	RET

// func scalarMulSpanAVX2(q uint64, dst, a *uint64, n int, w, pre uint64)
TEXT ·scalarMulSpanAVX2(SB), NOSPLIT, $0-48
	MOVQ q+0(FP), AX
	MOVQ dst+8(FP), DI
	MOVQ a+16(FP), SI
	MOVQ n+24(FP), CX
	MOVQ AX, X12
	VPBROADCASTQ X12, Y12
	MOVQ $0x8000000000000000, R13
	MOVQ R13, X15
	VPBROADCASTQ X15, Y15
	XORQ R13, AX
	MOVQ AX, X11
	VPBROADCASTQ X11, Y11         // qF
	VPBROADCASTQ w+32(FP), Y10
	VPBROADCASTQ pre+40(FP), Y9

smulloop:
	VMOVDQU (SI), Y0
	SHOUPMUL(Y0, Y10, Y9, Y1, Y2, Y3, Y4, Y5)
	CONDSUB(Y1, Y12, Y11, Y2, Y3)
	VMOVDQU Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JNZ     smulloop
	VZEROUPPER
	RET

// func scaleAddSpanAVX2(q uint64, dst, a, m *uint64, n int, w, pre uint64)
TEXT ·scaleAddSpanAVX2(SB), NOSPLIT, $0-56
	MOVQ q+0(FP), AX
	MOVQ dst+8(FP), DI
	MOVQ a+16(FP), SI
	MOVQ m+24(FP), DX
	MOVQ n+32(FP), CX
	MOVQ AX, X12
	VPBROADCASTQ X12, Y12
	MOVQ $0x8000000000000000, R13
	MOVQ R13, X15
	VPBROADCASTQ X15, Y15
	XORQ R13, AX
	MOVQ AX, X11
	VPBROADCASTQ X11, Y11
	VPBROADCASTQ w+40(FP), Y10
	VPBROADCASTQ pre+48(FP), Y9

saddloop:
	VMOVDQU (DX), Y0              // m
	SHOUPMUL(Y0, Y10, Y9, Y1, Y2, Y3, Y4, Y5)
	CONDSUB(Y1, Y12, Y11, Y2, Y3) // t canonical
	VMOVDQU (SI), Y2              // a
	VPADDQ  Y1, Y2, Y2            // s = a + t
	CONDSUB(Y2, Y12, Y11, Y3, Y4)
	VMOVDQU Y2, (DI)
	ADDQ    $32, DX
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JNZ     saddloop
	VZEROUPPER
	RET

// func normSpanAVX2(q uint64, v *uint64, n int)
TEXT ·normSpanAVX2(SB), NOSPLIT, $0-24
	MOVQ q+0(FP), AX
	MOVQ v+8(FP), DI
	MOVQ n+16(FP), CX
	MOVQ AX, X12
	VPBROADCASTQ X12, Y12
	MOVQ $0x8000000000000000, R13
	MOVQ R13, X15
	VPBROADCASTQ X15, Y15
	XORQ R13, AX
	MOVQ AX, X11
	VPBROADCASTQ X11, Y11

normloop:
	VMOVDQU (DI), Y0
	CONDSUB(Y0, Y12, Y11, Y1, Y2)
	VMOVDQU Y0, (DI)
	ADDQ    $32, DI
	SUBQ    $4, CX
	JNZ     normloop
	VZEROUPPER
	RET

// func ctSpanBlkAVX2(q uint64, out, lo, hi, w, pre *uint64, nBlocks, blk int)
// Compact twiddles: one (w, pre) pair per blk-run, blk a power of two
// >= 8. The unit twiddle of the top stages is a pure add/sub pass.
TEXT ·ctSpanBlkAVX2(SB), NOSPLIT, $0-64
	MOVQ q+0(FP), AX
	MOVQ out+8(FP), DI
	MOVQ lo+16(FP), SI
	MOVQ hi+24(FP), DX
	MOVQ w+32(FP), R8
	MOVQ pre+40(FP), R9
	MOVQ nBlocks+48(FP), CX
	MOVQ blk+56(FP), R10
	LAZYCONSTS

ctbblock:
	MOVQ (R8), R12                // wb
	MOVQ R10, R11
	CMPQ R12, $1
	JEQ  ctbunit
	VPBROADCASTQ (R8), Y11        // w
	VPBROADCASTQ (R9), Y10        // pre

ctbgen:
	VMOVDQU (SI), Y0
	VMOVDQU (DX), Y1
	VPADDQ  Y1, Y0, Y4
	CONDSUB(Y4, Y14, Y13, Y5, Y6)
	VPADDQ  Y14, Y0, Y5
	VPSUBQ  Y1, Y5, Y5
	SHOUPMUL(Y5, Y11, Y10, Y6, Y7, Y8, Y9, Y0)
	VPUNPCKLQDQ Y6, Y4, Y0
	VPUNPCKHQDQ Y6, Y4, Y1
	VPERM2I128  $0x20, Y1, Y0, Y2
	VPERM2I128  $0x31, Y1, Y0, Y3
	VMOVDQU Y2, (DI)
	VMOVDQU Y3, 32(DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $64, DI
	SUBQ    $4, R11
	JNZ     ctbgen
	JMP     ctbnext

ctbunit:
	VMOVDQU (SI), Y0
	VMOVDQU (DX), Y1
	VPADDQ  Y1, Y0, Y4            // s = a + c
	CONDSUB(Y4, Y14, Y13, Y5, Y6)
	VPADDQ  Y14, Y0, Y5
	VPSUBQ  Y1, Y5, Y5            // d = a + 2q - c
	CONDSUB(Y5, Y14, Y13, Y6, Y7)
	VPUNPCKLQDQ Y5, Y4, Y0
	VPUNPCKHQDQ Y5, Y4, Y1
	VPERM2I128  $0x20, Y1, Y0, Y2
	VPERM2I128  $0x31, Y1, Y0, Y3
	VMOVDQU Y2, (DI)
	VMOVDQU Y3, 32(DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $64, DI
	SUBQ    $4, R11
	JNZ     ctbunit

ctbnext:
	ADDQ $8, R8
	ADDQ $8, R9
	DECQ CX
	JNZ  ctbblock
	VZEROUPPER
	RET

// func macFinal2SpanAVX2(q uint64, accA, accB, lo, hi, wA, preA, wB, preB *uint64, n int)
// Fused final-stage MAC: the unit-twiddle add/sub pass (canonical s and
// d, two condsubs each from relaxed inputs) interleaved exactly as
// ctSpanAVX2 interleaves (s, t), then the two-row lazy Shoup MAC folded
// into accA/accB with plain wrapping adds — the raw 64-bit accumulator
// discipline of NegacyclicForwardMAC2. n counts butterflies (multiple
// of 4); acc/w/pre advance at 2n.
TEXT ·macFinal2SpanAVX2(SB), NOSPLIT, $0-80
	MOVQ q+0(FP), AX
	MOVQ accA+8(FP), DI
	MOVQ accB+16(FP), SI
	MOVQ lo+24(FP), DX
	MOVQ hi+32(FP), R10
	MOVQ wA+40(FP), R8
	MOVQ preA+48(FP), R9
	MOVQ wB+56(FP), R11
	MOVQ preB+64(FP), R12
	MOVQ n+72(FP), CX
	LAZYCONSTS
	XORQ R13, AX                  // qF = q^2^63 (R13 still 2^63)
	MOVQ AX, X11
	VPBROADCASTQ X11, Y11

macloop:
	VMOVDQU (DX), Y0              // a
	VMOVDQU (R10), Y1             // b
	VPADDQ  Y1, Y0, Y4            // s = a + b
	CONDSUB(Y4, Y14, Y13, Y5, Y6)
	CONDSUB(Y4, Y12, Y11, Y5, Y6)
	VPADDQ  Y14, Y0, Y5
	VPSUBQ  Y1, Y5, Y5            // d = a + 2q - b
	CONDSUB(Y5, Y14, Y13, Y6, Y7)
	CONDSUB(Y5, Y12, Y11, Y6, Y7)
	VPUNPCKLQDQ Y5, Y4, Y0        // s0 d0 s2 d2
	VPUNPCKHQDQ Y5, Y4, Y1        // s1 d1 s3 d3
	VPERM2I128  $0x20, Y1, Y0, Y2 // v0 = s0 d0 s1 d1
	VPERM2I128  $0x31, Y1, Y0, Y3 // v1 = s2 d2 s3 d3
	VMOVDQU (R8), Y0              // wA
	VMOVDQU (R9), Y1              // preA
	SHOUPMUL(Y2, Y0, Y1, Y4, Y5, Y6, Y7, Y8)
	VMOVDQU (DI), Y0
	VPADDQ  Y4, Y0, Y0            // accA += summand (wrapping)
	VMOVDQU Y0, (DI)
	VMOVDQU 32(R8), Y0
	VMOVDQU 32(R9), Y1
	SHOUPMUL(Y3, Y0, Y1, Y4, Y5, Y6, Y7, Y8)
	VMOVDQU 32(DI), Y0
	VPADDQ  Y4, Y0, Y0
	VMOVDQU Y0, 32(DI)
	VMOVDQU (R11), Y0             // wB
	VMOVDQU (R12), Y1             // preB
	SHOUPMUL(Y2, Y0, Y1, Y4, Y5, Y6, Y7, Y8)
	VMOVDQU (SI), Y0
	VPADDQ  Y4, Y0, Y0
	VMOVDQU Y0, (SI)
	VMOVDQU 32(R11), Y0
	VMOVDQU 32(R12), Y1
	SHOUPMUL(Y3, Y0, Y1, Y4, Y5, Y6, Y7, Y8)
	VMOVDQU 32(SI), Y0
	VPADDQ  Y4, Y0, Y0
	VMOVDQU Y0, 32(SI)
	ADDQ    $32, DX
	ADDQ    $32, R10
	ADDQ    $64, R8
	ADDQ    $64, R9
	ADDQ    $64, R11
	ADDQ    $64, R12
	ADDQ    $64, DI
	ADDQ    $64, SI
	SUBQ    $4, CX
	JNZ     macloop
	VZEROUPPER
	RET

// func gsSpanBlkAVX2(q uint64, oLo, oHi, in, w, pre *uint64, nBlocks, blk int)
TEXT ·gsSpanBlkAVX2(SB), NOSPLIT, $0-64
	MOVQ q+0(FP), AX
	MOVQ oLo+8(FP), DI
	MOVQ oHi+16(FP), SI
	MOVQ in+24(FP), DX
	MOVQ w+32(FP), R8
	MOVQ pre+40(FP), R9
	MOVQ nBlocks+48(FP), CX
	MOVQ blk+56(FP), R10
	LAZYCONSTS

gsbblock:
	MOVQ (R8), R12
	MOVQ R10, R11
	CMPQ R12, $1
	JEQ  gsbunit
	VPBROADCASTQ (R8), Y11
	VPBROADCASTQ (R9), Y10

gsbgen:
	VMOVDQU (DX), Y0
	VMOVDQU 32(DX), Y1
	VPUNPCKLQDQ Y1, Y0, Y2
	VPERMQ  $0xD8, Y2, Y2         // e
	VPUNPCKHQDQ Y1, Y0, Y3
	VPERMQ  $0xD8, Y3, Y3         // o
	SHOUPMUL(Y3, Y11, Y10, Y4, Y5, Y6, Y7, Y8)
	VPADDQ  Y4, Y2, Y5
	CONDSUB(Y5, Y14, Y13, Y6, Y7)
	VPADDQ  Y14, Y2, Y6
	VPSUBQ  Y4, Y6, Y6
	CONDSUB(Y6, Y14, Y13, Y7, Y8)
	VMOVDQU Y5, (DI)
	VMOVDQU Y6, (SI)
	ADDQ    $64, DX
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $4, R11
	JNZ     gsbgen
	JMP     gsbnext

gsbunit:
	VMOVDQU (DX), Y0
	VMOVDQU 32(DX), Y1
	VPUNPCKLQDQ Y1, Y0, Y2
	VPERMQ  $0xD8, Y2, Y2         // e
	VPUNPCKHQDQ Y1, Y0, Y3
	VPERMQ  $0xD8, Y3, Y3         // o, already in [0, 2q): t = o
	VPADDQ  Y3, Y2, Y5            // lo = e + o
	CONDSUB(Y5, Y14, Y13, Y6, Y7)
	VPADDQ  Y14, Y2, Y6
	VPSUBQ  Y3, Y6, Y6            // hi = e + 2q - o
	CONDSUB(Y6, Y14, Y13, Y7, Y8)
	VMOVDQU Y5, (DI)
	VMOVDQU Y6, (SI)
	ADDQ    $64, DX
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $4, R11
	JNZ     gsbunit

gsbnext:
	ADDQ $8, R8
	ADDQ $8, R9
	DECQ CX
	JNZ  gsbblock
	VZEROUPPER
	RET

// func affineRowsSpanAVX2(q uint64, dst *uint64, c0 uint64, rows *[]uint64, w, pre *uint64, nrows, n int)
// Affine combination of rows, 4-lane layout: see the AVX-512 variant.
// Constants: LAZYCONSTS plus Y11 = q^2^63 for the canonical landing and
// Y10 = c0. n is a multiple of 4, nrows >= 1.
TEXT ·affineRowsSpanAVX2(SB), NOSPLIT, $0-64
	MOVQ q+0(FP), AX
	MOVQ dst+8(FP), DI
	MOVQ rows+24(FP), SI
	MOVQ w+32(FP), R8
	MOVQ pre+40(FP), R9
	MOVQ nrows+48(FP), R10
	MOVQ n+56(FP), CX
	LAZYCONSTS
	XORQ R13, AX                  // qF = q^2^63 (R13 still 2^63)
	MOVQ AX, X11
	VPBROADCASTQ X11, Y11
	VPBROADCASTQ c0+16(FP), Y10
	XORQ BX, BX                   // byte offset into dst and every row

afelem:
	VMOVDQA Y10, Y0               // acc = c0
	MOVQ    SI, R11               // slice-header cursor
	XORQ    R12, R12              // r

afrow:
	MOVQ         (R11), R13       // rows[r] data pointer
	VMOVDQU      (R13)(BX*1), Y1  // x
	VPBROADCASTQ (R8)(R12*8), Y2  // w[r]
	VPBROADCASTQ (R9)(R12*8), Y3  // pre[r]
	SHOUPMUL(Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y8)
	VPADDQ       Y4, Y0, Y0       // acc + t < 4q
	CONDSUB(Y0, Y14, Y13, Y5, Y6) // < 2q
	ADDQ         $24, R11
	INCQ         R12
	CMPQ         R12, R10
	JLT          afrow
	CONDSUB(Y0, Y12, Y11, Y5, Y6) // canonical
	VMOVDQU      Y0, (DI)(BX*1)
	ADDQ         $32, BX
	SUBQ         $4, CX
	JNZ          afelem
	VZEROUPPER
	RET
