// AVX-512 span kernels for Shoup64 (8 lanes per iteration). Requires
// AVX512F (VPMINUQ, VPERMT2Q, EVEX loads) + AVX512DQ (VPMULLQ); the
// selector only hands these out when CPUID proves both.
//
// Lane discipline mirrors internal/kernels/backend512: 64x64->high-64
// is emulated with four VPMULUDQ partial products (identical wrapping
// arithmetic to bits.Mul64), and every conditional subtract is the
// branchless x = min(x, x-c), which is correct for ANY x because the
// subtraction wraps above x exactly when x < c.

#include "textflag.h"

// VPERMT2Q index tables. Indices 0-7 pick from table A (the
// destination register), 8-15 from table B (the source operand).
DATA ·nttIlvLo+0(SB)/8, $0
DATA ·nttIlvLo+8(SB)/8, $8
DATA ·nttIlvLo+16(SB)/8, $1
DATA ·nttIlvLo+24(SB)/8, $9
DATA ·nttIlvLo+32(SB)/8, $2
DATA ·nttIlvLo+40(SB)/8, $10
DATA ·nttIlvLo+48(SB)/8, $3
DATA ·nttIlvLo+56(SB)/8, $11
GLOBL ·nttIlvLo(SB), RODATA|NOPTR, $64

DATA ·nttIlvHi+0(SB)/8, $4
DATA ·nttIlvHi+8(SB)/8, $12
DATA ·nttIlvHi+16(SB)/8, $5
DATA ·nttIlvHi+24(SB)/8, $13
DATA ·nttIlvHi+32(SB)/8, $6
DATA ·nttIlvHi+40(SB)/8, $14
DATA ·nttIlvHi+48(SB)/8, $7
DATA ·nttIlvHi+56(SB)/8, $15
GLOBL ·nttIlvHi(SB), RODATA|NOPTR, $64

DATA ·nttDeEven+0(SB)/8, $0
DATA ·nttDeEven+8(SB)/8, $2
DATA ·nttDeEven+16(SB)/8, $4
DATA ·nttDeEven+24(SB)/8, $6
DATA ·nttDeEven+32(SB)/8, $8
DATA ·nttDeEven+40(SB)/8, $10
DATA ·nttDeEven+48(SB)/8, $12
DATA ·nttDeEven+56(SB)/8, $14
GLOBL ·nttDeEven(SB), RODATA|NOPTR, $64

DATA ·nttDeOdd+0(SB)/8, $1
DATA ·nttDeOdd+8(SB)/8, $3
DATA ·nttDeOdd+16(SB)/8, $5
DATA ·nttDeOdd+24(SB)/8, $7
DATA ·nttDeOdd+32(SB)/8, $9
DATA ·nttDeOdd+40(SB)/8, $11
DATA ·nttDeOdd+48(SB)/8, $13
DATA ·nttDeOdd+56(SB)/8, $15
GLOBL ·nttDeOdd(SB), RODATA|NOPTR, $64

// MULHI64 hi = floor(a*b / 2^64) via 32-bit partial products, exactly
// bits.Mul64's high word. Preserves a and b; t1-t3 are scratch.
// ah=t1, bh=t2; hh + carries of (hl + ll>>32) and (lh + midlo).
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

// CONDSUB x = min(x, x - c): subtract c where x >= c, branchless.
#define CONDSUB(x, c, t) \
	VPSUBQ  c, x, t; \
	VPMINUQ t, x, x

// SHOUPMUL out = d*w - mulhi(d, pre)*q, in [0, 2q) for any 64-bit d.
// Expects q broadcast in Z31. Preserves d, w, pre.
#define SHOUPMUL(d, w, pre, out, t1, t2, t3, t4) \
	MULHI64(d, pre, t4, t1, t2, t3); \
	VPMULLQ w, d, out;   \
	VPMULLQ Z31, t4, t4; \
	VPSUBQ  t4, out, out

// func ctSpanAVX512(q uint64, out, lo, hi, w, pre *uint64, n int)
TEXT ·ctSpanAVX512(SB), NOSPLIT, $0-56
	MOVQ q+0(FP), AX
	MOVQ out+8(FP), DI
	MOVQ lo+16(FP), SI
	MOVQ hi+24(FP), DX
	MOVQ w+32(FP), R8
	MOVQ pre+40(FP), R9
	MOVQ n+48(FP), CX
	VPBROADCASTQ AX, Z31          // q
	VPADDQ       Z31, Z31, Z30   // 2q
	VMOVDQU64    ·nttIlvLo(SB), Z29
	VMOVDQU64    ·nttIlvHi(SB), Z28

ctloop:
	VMOVDQU64 (SI), Z0            // a
	VMOVDQU64 (DX), Z1            // b
	VMOVDQU64 (R8), Z2            // w
	VMOVDQU64 (R9), Z3            // pre
	VPADDQ    Z1, Z0, Z4          // s = a + b
	CONDSUB(Z4, Z30, Z5)
	VPADDQ    Z30, Z0, Z5
	VPSUBQ    Z1, Z5, Z5          // d = a + 2q - b
	SHOUPMUL(Z5, Z2, Z3, Z6, Z7, Z8, Z9, Z10) // t
	VMOVDQA64 Z4, Z7
	VPERMT2Q  Z6, Z29, Z7         // s0 t0 s1 t1 s2 t2 s3 t3
	VPERMT2Q  Z6, Z28, Z4         // s4 t4 ... s7 t7
	VMOVDQU64 Z7, (DI)
	VMOVDQU64 Z4, 64(DI)
	ADDQ      $64, SI
	ADDQ      $64, DX
	ADDQ      $64, R8
	ADDQ      $64, R9
	ADDQ      $128, DI
	SUBQ      $8, CX
	JNZ       ctloop
	VZEROUPPER
	RET

// func gsSpanAVX512(q uint64, oLo, oHi, in, w, pre *uint64, n int)
TEXT ·gsSpanAVX512(SB), NOSPLIT, $0-56
	MOVQ q+0(FP), AX
	MOVQ oLo+8(FP), DI
	MOVQ oHi+16(FP), SI
	MOVQ in+24(FP), DX
	MOVQ w+32(FP), R8
	MOVQ pre+40(FP), R9
	MOVQ n+48(FP), CX
	VPBROADCASTQ AX, Z31
	VPADDQ       Z31, Z31, Z30
	VMOVDQU64    ·nttDeEven(SB), Z29
	VMOVDQU64    ·nttDeOdd(SB), Z28

gsloop:
	VMOVDQU64 (DX), Z0            // e0 o0 ... e3 o3
	VMOVDQU64 64(DX), Z1          // e4 o4 ... e7 o7
	VMOVDQA64 Z0, Z2
	VPERMT2Q  Z1, Z29, Z2         // e
	VPERMT2Q  Z1, Z28, Z0         // o
	VMOVDQU64 (R8), Z3            // w
	VMOVDQU64 (R9), Z4            // pre
	SHOUPMUL(Z0, Z3, Z4, Z5, Z6, Z7, Z8, Z9) // t in [0, 2q)
	VPADDQ    Z5, Z2, Z6          // lo = e + t
	CONDSUB(Z6, Z30, Z7)
	VPADDQ    Z30, Z2, Z7
	VPSUBQ    Z5, Z7, Z7          // hi = e + 2q - t
	CONDSUB(Z7, Z30, Z8)
	VMOVDQU64 Z6, (DI)
	VMOVDQU64 Z7, (SI)
	ADDQ      $128, DX
	ADDQ      $64, DI
	ADDQ      $64, SI
	ADDQ      $64, R8
	ADDQ      $64, R9
	SUBQ      $8, CX
	JNZ       gsloop
	VZEROUPPER
	RET

// func mulSpanAVX512(q, mu uint64, dst, a, b *uint64, n int, s1, s2, s3, s4 uint64)
// Barrett: t1 = lo>>s1 | hi<<s2; qhat = l2>>s3 | h2<<s4 with
// (h2, l2) = t1*mu; r = lo - qhat*q, then two condsubs (r < 3q).
TEXT ·mulSpanAVX512(SB), NOSPLIT, $0-80
	MOVQ q+0(FP), AX
	MOVQ dst+16(FP), DI
	MOVQ a+24(FP), SI
	MOVQ b+32(FP), DX
	MOVQ n+40(FP), CX
	VPBROADCASTQ AX, Z31
	VPBROADCASTQ mu+8(FP), Z25
	VMOVQ        s1+48(FP), X20
	VMOVQ        s2+56(FP), X21
	VMOVQ        s3+64(FP), X22
	VMOVQ        s4+72(FP), X23

mulloop:
	VMOVDQU64 (SI), Z0            // a
	VMOVDQU64 (DX), Z1            // b
	VPMULLQ   Z1, Z0, Z2          // lo
	MULHI64(Z0, Z1, Z3, Z4, Z5, Z6) // hi
	VPSRLQ    X20, Z2, Z4
	VPSLLQ    X21, Z3, Z5
	VPORQ     Z5, Z4, Z4          // t1
	VPMULLQ   Z25, Z4, Z5         // l2
	MULHI64(Z4, Z25, Z6, Z7, Z8, Z9) // h2
	VPSRLQ    X22, Z5, Z5
	VPSLLQ    X23, Z6, Z6
	VPORQ     Z6, Z5, Z5          // qhat
	VPMULLQ   Z31, Z5, Z5
	VPSUBQ    Z5, Z2, Z2          // r = lo - qhat*q
	CONDSUB(Z2, Z31, Z3)
	CONDSUB(Z2, Z31, Z3)
	VMOVDQU64 Z2, (DI)
	ADDQ      $64, SI
	ADDQ      $64, DX
	ADDQ      $64, DI
	SUBQ      $8, CX
	JNZ       mulloop
	VZEROUPPER
	RET

// func mulPreSpanAVX512(q uint64, dst, a, w, pre *uint64, n int)
TEXT ·mulPreSpanAVX512(SB), NOSPLIT, $0-48
	MOVQ q+0(FP), AX
	MOVQ dst+8(FP), DI
	MOVQ a+16(FP), SI
	MOVQ w+24(FP), R8
	MOVQ pre+32(FP), R9
	MOVQ n+40(FP), CX
	VPBROADCASTQ AX, Z31

mulpreloop:
	VMOVDQU64 (SI), Z0
	VMOVDQU64 (R8), Z1
	VMOVDQU64 (R9), Z2
	SHOUPMUL(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	VMOVDQU64 Z3, (DI)
	ADDQ      $64, SI
	ADDQ      $64, R8
	ADDQ      $64, R9
	ADDQ      $64, DI
	SUBQ      $8, CX
	JNZ       mulpreloop
	VZEROUPPER
	RET

// func scalarMulSpanAVX512(q uint64, dst, a *uint64, n int, w, pre uint64)
TEXT ·scalarMulSpanAVX512(SB), NOSPLIT, $0-48
	MOVQ q+0(FP), AX
	MOVQ dst+8(FP), DI
	MOVQ a+16(FP), SI
	MOVQ n+24(FP), CX
	VPBROADCASTQ AX, Z31
	VPBROADCASTQ w+32(FP), Z29
	VPBROADCASTQ pre+40(FP), Z28

smulloop:
	VMOVDQU64 (SI), Z0
	SHOUPMUL(Z0, Z29, Z28, Z1, Z2, Z3, Z4, Z5)
	CONDSUB(Z1, Z31, Z2)
	VMOVDQU64 Z1, (DI)
	ADDQ      $64, SI
	ADDQ      $64, DI
	SUBQ      $8, CX
	JNZ       smulloop
	VZEROUPPER
	RET

// func scaleAddSpanAVX512(q uint64, dst, a, m *uint64, n int, w, pre uint64)
TEXT ·scaleAddSpanAVX512(SB), NOSPLIT, $0-56
	MOVQ q+0(FP), AX
	MOVQ dst+8(FP), DI
	MOVQ a+16(FP), SI
	MOVQ m+24(FP), DX
	MOVQ n+32(FP), CX
	VPBROADCASTQ AX, Z31
	VPBROADCASTQ w+40(FP), Z29
	VPBROADCASTQ pre+48(FP), Z28

saddloop:
	VMOVDQU64 (DX), Z0            // m
	SHOUPMUL(Z0, Z29, Z28, Z1, Z2, Z3, Z4, Z5)
	CONDSUB(Z1, Z31, Z2)          // t canonical
	VMOVDQU64 (SI), Z2            // a
	VPADDQ    Z1, Z2, Z2          // s = a + t
	CONDSUB(Z2, Z31, Z3)
	VMOVDQU64 Z2, (DI)
	ADDQ      $64, DX
	ADDQ      $64, SI
	ADDQ      $64, DI
	SUBQ      $8, CX
	JNZ       saddloop
	VZEROUPPER
	RET

// func normSpanAVX512(q uint64, v *uint64, n int)
TEXT ·normSpanAVX512(SB), NOSPLIT, $0-24
	MOVQ q+0(FP), AX
	MOVQ v+8(FP), DI
	MOVQ n+16(FP), CX
	VPBROADCASTQ AX, Z31

normloop:
	VMOVDQU64 (DI), Z0
	CONDSUB(Z0, Z31, Z1)
	VMOVDQU64 Z0, (DI)
	ADDQ      $64, DI
	SUBQ      $8, CX
	JNZ       normloop
	VZEROUPPER
	RET

// func ctSpanBlkAVX512(q uint64, out, lo, hi, w, pre *uint64, nBlocks, blk int)
// Compact twiddles: one (w, pre) pair per blk-run. blk is a power of two
// >= 8 (the plan's dispatch floor), so the inner loops run whole vectors.
// The unit twiddle of the top stages degenerates to a pure add/sub pass.
TEXT ·ctSpanBlkAVX512(SB), NOSPLIT, $0-64
	MOVQ q+0(FP), AX
	MOVQ out+8(FP), DI
	MOVQ lo+16(FP), SI
	MOVQ hi+24(FP), DX
	MOVQ w+32(FP), R8
	MOVQ pre+40(FP), R9
	MOVQ nBlocks+48(FP), CX
	MOVQ blk+56(FP), R10
	VPBROADCASTQ AX, Z31
	VPADDQ       Z31, Z31, Z30
	VMOVDQU64    ·nttIlvLo(SB), Z29
	VMOVDQU64    ·nttIlvHi(SB), Z28

ctbblock:
	MOVQ (R8), R12                // wb
	MOVQ R10, R11                 // inner countdown
	CMPQ R12, $1
	JEQ  ctbunit
	VPBROADCASTQ R12, Z27
	VPBROADCASTQ (R9), Z26

ctbgen:
	VMOVDQU64 (SI), Z0
	VMOVDQU64 (DX), Z1
	VPADDQ    Z1, Z0, Z4
	CONDSUB(Z4, Z30, Z5)
	VPADDQ    Z30, Z0, Z5
	VPSUBQ    Z1, Z5, Z5
	SHOUPMUL(Z5, Z27, Z26, Z6, Z7, Z8, Z9, Z10)
	VMOVDQA64 Z4, Z7
	VPERMT2Q  Z6, Z29, Z7
	VPERMT2Q  Z6, Z28, Z4
	VMOVDQU64 Z7, (DI)
	VMOVDQU64 Z4, 64(DI)
	ADDQ      $64, SI
	ADDQ      $64, DX
	ADDQ      $128, DI
	SUBQ      $8, R11
	JNZ       ctbgen
	JMP       ctbnext

ctbunit:
	VMOVDQU64 (SI), Z0
	VMOVDQU64 (DX), Z1
	VPADDQ    Z1, Z0, Z4          // s = a + c
	CONDSUB(Z4, Z30, Z5)
	VPADDQ    Z30, Z0, Z5
	VPSUBQ    Z1, Z5, Z5          // d = a + 2q - c
	CONDSUB(Z5, Z30, Z6)
	VMOVDQA64 Z4, Z7
	VPERMT2Q  Z5, Z29, Z7
	VPERMT2Q  Z5, Z28, Z4
	VMOVDQU64 Z7, (DI)
	VMOVDQU64 Z4, 64(DI)
	ADDQ      $64, SI
	ADDQ      $64, DX
	ADDQ      $128, DI
	SUBQ      $8, R11
	JNZ       ctbunit

ctbnext:
	ADDQ $8, R8
	ADDQ $8, R9
	DECQ CX
	JNZ  ctbblock
	VZEROUPPER
	RET

// func macFinal2SpanAVX512(q uint64, accA, accB, lo, hi, wA, preA, wB, preB *uint64, n int)
// Fused final-stage MAC: the unit-twiddle add/sub pass (canonical s and
// d, two condsubs each from relaxed inputs) interleaved through the
// ·nttIlv tables exactly as ctSpanAVX512, then the two-row lazy Shoup
// MAC folded into accA/accB with plain wrapping adds — the raw 64-bit
// accumulator discipline of NegacyclicForwardMAC2. n counts butterflies
// (multiple of 8); acc/w/pre advance at 2n.
TEXT ·macFinal2SpanAVX512(SB), NOSPLIT, $0-80
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
	VPBROADCASTQ AX, Z31          // q
	VPADDQ       Z31, Z31, Z30   // 2q
	VMOVDQU64    ·nttIlvLo(SB), Z29
	VMOVDQU64    ·nttIlvHi(SB), Z28

macloop:
	VMOVDQU64 (DX), Z0            // a
	VMOVDQU64 (R10), Z1           // b
	VPADDQ    Z1, Z0, Z4          // s = a + b
	CONDSUB(Z4, Z30, Z5)
	CONDSUB(Z4, Z31, Z5)
	VPADDQ    Z30, Z0, Z5
	VPSUBQ    Z1, Z5, Z5          // d = a + 2q - b
	CONDSUB(Z5, Z30, Z6)
	CONDSUB(Z5, Z31, Z6)
	VMOVDQA64 Z4, Z2
	VPERMT2Q  Z5, Z29, Z2         // v0 = s0 d0 .. s3 d3
	VPERMT2Q  Z5, Z28, Z4         // v1 = s4 d4 .. s7 d7
	VMOVDQU64 (R8), Z0            // wA
	VMOVDQU64 (R9), Z1            // preA
	SHOUPMUL(Z2, Z0, Z1, Z5, Z6, Z7, Z8, Z9)
	VMOVDQU64 (DI), Z0
	VPADDQ    Z5, Z0, Z0          // accA += summand (wrapping)
	VMOVDQU64 Z0, (DI)
	VMOVDQU64 64(R8), Z0
	VMOVDQU64 64(R9), Z1
	SHOUPMUL(Z4, Z0, Z1, Z5, Z6, Z7, Z8, Z9)
	VMOVDQU64 64(DI), Z0
	VPADDQ    Z5, Z0, Z0
	VMOVDQU64 Z0, 64(DI)
	VMOVDQU64 (R11), Z0           // wB
	VMOVDQU64 (R12), Z1           // preB
	SHOUPMUL(Z2, Z0, Z1, Z5, Z6, Z7, Z8, Z9)
	VMOVDQU64 (SI), Z0
	VPADDQ    Z5, Z0, Z0
	VMOVDQU64 Z0, (SI)
	VMOVDQU64 64(R11), Z0
	VMOVDQU64 64(R12), Z1
	SHOUPMUL(Z4, Z0, Z1, Z5, Z6, Z7, Z8, Z9)
	VMOVDQU64 64(SI), Z0
	VPADDQ    Z5, Z0, Z0
	VMOVDQU64 Z0, 64(SI)
	ADDQ      $64, DX
	ADDQ      $64, R10
	ADDQ      $128, R8
	ADDQ      $128, R9
	ADDQ      $128, R11
	ADDQ      $128, R12
	ADDQ      $128, DI
	ADDQ      $128, SI
	SUBQ      $8, CX
	JNZ       macloop
	VZEROUPPER
	RET

// func gsSpanBlkAVX512(q uint64, oLo, oHi, in, w, pre *uint64, nBlocks, blk int)
TEXT ·gsSpanBlkAVX512(SB), NOSPLIT, $0-64
	MOVQ q+0(FP), AX
	MOVQ oLo+8(FP), DI
	MOVQ oHi+16(FP), SI
	MOVQ in+24(FP), DX
	MOVQ w+32(FP), R8
	MOVQ pre+40(FP), R9
	MOVQ nBlocks+48(FP), CX
	MOVQ blk+56(FP), R10
	VPBROADCASTQ AX, Z31
	VPADDQ       Z31, Z31, Z30
	VMOVDQU64    ·nttDeEven(SB), Z29
	VMOVDQU64    ·nttDeOdd(SB), Z28

gsbblock:
	MOVQ (R8), R12
	MOVQ R10, R11
	CMPQ R12, $1
	JEQ  gsbunit
	VPBROADCASTQ R12, Z27
	VPBROADCASTQ (R9), Z26

gsbgen:
	VMOVDQU64 (DX), Z0
	VMOVDQU64 64(DX), Z1
	VMOVDQA64 Z0, Z2
	VPERMT2Q  Z1, Z29, Z2         // e
	VPERMT2Q  Z1, Z28, Z0         // o
	SHOUPMUL(Z0, Z27, Z26, Z5, Z6, Z7, Z8, Z9)
	VPADDQ    Z5, Z2, Z6
	CONDSUB(Z6, Z30, Z7)
	VPADDQ    Z30, Z2, Z7
	VPSUBQ    Z5, Z7, Z7
	CONDSUB(Z7, Z30, Z8)
	VMOVDQU64 Z6, (DI)
	VMOVDQU64 Z7, (SI)
	ADDQ      $128, DX
	ADDQ      $64, DI
	ADDQ      $64, SI
	SUBQ      $8, R11
	JNZ       gsbgen
	JMP       gsbnext

gsbunit:
	VMOVDQU64 (DX), Z0
	VMOVDQU64 64(DX), Z1
	VMOVDQA64 Z0, Z2
	VPERMT2Q  Z1, Z29, Z2         // e
	VPERMT2Q  Z1, Z28, Z0         // o, already in [0, 2q): t = o
	VPADDQ    Z0, Z2, Z6          // lo = e + o
	CONDSUB(Z6, Z30, Z7)
	VPADDQ    Z30, Z2, Z7
	VPSUBQ    Z0, Z7, Z7          // hi = e + 2q - o
	CONDSUB(Z7, Z30, Z8)
	VMOVDQU64 Z6, (DI)
	VMOVDQU64 Z7, (SI)
	ADDQ      $128, DX
	ADDQ      $64, DI
	ADDQ      $64, SI
	SUBQ      $8, R11
	JNZ       gsbunit

gsbnext:
	ADDQ $8, R8
	ADDQ $8, R9
	DECQ CX
	JNZ  gsbblock
	VZEROUPPER
	RET

// func affineRowsSpanAVX512(q uint64, dst *uint64, c0 uint64, rows *[]uint64, w, pre *uint64, nrows, n int)
// Affine combination of rows: dst[i] = c0 + sum_r rows[r][i]*w[r] mod q,
// canonical. rows points at nrows slice headers (24 bytes each, data
// pointer first); (w[r], pre[r]) are broadcast per row. The accumulator
// stays in Z0 across the row loop: each lazy Shoup summand is < 2q, one
// CONDSUB by 2q per term keeps acc < 2q (acc + t < 4q never wraps), and
// one CONDSUB by q lands the canonical residue. n is a multiple of 8,
// nrows >= 1. Element i of every row is loaded before dst[i] is stored,
// so dst may alias a row.
TEXT ·affineRowsSpanAVX512(SB), NOSPLIT, $0-64
	MOVQ q+0(FP), AX
	MOVQ dst+8(FP), DI
	MOVQ rows+24(FP), SI
	MOVQ w+32(FP), R8
	MOVQ pre+40(FP), R9
	MOVQ nrows+48(FP), R10
	MOVQ n+56(FP), CX
	VPBROADCASTQ AX, Z31          // q
	VPADDQ       Z31, Z31, Z30   // 2q
	VPBROADCASTQ c0+16(FP), Z29
	XORQ         BX, BX           // byte offset into dst and every row

afelem:
	VMOVDQA64 Z29, Z0             // acc = c0
	MOVQ      SI, R11             // slice-header cursor
	XORQ      R12, R12            // r

afrow:
	MOVQ         (R11), R13       // rows[r] data pointer
	VMOVDQU64    (R13)(BX*1), Z1  // x
	VPBROADCASTQ (R8)(R12*8), Z2  // w[r]
	VPBROADCASTQ (R9)(R12*8), Z3  // pre[r]
	SHOUPMUL(Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8)
	VPADDQ       Z4, Z0, Z0       // acc + t < 4q
	CONDSUB(Z0, Z30, Z5)          // < 2q
	ADDQ         $24, R11
	INCQ         R12
	CMPQ         R12, R10
	JLT          afrow
	CONDSUB(Z0, Z31, Z5)          // canonical
	VMOVDQU64    Z0, (DI)(BX*1)
	ADDQ         $64, BX
	SUBQ         $8, CX
	JNZ          afelem
	VZEROUPPER
	RET
