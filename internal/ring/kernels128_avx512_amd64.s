// AVX-512 span kernels for Barrett128 (8 lanes per iteration). Requires
// AVX512F (EVEX, VPCMPUQ, VPERMI2Q/VPERMT2Q, masked adds) + AVX512DQ
// (VPMULLQ, VPMOVQ2M); Barrett128.vecLen only hands spans over when the
// resolved tier is avx512 and the modulus has 65 to 124 bits.
//
// Every lane runs modmath.MulBarrett128Words step for step, so the result
// is the canonical residue the scalar loop returns:
//
//	t  = a*b                      four 64x64->128 word products
//	x  = t >> (n-1)               word select (n-1 >= 64) + sub-word shift
//	qh = (x*mu) >> (n+1)          exact quotient estimate
//	r  = t - qh*q  (mod 2^128)    r < 3q
//	r  = r - q where r >= q, twice
//
// A 64x64->128 product is four VPMULUDQ partial products (MULW). In a
// 128x128 product the two cross products are summed first: for q <= 2^124
// the high words of a, b (< 2^60), x and mu (< 2^61) keep every cross
// product below 2^125, so both low carries fold into the cross sum's high
// word without overflow and only the top column needs a carry compare. A
// carry is taken with VPCMPUQ (sum < addend) and added as a masked +1.
// The shift amounts arrive as XMM counts (a count of 64 zeroes the lane,
// which covers n-1 = 64 exactly). A residue's sign test is the top bit of
// its high word: with q <= 2^124 every high word compared stays below
// 2^62, so a borrow out of the 128-bit difference shows there.
//
// Register map (all kernels):
//
//	Z0-Z12   scratch; MULMOD takes a in Z0 (hi), Z1 (lo), returns in Z0, Z1
//	Z14-Z17  the second operand b and its high dwords (bHi, bLo, bHi>>32, bLo>>32)
//	Z18-Z19  the butterfly value held across a multiply
//	X20-X23  shift counts 64-b', b', 64-b, b (n-1 = 64+b, n+1 = 64+b')
//	Z24      broadcast 1
//	Z25-Z27  muHi>>32, muLo>>32, qLo>>32
//	Z28-Z31  muHi, muLo, qHi, qLo
//	K6, K7   even / odd dword lanes
//
// Rows are AoS u128 (Hi, Lo); loads deinterleave and stores interleave
// with the VPERMI2Q/VPERMT2Q index tables of kernels64_avx512_amd64.s.

#include "textflag.h"

// B128SETUP loads the register file from the barrett128Consts at c:
// qHi 0, qLo 8, muHi 16, muLo 24, nm1 32, np1 40. A VPBROADCASTD of a
// word's upper dword puts word>>32 in every lane's low dword, which is
// all VPMULUDQ reads.
#define B128SETUP(c) \
	VPBROADCASTQ 8(c), Z31;  \
	VPBROADCASTQ 0(c), Z30;  \
	VPBROADCASTQ 24(c), Z29; \
	VPBROADCASTQ 16(c), Z28; \
	VPBROADCASTD 12(c), Z27; \
	VPBROADCASTD 28(c), Z26; \
	VPBROADCASTD 20(c), Z25; \
	MOVQ         $1, AX;     \
	VPBROADCASTQ AX, Z24;    \
	MOVQ         32(c), AX;  \
	SUBQ         $64, AX;    \
	VMOVQ        AX, X23;    \
	MOVQ         $128, AX;   \
	SUBQ         32(c), AX;  \
	VMOVQ        AX, X22;    \
	MOVQ         40(c), AX;  \
	SUBQ         $64, AX;    \
	VMOVQ        AX, X21;    \
	MOVQ         $128, AX;   \
	SUBQ         40(c), AX;  \
	VMOVQ        AX, X20;    \
	MOVL         $0x5555, AX; \
	KMOVW        AX, K6;     \
	MOVL         $0xaaaa, AX; \
	KMOVW        AX, K7

// MULW hi:lo = x*y, a full 64x64->128 product per lane; xh, yh hold x>>32
// and y>>32 in their low dwords. p01, p10 and tm are scratch: p01, p10
// may be fresh or alias (x, xh) or (yh, y), consuming that operand.
//   m  = x1*y0 + (x0*y0 >> 32)           < 2^64
//   m2 = x0*y1 + lo32(m)                 < 2^64
//   lo = lo32(x0*y0) | lo32(m2) << 32;  hi = x1*y1 + m>>32 + m2>>32
#define MULW(x, xh, y, yh, hi, lo, p01, p10, tm) \
	VPMULUDQ    y, x, lo;      \
	VPMULUDQ    yh, xh, hi;    \
	VPMULUDQ    yh, x, p01;    \
	VPMULUDQ    y, xh, p10;    \
	VPSRLQ      $32, lo, tm;   \
	VPADDQ      tm, p10, p10;  \
	VMOVDQA32.Z p10, K6, tm;   \
	VPADDQ      tm, p01, p01;  \
	VPSRLQ      $32, p10, p10; \
	VPADDQ      p10, hi, hi;   \
	VPSRLQ      $32, p01, tm;  \
	VPADDQ      tm, hi, hi;    \
	VPSHUFD     $0xa0, p01, K7, lo

// MULWH is MULW for the high word only (lo is left holding x0*y0).
#define MULWH(x, xh, y, yh, hi, lo, p01, p10, tm) \
	VPMULUDQ    y, x, lo;      \
	VPMULUDQ    yh, xh, hi;    \
	VPMULUDQ    yh, x, p01;    \
	VPMULUDQ    y, xh, p10;    \
	VPSRLQ      $32, lo, tm;   \
	VPADDQ      tm, p10, p10;  \
	VMOVDQA32.Z p10, K6, tm;   \
	VPADDQ      tm, p01, p01;  \
	VPSRLQ      $32, p10, p10; \
	VPADDQ      p10, hi, hi;   \
	VPSRLQ      $32, p01, tm;  \
	VPADDQ      tm, hi, hi

// ADDC x += y and c += the carry out of it (c must have headroom).
#define ADDC(x, y, c) \
	VPADDQ  y, x, x;      \
	VPCMPUQ $1, y, x, K1; \
	VPADDQ  Z24, c, K1, c

// CONDSUBQ hi:lo -= q where hi:lo >= q (hi:lo < 2^126); th, tl scratch.
#define CONDSUBQ(hi, lo, th, tl) \
	VPSUBQ    Z31, lo, tl;     \
	VPCMPUQ   $1, Z31, lo, K1; \
	VPSUBQ    Z30, hi, th;     \
	VPSUBQ    Z24, th, K1, th; \
	VPMOVQ2M  th, K2;          \
	VPBLENDMQ hi, th, K2, hi;  \
	VPBLENDMQ lo, tl, K2, lo

// ADDMOD sh:sl = a + b mod q for canonical a, b (both preserved).
#define ADDMOD(ah, al, bh, bl, sh, sl, th, tl) \
	VPADDQ  bh, ah, sh;      \
	VPADDQ  bl, al, sl;      \
	VPCMPUQ $1, bl, sl, K1;  \
	VPADDQ  Z24, sh, K1, sh; \
	CONDSUBQ(sh, sl, th, tl)

// SUBMOD dh:dl = a - b mod q for canonical a, b; dh:dl may alias ah:al.
#define SUBMOD(ah, al, bh, bl, dh, dl) \
	VPCMPUQ  $1, bl, al, K1;      \
	VPSUBQ   bl, al, dl;          \
	VPSUBQ   bh, ah, dh;          \
	VPSUBQ   Z24, dh, K1, dh;     \
	VPMOVQ2M dh, K2;              \
	VPADDQ   Z31, dl, K2, dl;     \
	VPCMPUQ  $1, Z31, dl, K2, K1; \
	VPADDQ   Z30, dh, K2, dh;     \
	VPADDQ   Z24, dh, K1, dh

// MULMOD Z0:Z1 = (Z0:Z1) * (bHi:bLo) mod q for canonical inputs; bHiH,
// bLoH hold b's high dwords. b is preserved; Z2-Z12, K1, K2 are clobbered.
// Steps: t = a*b (t3:t2:t1:t0 = Z6:Z7:Z8:Z9); x = t >> (n-1) in Z0:Z1;
// u = x*mu (u3:u2:u1 = Z6:Z7:Z10); qh = u >> (n+1) in Z0:Z1; qh*q's low
// 128 bits in Z3:Z4; r = t - qh*q, corrected twice.
#define MULMOD(bHi, bLo, bHiH, bLoH) \
	VPSHUFD $0xf5, Z0, Z2;                         \
	VPSHUFD $0xf5, Z1, Z3;                         \
	MULW(Z1, Z3, bHi, bHiH, Z4, Z5, Z6, Z7, Z8);   \
	MULW(Z0, Z2, bLo, bLoH, Z6, Z7, Z8, Z9, Z10);  \
	VPADDQ  Z6, Z4, Z4;                            \
	ADDC(Z5, Z7, Z4);                              \
	MULW(Z0, Z2, bHi, bHiH, Z6, Z7, Z0, Z2, Z8);   \
	MULW(Z1, Z3, bLo, bLoH, Z8, Z9, Z1, Z3, Z10);  \
	ADDC(Z8, Z5, Z4);                              \
	ADDC(Z7, Z4, Z6);                              \
	VPSRLQ  X23, Z8, Z1;                           \
	VPSLLQ  X22, Z7, Z2;                           \
	VPORQ   Z2, Z1, Z1;                            \
	VPSRLQ  X23, Z7, Z0;                           \
	VPSLLQ  X22, Z6, Z2;                           \
	VPORQ   Z2, Z0, Z0;                            \
	VPSHUFD $0xf5, Z0, Z2;                         \
	VPSHUFD $0xf5, Z1, Z3;                         \
	MULW(Z1, Z3, Z28, Z25, Z4, Z5, Z6, Z7, Z10);   \
	MULW(Z0, Z2, Z29, Z26, Z6, Z7, Z10, Z11, Z12); \
	VPADDQ  Z6, Z4, Z4;                            \
	ADDC(Z5, Z7, Z4);                              \
	MULW(Z0, Z2, Z28, Z25, Z6, Z7, Z0, Z2, Z10);   \
	MULWH(Z1, Z3, Z29, Z26, Z10, Z11, Z1, Z3, Z12); \
	ADDC(Z10, Z5, Z4);                             \
	ADDC(Z7, Z4, Z6);                              \
	VPSRLQ  X21, Z10, Z1;                          \
	VPSLLQ  X20, Z7, Z2;                           \
	VPORQ   Z2, Z1, Z1;                            \
	VPSRLQ  X21, Z7, Z0;                           \
	VPSLLQ  X20, Z6, Z2;                           \
	VPORQ   Z2, Z0, Z0;                            \
	VPSHUFD $0xf5, Z1, Z2;                         \
	MULW(Z1, Z2, Z31, Z27, Z3, Z4, Z5, Z6, Z7);    \
	VPMULLQ Z30, Z1, Z5;                           \
	VPADDQ  Z5, Z3, Z3;                            \
	VPMULLQ Z31, Z0, Z5;                           \
	VPADDQ  Z5, Z3, Z3;                            \
	VPCMPUQ $1, Z4, Z9, K1;                        \
	VPSUBQ  Z4, Z9, Z1;                            \
	VPSUBQ  Z3, Z8, Z0;                            \
	VPSUBQ  Z24, Z0, K1, Z0;                       \
	CONDSUBQ(Z0, Z1, Z2, Z3);                      \
	CONDSUBQ(Z0, Z1, Z2, Z3)

// LOAD128 deinterleaves 8 u128 rows at p into hi, lo words.
#define LOAD128(p, hi, lo, tmp) \
	VMOVDQU64 (p), tmp;           \
	VMOVDQU64 ·nttDeEven(SB), hi; \
	VPERMI2Q  64(p), tmp, hi;     \
	VMOVDQU64 ·nttDeOdd(SB), lo;  \
	VPERMI2Q  64(p), tmp, lo

// STORE128 interleaves hi, lo words into 8 u128 rows at p.
#define STORE128(p, hi, lo, tmp) \
	VMOVDQU64 ·nttIlvLo(SB), tmp; \
	VPERMI2Q  lo, hi, tmp;        \
	VMOVDQU64 tmp, (p);           \
	VMOVDQU64 ·nttIlvHi(SB), tmp; \
	VPERMI2Q  lo, hi, tmp;        \
	VMOVDQU64 tmp, 64(p)

// LOADPAIRS deinterleaves 16 u128 rows at p, pairs (e_i, o_i), into
// e = Z18:Z19 and o = Z0:Z1. The first level splits hi from lo words
// (e_i, o_i stay adjacent), the second splits e from o. Clobbers Z2-Z7.
#define LOADPAIRS(p) \
	VMOVDQU64 ·nttDeEven(SB), Z2; \
	VMOVDQU64 ·nttDeOdd(SB), Z3;  \
	VMOVDQU64 (p), Z0;            \
	VMOVDQU64 (p), Z1;            \
	VPERMT2Q  64(p), Z2, Z0;      \
	VPERMT2Q  64(p), Z3, Z1;      \
	VMOVDQU64 128(p), Z6;         \
	VMOVDQU64 128(p), Z7;         \
	VPERMT2Q  192(p), Z2, Z6;     \
	VPERMT2Q  192(p), Z3, Z7;     \
	VMOVDQA64 Z0, Z18;            \
	VPERMT2Q  Z6, Z2, Z18;        \
	VPERMT2Q  Z6, Z3, Z0;         \
	VMOVDQA64 Z1, Z19;            \
	VPERMT2Q  Z7, Z2, Z19;        \
	VPERMT2Q  Z7, Z3, Z1

// STOREPAIRS interleaves s = Z18:Z19 and t = Z0:Z1 into 16 u128 rows at
// p, pairs (s_i, t_i): the inverse of LOADPAIRS. Clobbers Z2-Z6, Z18, Z19.
#define STOREPAIRS(p) \
	VMOVDQU64 ·nttIlvLo(SB), Z2; \
	VMOVDQU64 ·nttIlvHi(SB), Z3; \
	VMOVDQA64 Z18, Z4;           \
	VPERMT2Q  Z0, Z2, Z4;        \
	VPERMT2Q  Z0, Z3, Z18;       \
	VMOVDQA64 Z19, Z5;           \
	VPERMT2Q  Z1, Z2, Z5;        \
	VPERMT2Q  Z1, Z3, Z19;       \
	VMOVDQA64 Z4, Z6;            \
	VPERMT2Q  Z5, Z2, Z6;        \
	VMOVDQU64 Z6, (p);           \
	VPERMT2Q  Z5, Z3, Z4;        \
	VMOVDQU64 Z4, 64(p);         \
	VMOVDQA64 Z18, Z6;           \
	VPERMT2Q  Z19, Z2, Z6;       \
	VMOVDQU64 Z6, 128(p);        \
	VPERMT2Q  Z19, Z3, Z18;      \
	VMOVDQU64 Z18, 192(p)

// LOADB loads 8 u128 rows at p as the second operand Z14-Z17.
#define LOADB(p) \
	LOAD128(p, Z14, Z15, Z2); \
	VPSHUFD $0xf5, Z14, Z16;  \
	VPSHUFD $0xf5, Z15, Z17

// BROADCASTB broadcasts the u128 at p as the second operand Z14-Z17.
#define BROADCASTB(p) \
	VPBROADCASTQ 0(p), Z14; \
	VPBROADCASTQ 8(p), Z15; \
	VPBROADCASTD 4(p), Z16; \
	VPBROADCASTD 12(p), Z17

// func ctSpan128AVX512(c *barrett128Consts, out, lo, hi, w *u128.U128, n int)
// out[2i] = lo[i] + hi[i], out[2i+1] = (lo[i] - hi[i])·w[i].
TEXT ·ctSpan128AVX512(SB), NOSPLIT, $0-48
	MOVQ c+0(FP), R10
	MOVQ out+8(FP), DI
	MOVQ lo+16(FP), SI
	MOVQ hi+24(FP), DX
	MOVQ w+32(FP), R8
	MOVQ n+40(FP), CX
	B128SETUP(R10)

ct128loop:
	LOAD128(SI, Z0, Z1, Z2)                  // a
	LOAD128(DX, Z3, Z4, Z2)                  // b
	ADDMOD(Z0, Z1, Z3, Z4, Z18, Z19, Z5, Z6) // s = a + b
	SUBMOD(Z0, Z1, Z3, Z4, Z0, Z1)           // d = a - b
	LOADB(R8)
	MULMOD(Z14, Z15, Z16, Z17)               // t = d·w
	STOREPAIRS(DI)
	ADDQ $128, SI
	ADDQ $128, DX
	ADDQ $128, R8
	ADDQ $256, DI
	SUBQ $8, CX
	JNZ  ct128loop
	VZEROUPPER
	RET

// func gsSpan128AVX512(c *barrett128Consts, oLo, oHi, in, w *u128.U128, n int)
// t = in[2i+1]·w[i]; oLo[i] = in[2i] + t, oHi[i] = in[2i] - t.
TEXT ·gsSpan128AVX512(SB), NOSPLIT, $0-48
	MOVQ c+0(FP), R10
	MOVQ oLo+8(FP), DI
	MOVQ oHi+16(FP), SI
	MOVQ in+24(FP), DX
	MOVQ w+32(FP), R8
	MOVQ n+40(FP), CX
	B128SETUP(R10)

gs128loop:
	LOADPAIRS(DX)                            // e = Z18:Z19, o = Z0:Z1
	LOADB(R8)
	MULMOD(Z14, Z15, Z16, Z17)               // t = o·w
	ADDMOD(Z18, Z19, Z0, Z1, Z2, Z3, Z4, Z5)
	STORE128(DI, Z2, Z3, Z4)
	SUBMOD(Z18, Z19, Z0, Z1, Z18, Z19)
	STORE128(SI, Z18, Z19, Z4)
	ADDQ $256, DX
	ADDQ $128, R8
	ADDQ $128, DI
	ADDQ $128, SI
	SUBQ $8, CX
	JNZ  gs128loop
	VZEROUPPER
	RET

// func mulSpan128AVX512(c *barrett128Consts, dst, a, b *u128.U128, n int)
TEXT ·mulSpan128AVX512(SB), NOSPLIT, $0-40
	MOVQ c+0(FP), R10
	MOVQ dst+8(FP), DI
	MOVQ a+16(FP), SI
	MOVQ b+24(FP), DX
	MOVQ n+32(FP), CX
	B128SETUP(R10)

mul128loop:
	LOAD128(SI, Z0, Z1, Z2)
	LOADB(DX)
	MULMOD(Z14, Z15, Z16, Z17)
	STORE128(DI, Z0, Z1, Z2)
	ADDQ $128, SI
	ADDQ $128, DX
	ADDQ $128, DI
	SUBQ $8, CX
	JNZ  mul128loop
	VZEROUPPER
	RET

// func scalarMulSpan128AVX512(c *barrett128Consts, dst, a *u128.U128, n int, w *u128.U128)
TEXT ·scalarMulSpan128AVX512(SB), NOSPLIT, $0-40
	MOVQ c+0(FP), R10
	MOVQ dst+8(FP), DI
	MOVQ a+16(FP), SI
	MOVQ n+24(FP), CX
	MOVQ w+32(FP), R11
	B128SETUP(R10)
	BROADCASTB(R11)

smul128loop:
	LOAD128(SI, Z0, Z1, Z2)
	MULMOD(Z14, Z15, Z16, Z17)
	STORE128(DI, Z0, Z1, Z2)
	ADDQ $128, SI
	ADDQ $128, DI
	SUBQ $8, CX
	JNZ  smul128loop
	VZEROUPPER
	RET

// func addSpan128AVX512(c *barrett128Consts, dst, a, b *u128.U128, n int)
TEXT ·addSpan128AVX512(SB), NOSPLIT, $0-40
	MOVQ c+0(FP), R10
	MOVQ dst+8(FP), DI
	MOVQ a+16(FP), SI
	MOVQ b+24(FP), DX
	MOVQ n+32(FP), CX
	B128SETUP(R10)

add128loop:
	LOAD128(SI, Z0, Z1, Z2)
	LOAD128(DX, Z3, Z4, Z2)
	ADDMOD(Z0, Z1, Z3, Z4, Z5, Z6, Z7, Z8)
	STORE128(DI, Z5, Z6, Z2)
	ADDQ $128, SI
	ADDQ $128, DX
	ADDQ $128, DI
	SUBQ $8, CX
	JNZ  add128loop
	VZEROUPPER
	RET

// func subSpan128AVX512(c *barrett128Consts, dst, a, b *u128.U128, n int)
TEXT ·subSpan128AVX512(SB), NOSPLIT, $0-40
	MOVQ c+0(FP), R10
	MOVQ dst+8(FP), DI
	MOVQ a+16(FP), SI
	MOVQ b+24(FP), DX
	MOVQ n+32(FP), CX
	B128SETUP(R10)

sub128loop:
	LOAD128(SI, Z0, Z1, Z2)
	LOAD128(DX, Z3, Z4, Z2)
	SUBMOD(Z0, Z1, Z3, Z4, Z0, Z1)
	STORE128(DI, Z0, Z1, Z2)
	ADDQ $128, SI
	ADDQ $128, DX
	ADDQ $128, DI
	SUBQ $8, CX
	JNZ  sub128loop
	VZEROUPPER
	RET
