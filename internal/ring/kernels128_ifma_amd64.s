// AVX-512 IFMA span kernels for Barrett128 (8 lanes per iteration):
// every product by a fixed operand w — a stage twiddle, a twist or
// untwist entry, ScalarMulSpan's scalar — as a Shoup product on 52-bit
// limbs, reading w's Shoup word w' = floor(w·2^128/q) (Precompute) beside
// it. Requires AVX512F, AVX512DQ (VPMOVQ2M) and AVX512IFMA (VPMADD52LUQ,
// VPMADD52HUQ); Barrett128 runs them at the avx512ifma tier, for moduli of
// 65 to 124 bits.
//
// A lane splits a (canonical, so below 2^124), w and w' into three
// 52-bit limbs x0 + x1·2^52 + x2·2^104 (x2 < 2^20 for a, w and < 2^24 for
// w'). VPMADD52LUQ/HUQ add the low/high 52 bits of a 52x52-bit limb
// product to a 64-bit column, and read only the low 52 bits of each
// source, so a limb may carry garbage above bit 51 (SPLIT52 leaves some).
//
//	qh = floor(a·w' / 2^128) from product columns 2-4 (13 IFMA; column 5
//	     is a2·w'2 >> 52 = 0). Columns 0-1 sum below 2^106, so dropping
//	     them lowers qh by at most 1, and only when a·w'/2^128 has a
//	     fractional part below 2^-22. The Shoup estimate floor(a·w'/2^128)
//	     itself is Q = floor(a·w/q) or Q - 1, and Q - 1 only when that
//	     fractional part exceeds 1 - a/2^128 > 15/16. So qh is Q or Q - 1.
//	r  = a·w + qh·(2^156 - q) mod 2^156 = a·w - qh·q (18 IFMA into
//	     columns 0-2, no subtraction), and r < 2q < 2^126.
//	r  = r - q where r >= q: one CONDSUBQ gives the canonical residue.
//
// Column 2 of a·w' holds up to five 52-bit terms, so its carry is added
// into column 3 and column 2 is masked to 52 bits before qh's low limb is
// cut from it (and likewise column 3 for the middle limb). The outputs
// are the unique canonical residues, bit-identical to the Barrett bodies
// and the scalar loops.
//
// Register map (all kernels; the corrections, loads and stores are the
// macros of kernels128_amd64.h):
//
//	Z0-Z9    scratch; IFMAMUL takes a in Z0 (hi), Z1 (lo), returns in Z0, Z1
//	Z11-Z13  limbs of w' (the Shoup word)
//	Z14-Z16  limbs of w
//	Z18-Z19  the butterfly value held across a multiply
//	Z20-Z22  masks 2^28-1, 2^40-1, 2^52-1
//	Z24      broadcast 1
//	Z25-Z27  limbs 2, 1, 0 of 2^156 - q
//	Z30-Z31  qHi, qLo

#include "textflag.h"
#include "kernels128_amd64.h"

// IFMASETUP loads the register file from the barrett128Consts at c: qHi
// 0, qLo 8, nq 48.
#define IFMASETUP(c) \
	VPBROADCASTQ 8(c), Z31;            \
	VPBROADCASTQ 0(c), Z30;            \
	VPBROADCASTQ 48(c), Z27;           \
	VPBROADCASTQ 56(c), Z26;           \
	VPBROADCASTQ 64(c), Z25;           \
	MOVQ         $1, AX;               \
	VPBROADCASTQ AX, Z24;              \
	MOVQ         $0xfffffff, AX;       \
	VPBROADCASTQ AX, Z20;              \
	MOVQ         $0xffffffffff, AX;    \
	VPBROADCASTQ AX, Z21;              \
	MOVQ         $0xfffffffffffff, AX; \
	VPBROADCASTQ AX, Z22

// SPLIT52 splits hi:lo into 52-bit limbs: lo keeps limb 0 (bits 52-63
// are garbage IFMA ignores), mid gets limb 1 (likewise), hi becomes limb
// 2 (exact). t is scratch.
#define SPLIT52(hi, lo, mid, t) \
	VPSRLQ $52, lo, mid;  \
	VPSLLQ $12, hi, t;    \
	VPORQ  t, mid, mid;   \
	VPSRLQ $40, hi, hi

// LOADW loads 8 u128 rows at p as limbs l0, l1, l2. Clobbers Z2.
#define LOADW(p, l0, l1, l2) \
	LOAD128(p, l2, l0, Z2); \
	SPLIT52(l2, l0, l1, Z2)

// BROADCASTW broadcasts the u128 at p as limbs l0, l1, l2. Clobbers Z2.
#define BROADCASTW(p, l0, l1, l2) \
	VPBROADCASTQ 8(p), l0; \
	VPBROADCASTQ 0(p), l2; \
	SPLIT52(l2, l0, l1, Z2)

// IFMAMUL Z0:Z1 = (Z0:Z1)·w mod q for canonical Z0:Z1, with w in limbs
// w0-w2 and its Shoup word in limbs p0-p2 (all preserved); Z2-Z9, K1 and
// K2 are clobbered. a's limbs are Z1, Z2, Z0; qh = floor(a·w'/2^128)'s
// columns 2-4 gather in Z4-Z6 and its limbs in Z7-Z9; r's columns 0-2
// then gather in Z4-Z6. VPTERNLOGQ $0xf8, m, x, d is d |= x & m.
#define IFMAMUL(w0, w1, w2, p0, p1, p2) \
	SPLIT52(Z0, Z1, Z2, Z3);          \
	VPXORQ      Z4, Z4, Z4;           \
	VPXORQ      Z5, Z5, Z5;           \
	VPXORQ      Z6, Z6, Z6;           \
	VPMADD52LUQ p2, Z1, Z4;           \
	VPMADD52LUQ p1, Z2, Z4;           \
	VPMADD52LUQ p0, Z0, Z4;           \
	VPMADD52HUQ p1, Z1, Z4;           \
	VPMADD52HUQ p0, Z2, Z4;           \
	VPMADD52LUQ p2, Z2, Z5;           \
	VPMADD52LUQ p1, Z0, Z5;           \
	VPMADD52HUQ p2, Z1, Z5;           \
	VPMADD52HUQ p1, Z2, Z5;           \
	VPMADD52HUQ p0, Z0, Z5;           \
	VPMADD52LUQ p2, Z0, Z6;           \
	VPMADD52HUQ p2, Z2, Z6;           \
	VPMADD52HUQ p1, Z0, Z6;           \
	VPSRLQ      $52, Z4, Z3;          \
	VPADDQ      Z3, Z5, Z5;           \
	VPSRLQ      $52, Z5, Z3;          \
	VPADDQ      Z3, Z6, Z6;           \
	VPSLLQ      $28, Z5, Z7;          \
	VPSRLQ      $24, Z4, Z4;          \
	VPTERNLOGQ  $0xf8, Z20, Z4, Z7;   \
	VPSLLQ      $28, Z6, Z8;          \
	VPSRLQ      $24, Z5, Z5;          \
	VPTERNLOGQ  $0xf8, Z20, Z5, Z8;   \
	VPSRLQ      $24, Z6, Z9;          \
	VPXORQ      Z4, Z4, Z4;           \
	VPXORQ      Z5, Z5, Z5;           \
	VPXORQ      Z6, Z6, Z6;           \
	VPMADD52LUQ w0, Z1, Z4;           \
	VPMADD52LUQ w1, Z1, Z5;           \
	VPMADD52LUQ w0, Z2, Z5;           \
	VPMADD52HUQ w0, Z1, Z5;           \
	VPMADD52LUQ w2, Z1, Z6;           \
	VPMADD52LUQ w1, Z2, Z6;           \
	VPMADD52LUQ w0, Z0, Z6;           \
	VPMADD52HUQ w1, Z1, Z6;           \
	VPMADD52HUQ w0, Z2, Z6;           \
	VPMADD52LUQ Z27, Z7, Z4;          \
	VPMADD52LUQ Z26, Z7, Z5;          \
	VPMADD52LUQ Z27, Z8, Z5;          \
	VPMADD52HUQ Z27, Z7, Z5;          \
	VPMADD52LUQ Z25, Z7, Z6;          \
	VPMADD52LUQ Z26, Z8, Z6;          \
	VPMADD52LUQ Z27, Z9, Z6;          \
	VPMADD52HUQ Z26, Z7, Z6;          \
	VPMADD52HUQ Z27, Z8, Z6;          \
	VPSRLQ      $52, Z4, Z3;          \
	VPADDQ      Z3, Z5, Z5;           \
	VPSRLQ      $52, Z5, Z3;          \
	VPADDQ      Z3, Z6, Z6;           \
	VPSLLQ      $52, Z5, Z1;          \
	VPTERNLOGQ  $0xf8, Z22, Z4, Z1;   \
	VPSLLQ      $40, Z6, Z0;          \
	VPSRLQ      $12, Z5, Z5;          \
	VPTERNLOGQ  $0xf8, Z21, Z5, Z0;   \
	CONDSUBQ(Z0, Z1, Z2, Z3)

// CTSTEP runs 8 CT butterflies: out[2i] = lo[i] + hi[i], out[2i+1] =
// (lo[i] - hi[i])·w, advancing SI (lo), DX (hi) and DI (out).
#define CTSTEP \
	LOAD128(SI, Z0, Z1, Z2);                  \
	LOAD128(DX, Z3, Z4, Z2);                  \
	ADDMOD(Z0, Z1, Z3, Z4, Z18, Z19, Z5, Z6); \
	SUBMOD(Z0, Z1, Z3, Z4, Z0, Z1);           \
	IFMAMUL(Z14, Z15, Z16, Z11, Z12, Z13);    \
	STOREPAIRS(DI);                           \
	ADDQ $128, SI;                            \
	ADDQ $128, DX;                            \
	ADDQ $256, DI

// GSSTEP runs 8 GS butterflies: t = in[2i+1]·w, oLo[i] = in[2i] + t,
// oHi[i] = in[2i] - t, advancing DX (in), DI (oLo) and SI (oHi).
#define GSSTEP \
	LOADPAIRS(DX);                           \
	IFMAMUL(Z14, Z15, Z16, Z11, Z12, Z13);   \
	ADDMOD(Z18, Z19, Z0, Z1, Z2, Z3, Z4, Z5); \
	STORE128(DI, Z2, Z3, Z4);                \
	SUBMOD(Z18, Z19, Z0, Z1, Z18, Z19);      \
	STORE128(SI, Z18, Z19, Z4);              \
	ADDQ $256, DX;                           \
	ADDQ $128, DI;                           \
	ADDQ $128, SI

// func ctSpan128IFMA(c *barrett128Consts, out, lo, hi, w, pre *u128.U128, n int)
TEXT ·ctSpan128IFMA(SB), NOSPLIT, $0-56
	MOVQ c+0(FP), R10
	MOVQ out+8(FP), DI
	MOVQ lo+16(FP), SI
	MOVQ hi+24(FP), DX
	MOVQ w+32(FP), R8
	MOVQ pre+40(FP), R9
	MOVQ n+48(FP), CX
	IFMASETUP(R10)

ct128iloop:
	LOADW(R8, Z14, Z15, Z16)
	LOADW(R9, Z11, Z12, Z13)
	CTSTEP
	ADDQ $128, R8
	ADDQ $128, R9
	SUBQ $8, CX
	JNZ  ct128iloop
	VZEROUPPER
	RET

// func gsSpan128IFMA(c *barrett128Consts, oLo, oHi, in, w, pre *u128.U128, n int)
TEXT ·gsSpan128IFMA(SB), NOSPLIT, $0-56
	MOVQ c+0(FP), R10
	MOVQ oLo+8(FP), DI
	MOVQ oHi+16(FP), SI
	MOVQ in+24(FP), DX
	MOVQ w+32(FP), R8
	MOVQ pre+40(FP), R9
	MOVQ n+48(FP), CX
	IFMASETUP(R10)

gs128iloop:
	LOADW(R8, Z14, Z15, Z16)
	LOADW(R9, Z11, Z12, Z13)
	GSSTEP
	ADDQ $128, R8
	ADDQ $128, R9
	SUBQ $8, CX
	JNZ  gs128iloop
	VZEROUPPER
	RET

// func ctSpanBlk128IFMA(c *barrett128Consts, out, lo, hi, w, pre *u128.U128, nBlocks, blk int)
// Compact twiddles: w[b], pre[b] cover the blk butterflies of block b.
TEXT ·ctSpanBlk128IFMA(SB), NOSPLIT, $0-64
	MOVQ c+0(FP), R10
	MOVQ out+8(FP), DI
	MOVQ lo+16(FP), SI
	MOVQ hi+24(FP), DX
	MOVQ w+32(FP), R8
	MOVQ pre+40(FP), R9
	MOVQ nBlocks+48(FP), CX
	MOVQ blk+56(FP), R11
	IFMASETUP(R10)

ctb128iblock:
	BROADCASTW(R8, Z14, Z15, Z16)
	BROADCASTW(R9, Z11, Z12, Z13)
	MOVQ R11, R12

ctb128iloop:
	CTSTEP
	SUBQ $8, R12
	JNZ  ctb128iloop
	ADDQ $16, R8
	ADDQ $16, R9
	DECQ CX
	JNZ  ctb128iblock
	VZEROUPPER
	RET

// func gsSpanBlk128IFMA(c *barrett128Consts, oLo, oHi, in, w, pre *u128.U128, nBlocks, blk int)
TEXT ·gsSpanBlk128IFMA(SB), NOSPLIT, $0-64
	MOVQ c+0(FP), R10
	MOVQ oLo+8(FP), DI
	MOVQ oHi+16(FP), SI
	MOVQ in+24(FP), DX
	MOVQ w+32(FP), R8
	MOVQ pre+40(FP), R9
	MOVQ nBlocks+48(FP), CX
	MOVQ blk+56(FP), R11
	IFMASETUP(R10)

gsb128iblock:
	BROADCASTW(R8, Z14, Z15, Z16)
	BROADCASTW(R9, Z11, Z12, Z13)
	MOVQ R11, R12

gsb128iloop:
	GSSTEP
	SUBQ $8, R12
	JNZ  gsb128iloop
	ADDQ $16, R8
	ADDQ $16, R9
	DECQ CX
	JNZ  gsb128iblock
	VZEROUPPER
	RET

// func mulPreSpan128IFMA(c *barrett128Consts, dst, a, w, pre *u128.U128, n int)
// dst[i] = a[i]·w[i] over a fixed table.
TEXT ·mulPreSpan128IFMA(SB), NOSPLIT, $0-48
	MOVQ c+0(FP), R10
	MOVQ dst+8(FP), DI
	MOVQ a+16(FP), SI
	MOVQ w+24(FP), R8
	MOVQ pre+32(FP), R9
	MOVQ n+40(FP), CX
	IFMASETUP(R10)

mulpre128iloop:
	LOADW(R8, Z14, Z15, Z16)
	LOADW(R9, Z11, Z12, Z13)
	LOAD128(SI, Z0, Z1, Z2)
	IFMAMUL(Z14, Z15, Z16, Z11, Z12, Z13)
	STORE128(DI, Z0, Z1, Z2)
	ADDQ $128, SI
	ADDQ $128, R8
	ADDQ $128, R9
	ADDQ $128, DI
	SUBQ $8, CX
	JNZ  mulpre128iloop
	VZEROUPPER
	RET

// func scalarMulSpan128IFMA(c *barrett128Consts, dst, a *u128.U128, n int, w, pre *u128.U128)
TEXT ·scalarMulSpan128IFMA(SB), NOSPLIT, $0-48
	MOVQ c+0(FP), R10
	MOVQ dst+8(FP), DI
	MOVQ a+16(FP), SI
	MOVQ n+24(FP), CX
	MOVQ w+32(FP), R8
	MOVQ pre+40(FP), R9
	IFMASETUP(R10)
	BROADCASTW(R8, Z14, Z15, Z16)
	BROADCASTW(R9, Z11, Z12, Z13)

smul128iloop:
	LOAD128(SI, Z0, Z1, Z2)
	IFMAMUL(Z14, Z15, Z16, Z11, Z12, Z13)
	STORE128(DI, Z0, Z1, Z2)
	ADDQ $128, SI
	ADDQ $128, DI
	SUBQ $8, CX
	JNZ  smul128iloop
	VZEROUPPER
	RET
