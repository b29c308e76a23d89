// Macros shared by the Barrett128 vector bodies (kernels128_avx512_amd64.s
// and kernels128_ifma_amd64.s): the canonical add/sub corrections and the
// AoS u128 row loads and stores, 8 lanes at a time. Both files keep the
// same constant registers for them: Z24 broadcast 1, Z30 qHi, Z31 qLo.
// Every residue compared stays below 2^126, so a borrow out of a 128-bit
// difference shows in the top bit of its high word. Rows are AoS u128
// (Hi, Lo); loads deinterleave and stores interleave with the
// VPERMI2Q/VPERMT2Q index tables of kernels64_avx512_amd64.s.

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

