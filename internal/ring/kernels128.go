package ring

import (
	"math/bits"

	"mqxgo/internal/modmath"
	"mqxgo/internal/u128"
)

// Fused span kernels for the double-word Barrett ring. Unlike Shoup64
// there is no lazy domain here at any tier — a relaxed [0, 2q) discipline
// would widen the Barrett quotient-estimate error from 2 to 6 corrective
// subtractions for marginal gain, since the conditional ops are a small
// fraction of the 8-word-multiply butterfly, and the IFMA tier's Shoup
// product needs only one — so these kernels keep every residue canonical.
// The scalar loops win by devirtualization instead: the modulus, the Barrett
// constant mu, and the two shift amounts are hoisted into one stack
// structure per span (loaded once, not per element), the conditional
// add/sub corrections are branchless mask selects (Modulus128's
// a.Less(b) branch is data-dependent and mispredicts on ~half of random
// residues), and the butterfly runs one direct call per multiply.
// Barrett128 ignores its Shoup words (Precompute) below the IFMA tier, and
// its plans store none there.
//
// Headroom for q <= 2^124 (enforced by modmath.NewModulus128):
//
//	2q < 2^125  ⇒  a + b < 2^126 never wraps 128 bits
//	r  < 3q < 2^126: the Barrett remainder before correction is exact in
//	               128 bits, and two conditional subtractions suffice
//	               (quotient estimate within 2 for canonical inputs).
//
// The vector tiers: at avx512 and avx512ifma (resolved by
// NewBarrett128Tier) every span below but ScaleAddSpan hands its
// full-vector prefix (8 lanes) to an assembly body and finishes the tail
// with its own scalar loop, as the Shoup64 spans do; the blocked spans
// hand over the whole span (blk is a multiple of 8). The avx512 bodies
// (kernels128_avx512_amd64.s) compute the exact Barrett quotient and the
// same two branchless corrections as the scalar loop. The avx512ifma
// bodies (kernels128_ifma_amd64.s) run every product by a fixed operand
// — a stage twiddle, a twist or untwist entry, ScalarMulSpan's scalar —
// as a Shoup product on 52-bit limbs, reading the operand's Shoup word
// (Precompute) beside it; the pointwise MulSpan, AddSpan and SubSpan keep
// the avx512 bodies. Every tier returns the unique canonical residue, so
// all three are bit-identical. The bodies serve moduli of 65 to 124 bits
// (the Barrett bodies read the shift amounts as n-1 = 64 + b and
// n+1 = 64 + b', one word select and a sub-word shift); a Barrett128 over
// any other modulus is built at the scalar tier. There is no AVX2
// Barrett128 body.

// barrett128Consts is the per-span register file: every word the inner
// loop needs, hoisted out of the Modulus128 once. The assembly bodies read
// it through a pointer at fixed offsets (qHi 0, qLo 8, muHi 16, muLo 24,
// nm1 32, np1 40, nq 48; pinned by TestBarrett128ConstsLayout).
type barrett128Consts struct {
	qHi, qLo, muHi, muLo uint64
	nm1, np1             uint // the shift amounts n-1 and n+1, both in [1, 125]

	// nq is 2^156 - q in 52-bit limbs, low first: the IFMA bodies add
	// qh·(2^156 - q) where the Barrett ones subtract qh·q.
	nq [3]uint64
}

func (r Barrett128) consts() barrett128Consts {
	m := r.M
	// 2^156 - q = (2^156 - 2^128) + (2^128 - q), and 2^128 - q < 2^128
	// adds no carry into the top limb.
	xLo, b := bits.Sub64(0, m.Q.Lo, 0)
	xHi, _ := bits.Sub64(0, m.Q.Hi, b)
	const limb = 1<<52 - 1
	return barrett128Consts{
		qHi: m.Q.Hi, qLo: m.Q.Lo,
		muHi: m.Mu.Hi, muLo: m.Mu.Lo,
		nm1: m.N - 1, np1: m.N + 1,
		nq: [3]uint64{xLo & limb, (xLo>>52 | xHi<<12) & limb, xHi>>40 + 1<<52 - 1<<24},
	}
}

// add returns a + b mod q for canonical inputs, branchless: the
// conditional subtract is a mask select on the borrow of s - q.
func (c *barrett128Consts) add(aHi, aLo, bHi, bLo uint64) (hi, lo uint64) {
	lo, cc := bits.Add64(aLo, bLo, 0)
	hi, _ = bits.Add64(aHi, bHi, cc)
	sLo, bb := bits.Sub64(lo, c.qLo, 0)
	sHi, bb2 := bits.Sub64(hi, c.qHi, bb)
	m := bb2 - 1 // all ones when s >= q
	return hi ^ ((hi ^ sHi) & m), lo ^ ((lo ^ sLo) & m)
}

// sub returns a - b mod q for canonical inputs, branchless: the
// conditional add-back of q is masked by the borrow.
func (c *barrett128Consts) sub(aHi, aLo, bHi, bLo uint64) (hi, lo uint64) {
	dLo, bb := bits.Sub64(aLo, bLo, 0)
	dHi, bb2 := bits.Sub64(aHi, bHi, bb)
	m := -bb2 // all ones when a < b
	lo, cc := bits.Add64(dLo, c.qLo&m, 0)
	hi, _ = bits.Add64(dHi, c.qHi&m, cc)
	return hi, lo
}

// mul returns a*b mod q for canonical inputs via the one shared copy of
// the flattened schoolbook multiply and word-level Barrett reduction
// (modmath.MulBarrett128Words — the same carry chains Modulus128.Mul
// runs), fed from the hoisted register file.
func (c *barrett128Consts) mul(a, b u128.U128) u128.U128 {
	hi, lo := modmath.MulBarrett128Words(a.Hi, a.Lo, b.Hi, b.Lo,
		c.qHi, c.qLo, c.muHi, c.muLo, c.nm1, c.np1)
	return u128.U128{Hi: hi, Lo: lo}
}

// ct is the CT butterfly (a+b, (a-b)·w), canonical throughout.
func (c *barrett128Consts) ct(a, b, w u128.U128) (s, t u128.U128) {
	s.Hi, s.Lo = c.add(a.Hi, a.Lo, b.Hi, b.Lo)
	t.Hi, t.Lo = c.sub(a.Hi, a.Lo, b.Hi, b.Lo)
	return s, c.mul(t, w)
}

// gs is the GS butterfly (e+o·w, e-o·w), canonical throughout.
func (c *barrett128Consts) gs(e, o, w u128.U128) (lo, hi u128.U128) {
	t := c.mul(o, w)
	lo.Hi, lo.Lo = c.add(e.Hi, e.Lo, t.Hi, t.Lo)
	hi.Hi, hi.Lo = c.sub(e.Hi, e.Lo, t.Hi, t.Lo)
	return lo, hi
}

// vecLen is the full-vector prefix of an n-element span that r hands to
// its assembly bodies: n rounded down to 8 lanes at the vector tiers, 0 at
// the scalar tier. The span's scalar loop finishes the rest.
func (r Barrett128) vecLen(n int) int {
	if r.tier < TierAVX512 {
		return 0
	}
	return n &^ 7
}

// CTSpan: one forward stage. Strict ring, so relaxed == canonical and the
// final stage is the same loop.
func (r Barrett128) CTSpan(out, lo, hi, w, pre []u128.U128) {
	c := r.consts()
	n := len(w)
	lo, hi = lo[:n], hi[:n]
	out = out[:2*n]
	i := r.vecLen(n)
	switch {
	case i > 0 && r.tier == TierAVX512IFMA:
		pre = pre[:n]
		ctSpan128IFMA(&c, &out[0], &lo[0], &hi[0], &w[0], &pre[0], i)
	case i > 0:
		ctSpan128AVX512(&c, &out[0], &lo[0], &hi[0], &w[0], i)
	}
	for ; i < n; i++ {
		out[2*i], out[2*i+1] = c.ct(lo[i], hi[i], w[i])
	}
}

// CTSpanLast is CTSpan: strict outputs are already canonical.
func (r Barrett128) CTSpanLast(out, lo, hi, w, pre []u128.U128) {
	r.CTSpan(out, lo, hi, w, pre)
}

// GSSpan: one inverse stage, canonical throughout.
func (r Barrett128) GSSpan(oLo, oHi, in, w, pre []u128.U128) {
	c := r.consts()
	n := len(w)
	oLo, oHi = oLo[:n], oHi[:n]
	in = in[:2*n]
	i := r.vecLen(n)
	switch {
	case i > 0 && r.tier == TierAVX512IFMA:
		pre = pre[:n]
		gsSpan128IFMA(&c, &oLo[0], &oHi[0], &in[0], &w[0], &pre[0], i)
	case i > 0:
		gsSpan128AVX512(&c, &oLo[0], &oHi[0], &in[0], &w[0], i)
	}
	for ; i < n; i++ {
		oLo[i], oHi[i] = c.gs(in[2*i], in[2*i+1], w[i])
	}
}

// CTSpanBlk: one forward stage over compact twiddles, w[b] covering
// butterflies [b*blk, (b+1)*blk). The vector bodies broadcast each
// block's twiddle (and Shoup word) once.
func (r Barrett128) CTSpanBlk(out, lo, hi, w, pre []u128.U128, blk int) {
	c := r.consts()
	nb := len(w)
	n := nb * blk
	lo, hi = lo[:n], hi[:n]
	out = out[:2*n]
	switch {
	case nb > 0 && r.tier == TierAVX512IFMA:
		pre = pre[:nb]
		ctSpanBlk128IFMA(&c, &out[0], &lo[0], &hi[0], &w[0], &pre[0], nb, blk)
	case nb > 0 && r.tier == TierAVX512:
		ctSpanBlk128AVX512(&c, &out[0], &lo[0], &hi[0], &w[0], nb, blk)
	default:
		for b, wb := range w {
			for i := b * blk; i < (b+1)*blk; i++ {
				out[2*i], out[2*i+1] = c.ct(lo[i], hi[i], wb)
			}
		}
	}
}

// CTSpanLastBlk is CTSpanBlk: strict outputs are already canonical.
func (r Barrett128) CTSpanLastBlk(out, lo, hi, w, pre []u128.U128, blk int) {
	r.CTSpanBlk(out, lo, hi, w, pre, blk)
}

// GSSpanBlk: one inverse stage over compact twiddles.
func (r Barrett128) GSSpanBlk(oLo, oHi, in, w, pre []u128.U128, blk int) {
	c := r.consts()
	nb := len(w)
	n := nb * blk
	oLo, oHi = oLo[:n], oHi[:n]
	in = in[:2*n]
	switch {
	case nb > 0 && r.tier == TierAVX512IFMA:
		pre = pre[:nb]
		gsSpanBlk128IFMA(&c, &oLo[0], &oHi[0], &in[0], &w[0], &pre[0], nb, blk)
	case nb > 0 && r.tier == TierAVX512:
		gsSpanBlk128AVX512(&c, &oLo[0], &oHi[0], &in[0], &w[0], nb, blk)
	default:
		for b, wb := range w {
			for i := b * blk; i < (b+1)*blk; i++ {
				oLo[i], oHi[i] = c.gs(in[2*i], in[2*i+1], wb)
			}
		}
	}
}

// MulSpan: pointwise product with hoisted constants. Both operands vary,
// so every vector tier runs the Barrett body.
func (r Barrett128) MulSpan(dst, a, b []u128.U128) {
	c := r.consts()
	n := len(dst)
	a, b = a[:n], b[:n]
	i := r.vecLen(n)
	if i > 0 {
		mulSpan128AVX512(&c, &dst[0], &a[0], &b[0], i)
	}
	for ; i < n; i++ {
		dst[i] = c.mul(a[i], b[i])
	}
}

// MulPreSpan: the twist pass, dst[i] = a[i]·w[i] over a fixed table: a
// Shoup product at the IFMA tier, MulSpan below it.
func (r Barrett128) MulPreSpan(dst, a, w, pre []u128.U128) {
	if r.tier != TierAVX512IFMA {
		r.MulSpan(dst, a, w)
		return
	}
	c := r.consts()
	n := len(dst)
	a, w = a[:n], w[:n]
	i := r.vecLen(n)
	if i > 0 {
		pre = pre[:n]
		mulPreSpan128IFMA(&c, &dst[0], &a[0], &w[0], &pre[0], i)
	}
	for ; i < n; i++ {
		dst[i] = c.mul(a[i], w[i])
	}
}

// MulPreNormSpan: the untwist pass; canonical in this strict ring.
func (r Barrett128) MulPreNormSpan(dst, a, w, pre []u128.U128) {
	r.MulPreSpan(dst, a, w, pre)
}

// ScalarMulSpan: dst[i] = a[i]·w for one fixed scalar.
func (r Barrett128) ScalarMulSpan(dst, a []u128.U128, w, pre u128.U128) {
	c := r.consts()
	n := len(dst)
	a = a[:n]
	i := r.vecLen(n)
	switch {
	case i > 0 && r.tier == TierAVX512IFMA:
		scalarMulSpan128IFMA(&c, &dst[0], &a[0], i, &w, &pre)
	case i > 0:
		scalarMulSpan128AVX512(&c, &dst[0], &a[0], i, &w)
	}
	for ; i < n; i++ {
		dst[i] = c.mul(a[i], w)
	}
}

// ScaleAddSpan: dst[i] = a[i] + m[i]·w for small reduced m[i].
func (r Barrett128) ScaleAddSpan(dst, a []u128.U128, m []uint64, w, pre u128.U128) {
	c := r.consts()
	n := len(dst)
	a, m = a[:n], m[:n]
	for i := 0; i < n; i++ {
		t := c.mul(u128.From64(m[i]), w)
		dst[i].Hi, dst[i].Lo = c.add(a[i].Hi, a[i].Lo, t.Hi, t.Lo)
	}
}

// AddSpan computes dst[i] = a[i] + b[i] mod q for canonical inputs, the
// element-wise add of the BLAS layer. dst may alias a or b.
func (r Barrett128) AddSpan(dst, a, b []u128.U128) {
	c := r.consts()
	n := len(dst)
	a, b = a[:n], b[:n]
	i := r.vecLen(n)
	if i > 0 {
		addSpan128AVX512(&c, &dst[0], &a[0], &b[0], i)
	}
	for ; i < n; i++ {
		hi, lo := c.add(a[i].Hi, a[i].Lo, b[i].Hi, b[i].Lo)
		dst[i] = u128.U128{Hi: hi, Lo: lo}
	}
}

// SubSpan computes dst[i] = a[i] - b[i] mod q for canonical inputs. dst
// may alias a or b.
func (r Barrett128) SubSpan(dst, a, b []u128.U128) {
	c := r.consts()
	n := len(dst)
	a, b = a[:n], b[:n]
	i := r.vecLen(n)
	if i > 0 {
		subSpan128AVX512(&c, &dst[0], &a[0], &b[0], i)
	}
	for ; i < n; i++ {
		hi, lo := c.sub(a[i].Hi, a[i].Lo, b[i].Hi, b[i].Lo)
		dst[i] = u128.U128{Hi: hi, Lo: lo}
	}
}
