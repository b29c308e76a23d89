package ring

import (
	"math/bits"

	"mqxgo/internal/modmath"
	"mqxgo/internal/u128"
)

// Fused span kernels for the double-word Barrett ring. Unlike Shoup64
// there is no lazy domain here — a relaxed [0, 2q) discipline would widen
// the Barrett quotient-estimate error from 2 to 6 corrective subtractions
// for marginal gain, since the conditional ops are a small fraction of the
// 8-word-multiply butterfly — so these kernels keep every residue
// canonical and win by devirtualization instead: the modulus, the Barrett
// constant mu, and the two shift amounts are hoisted into one stack
// structure per span (loaded once, not per element), the conditional
// add/sub corrections are branchless mask selects (Modulus128's
// a.Less(b) branch is data-dependent and mispredicts on ~half of random
// residues), and the butterfly runs one direct call per multiply.
//
// Headroom for q <= 2^124 (enforced by modmath.NewModulus128):
//
//	2q < 2^125  ⇒  a + b < 2^126 never wraps 128 bits
//	r  < 3q < 2^126: the Barrett remainder before correction is exact in
//	               128 bits, and two conditional subtractions suffice
//	               (quotient estimate within 2 for canonical inputs).
//
// The span loops hardwire the flattened schoolbook multiply whatever the
// modulus's MulAlgorithm: a Karatsuba-configured modulus gets the same
// residues, and only its table building runs Karatsuba.
//
// The vector tier: on an AVX-512 host every span below but ScaleAddSpan
// hands its full-vector prefix (8 lanes) to an assembly body
// (kernels128_avx512_amd64.s) and finishes the tail with its own scalar
// loop, as shoup64SIMD does. Each lane computes the exact Barrett quotient
// and the same two branchless corrections, so the vector tier returns the
// unique canonical residue the scalar loop returns. The bodies read the
// shift amounts as n-1 = 64 + b and n+1 = 64 + b', one word select and a
// sub-word shift, so they serve moduli of 65 to 124 bits; below that the
// scalar loop runs whole spans. There is no AVX2 Barrett128 body.

// barrett128Consts is the per-span register file: every word the inner
// loop needs, hoisted out of the Modulus128 once. The assembly bodies read
// it through a pointer at fixed offsets (qHi 0, qLo 8, muHi 16, muLo 24,
// nm1 32, np1 40; pinned by TestBarrett128ConstsLayout).
type barrett128Consts struct {
	qHi, qLo, muHi, muLo uint64
	nm1, np1             uint // the shift amounts n-1 and n+1, both in [1, 125]
}

func (r Barrett128) consts() barrett128Consts {
	m := r.M
	return barrett128Consts{
		qHi: m.Q.Hi, qLo: m.Q.Lo,
		muHi: m.Mu.Hi, muLo: m.Mu.Lo,
		nm1: m.N - 1, np1: m.N + 1,
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
func (c *barrett128Consts) mul(aHi, aLo, bHi, bLo uint64) (hi, lo uint64) {
	return modmath.MulBarrett128Words(aHi, aLo, bHi, bLo,
		c.qHi, c.qLo, c.muHi, c.muLo, c.nm1, c.np1)
}

// resolvedTier is the tier r's spans run: TierAVX512 when the request
// resolves to it and the modulus has 65 to 124 bits, TierScalar otherwise
// (an AVX2 request included).
func (r Barrett128) resolvedTier() KernelTier {
	if r.M.N > 64 && resolveKernelTier(r.tier) == TierAVX512 {
		return TierAVX512
	}
	return TierScalar
}

// vecLen is the full-vector prefix of an n-element span that r hands to
// its assembly bodies: n rounded down to 8 lanes at the AVX-512 tier, 0 at
// the scalar tier. The span's scalar loop finishes the rest.
func (r Barrett128) vecLen(n int) int {
	if r.resolvedTier() != TierAVX512 {
		return 0
	}
	return n &^ 7
}

// selectKernels binds the plan to r at its resolved tier. Barrett128 is
// its own kernel set at every tier (the spans dispatch on the tier), and
// its tables carry no Precompute words.
func (r Barrett128) selectKernels() (SpanKernels[u128.U128], KernelTier, bool) {
	r.tier = r.resolvedTier()
	return r, r.tier, false
}

// CTSpan: one forward stage. Strict ring, so relaxed == canonical and the
// final stage is the same loop.
func (r Barrett128) CTSpan(out, lo, hi, w []u128.U128, pre []uint64) {
	c := r.consts()
	n := len(w)
	lo, hi = lo[:n], hi[:n]
	out = out[:2*n]
	i := r.vecLen(n)
	if i > 0 {
		ctSpan128AVX512(&c, &out[0], &lo[0], &hi[0], &w[0], i)
	}
	for ; i < n; i++ {
		a, b := lo[i], hi[i]
		sHi, sLo := c.add(a.Hi, a.Lo, b.Hi, b.Lo)
		dHi, dLo := c.sub(a.Hi, a.Lo, b.Hi, b.Lo)
		tHi, tLo := c.mul(dHi, dLo, w[i].Hi, w[i].Lo)
		out[2*i] = u128.U128{Hi: sHi, Lo: sLo}
		out[2*i+1] = u128.U128{Hi: tHi, Lo: tLo}
	}
}

// CTSpanLast is CTSpan: strict outputs are already canonical.
func (r Barrett128) CTSpanLast(out, lo, hi, w []u128.U128, pre []uint64) {
	r.CTSpan(out, lo, hi, w, pre)
}

// GSSpan: one inverse stage, canonical throughout.
func (r Barrett128) GSSpan(oLo, oHi, in, w []u128.U128, pre []uint64) {
	c := r.consts()
	n := len(w)
	oLo, oHi = oLo[:n], oHi[:n]
	in = in[:2*n]
	i := r.vecLen(n)
	if i > 0 {
		gsSpan128AVX512(&c, &oLo[0], &oHi[0], &in[0], &w[0], i)
	}
	for ; i < n; i++ {
		e, o := in[2*i], in[2*i+1]
		tHi, tLo := c.mul(o.Hi, o.Lo, w[i].Hi, w[i].Lo)
		loHi, loLo := c.add(e.Hi, e.Lo, tHi, tLo)
		hiHi, hiLo := c.sub(e.Hi, e.Lo, tHi, tLo)
		oLo[i] = u128.U128{Hi: loHi, Lo: loLo}
		oHi[i] = u128.U128{Hi: hiHi, Lo: hiLo}
	}
}

// GSSpanLastScaled: the final inverse stage with 1/N folded into the
// twiddle table and applied to the even lane.
func (r Barrett128) GSSpanLastScaled(oLo, oHi, in, w []u128.U128, pre []uint64, nInv u128.U128, nInvPre uint64) {
	c := r.consts()
	n := len(w)
	oLo, oHi = oLo[:n], oHi[:n]
	in = in[:2*n]
	i := r.vecLen(n)
	if i > 0 {
		gsSpanLastScaled128AVX512(&c, &oLo[0], &oHi[0], &in[0], &w[0], i, &nInv)
	}
	for ; i < n; i++ {
		e, o := in[2*i], in[2*i+1]
		tHi, tLo := c.mul(o.Hi, o.Lo, w[i].Hi, w[i].Lo)
		esHi, esLo := c.mul(e.Hi, e.Lo, nInv.Hi, nInv.Lo)
		loHi, loLo := c.add(esHi, esLo, tHi, tLo)
		hiHi, hiLo := c.sub(esHi, esLo, tHi, tLo)
		oLo[i] = u128.U128{Hi: loHi, Lo: loLo}
		oHi[i] = u128.U128{Hi: hiHi, Lo: hiLo}
	}
}

// MulSpan: pointwise product with hoisted constants.
func (r Barrett128) MulSpan(dst, a, b []u128.U128) {
	c := r.consts()
	n := len(dst)
	a, b = a[:n], b[:n]
	i := r.vecLen(n)
	if i > 0 {
		mulSpan128AVX512(&c, &dst[0], &a[0], &b[0], i)
	}
	for ; i < n; i++ {
		hi, lo := c.mul(a[i].Hi, a[i].Lo, b[i].Hi, b[i].Lo)
		dst[i] = u128.U128{Hi: hi, Lo: lo}
	}
}

// MulPreSpan: the twist pass (Barrett ignores the precomputed constants).
func (r Barrett128) MulPreSpan(dst, a, w []u128.U128, pre []uint64) {
	r.MulSpan(dst, a, w)
}

// MulPreNormSpan: the untwist pass; canonical in this strict ring.
func (r Barrett128) MulPreNormSpan(dst, a, w []u128.U128, pre []uint64) {
	r.MulSpan(dst, a, w)
}

// ScalarMulSpan: dst[i] = a[i]·w for one fixed scalar.
func (r Barrett128) ScalarMulSpan(dst, a []u128.U128, w u128.U128, pre uint64) {
	c := r.consts()
	n := len(dst)
	a = a[:n]
	i := r.vecLen(n)
	if i > 0 {
		scalarMulSpan128AVX512(&c, &dst[0], &a[0], i, &w)
	}
	for ; i < n; i++ {
		hi, lo := c.mul(a[i].Hi, a[i].Lo, w.Hi, w.Lo)
		dst[i] = u128.U128{Hi: hi, Lo: lo}
	}
}

// ScaleAddSpan: dst[i] = a[i] + m[i]·w for small reduced m[i].
func (r Barrett128) ScaleAddSpan(dst, a []u128.U128, m []uint64, w u128.U128, pre uint64) {
	c := r.consts()
	n := len(dst)
	a, m = a[:n], m[:n]
	for i := 0; i < n; i++ {
		tHi, tLo := c.mul(0, m[i], w.Hi, w.Lo)
		hi, lo := c.add(a[i].Hi, a[i].Lo, tHi, tLo)
		dst[i] = u128.U128{Hi: hi, Lo: lo}
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
