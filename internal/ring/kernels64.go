package ring

import (
	"math/bits"

	"mqxgo/internal/modmath"
)

// Fused span kernels for the single-word Shoup ring, with lazy reduction:
// residues travel between Pease stages in the relaxed domain [0, 2q) and
// the deferred normalization is folded into the final pass (the last
// forward stage, or the pass landing 1/N after the inverse stages). Per
// butterfly this drops the conditional subtraction at the tail of the
// Shoup multiply and replaces the branchy canonical subtract with a
// branchless a + 2q - b, which is the software analogue of the paper's
// pipelined modular stages keeping intermediates unnormalized between
// pipeline registers.
//
// Headroom (q < 2^62, enforced by modmath.NewModulus64):
//
//	a, b ∈ [0, 2q)  ⇒  a + b < 4q < 2^64        (sums never wrap)
//	                   a + 2q - b ∈ (0, 4q)      (differences stay positive)
//	d < 2^64        ⇒  d·w - floor(d·w'/2^64)·q ∈ [0, 2q)
//
// The last line is modmath.MulShoupLazy's bound: it holds for ANY 64-bit
// multiplicand, so the (0, 4q) differences feed the twiddle multiply
// directly, with no normalization between the subtract and the multiply.
// The loops below inline that multiply rather than call it so the modulus
// words stay in registers across the span.

// The vector tiers: at AVX2 or AVX-512 every span below hands its
// full-vector prefix (4 or 8 lanes, vecLen) to its tier's assembly body
// (kernels64_{avx2,avx512}_amd64.s) and finishes the tail with its own
// scalar loop, as the Barrett128 spans do. Every lane computes the words
// the scalar loop computes: the relaxed bodies run the same adds, the same
// Shoup quotient and the same wrapping arithmetic mod 2^64, and the
// canonical spans (CTSpanLast, CTSpanLastBlk, MulPreNormSpan) run the
// relaxed body plus normSpan, which commutes elementwise with the fused
// scalar form. The blocked bodies take the whole span: blk is a power of
// two >= 8, so it always fills whole vectors.

// vecLen is the full-vector prefix of an n-element span that r hands to
// its tier's assembly bodies: n rounded down to 8 lanes at AVX-512, to 4
// at AVX2, and 0 at the scalar tier.
func (r Shoup64) vecLen(n int) int {
	switch r.tier {
	case TierAVX512:
		n &^= 7
	case TierAVX2:
		n &^= 3
	default:
		n = 0
	}
	// Never negative; saying so lets the compiler prove the scalar loops'
	// indexes in bounds, which it cannot see through the switch.
	return max(n, 0)
}

// normSpan lands the deferred normalization on a vector prefix v (a whole
// number of vectors at r's vector tier): v[i] -= q where v[i] >= q, for
// v in [0, 2q).
func (r Shoup64) normSpan(v []uint64) {
	if r.tier == TierAVX512 {
		normSpanAVX512(r.M.Q, &v[0], len(v))
	} else {
		normSpanAVX2(r.M.Q, &v[0], len(v))
	}
}

// Barrett shift amounts for the MulSpan bodies, hoisted per call (they
// depend only on the modulus bit length nb): t1 = lo>>s1 | hi<<s2, qhat =
// l2>>s3 | h2<<s4 — exactly modmath.Barrett64Reduce's splits.
func barrettShifts(nb uint) (s1, s2, s3, s4 uint64) {
	return uint64(nb - 1), uint64(65 - nb), uint64(nb + 1), uint64(63 - nb)
}

// CTSpan: one non-final forward stage, relaxed in, relaxed out.
func (r Shoup64) CTSpan(out, lo, hi, w []uint64, pre []uint64) {
	q := r.M.Q
	twoQ := 2 * q
	n := len(w)
	lo, hi, pre = lo[:n], hi[:n], pre[:n]
	out = out[:2*n]
	i := r.vecLen(n)
	switch {
	case i > 0 && r.tier == TierAVX512:
		ctSpanAVX512(q, &out[0], &lo[0], &hi[0], &w[0], &pre[0], i)
	case i > 0:
		ctSpanAVX2(q, &out[0], &lo[0], &hi[0], &w[0], &pre[0], i)
	}
	for ; i < n; i++ {
		a, b := lo[i], hi[i]
		s := a + b
		if s >= twoQ {
			s -= twoQ
		}
		d := a + twoQ - b
		qhat, _ := bits.Mul64(d, pre[i])
		out[2*i] = s
		out[2*i+1] = d*w[i] - qhat*q
	}
}

// CTSpanLast: the final forward stage; accepts relaxed inputs and lands
// the deferred normalization, producing canonical outputs.
func (r Shoup64) CTSpanLast(out, lo, hi, w []uint64, pre []uint64) {
	q := r.M.Q
	twoQ := 2 * q
	n := len(w)
	lo, hi, pre = lo[:n], hi[:n], pre[:n]
	out = out[:2*n]
	i := r.vecLen(n)
	if i > 0 {
		r.CTSpan(out[:2*i], lo[:i], hi[:i], w[:i], pre[:i])
		r.normSpan(out[:2*i])
	}
	for ; i < n; i++ {
		a, b := lo[i], hi[i]
		s := a + b // < 4q
		if s >= twoQ {
			s -= twoQ
		}
		if s >= q {
			s -= q
		}
		d := a + twoQ - b
		qhat, _ := bits.Mul64(d, pre[i])
		t := d*w[i] - qhat*q // < 2q
		if t >= q {
			t -= q
		}
		out[2*i] = s
		out[2*i+1] = t
	}
}

// GSSpan: one non-final inverse stage, relaxed in, relaxed out.
func (r Shoup64) GSSpan(oLo, oHi, in, w []uint64, pre []uint64) {
	q := r.M.Q
	twoQ := 2 * q
	n := len(w)
	oLo, oHi, pre = oLo[:n], oHi[:n], pre[:n]
	in = in[:2*n]
	i := r.vecLen(n)
	switch {
	case i > 0 && r.tier == TierAVX512:
		gsSpanAVX512(q, &oLo[0], &oHi[0], &in[0], &w[0], &pre[0], i)
	case i > 0:
		gsSpanAVX2(q, &oLo[0], &oHi[0], &in[0], &w[0], &pre[0], i)
	}
	for ; i < n; i++ {
		e, o := in[2*i], in[2*i+1]
		qhat, _ := bits.Mul64(o, pre[i])
		t := o*w[i] - qhat*q // ∈ [0, 2q)
		lo := e + t          // < 4q
		if lo >= twoQ {
			lo -= twoQ
		}
		hi := e + twoQ - t // ∈ (0, 4q)
		if hi >= twoQ {
			hi -= twoQ
		}
		oLo[i] = lo
		oHi[i] = hi
	}
}

// CTSpanBlk: one non-final forward stage over compact twiddles, relaxed
// in, relaxed out. One (w, pre) entry covers each contiguous blk-run of
// butterflies; the unit twiddle of the top stages degenerates to a pure
// add/sub pass.
func (r Shoup64) CTSpanBlk(out, lo, hi, w []uint64, pre []uint64, blk int) {
	q := r.M.Q
	switch {
	case len(w) > 0 && r.tier == TierAVX512:
		ctSpanBlkAVX512(q, &out[0], &lo[0], &hi[0], &w[0], &pre[0], len(w), blk)
		return
	case len(w) > 0 && r.tier == TierAVX2:
		ctSpanBlkAVX2(q, &out[0], &lo[0], &hi[0], &w[0], &pre[0], len(w), blk)
		return
	}
	twoQ := 2 * q
	for b := range w {
		base := b * blk
		lob := lo[base : base+blk : base+blk]
		hib := hi[base : base+blk : base+blk]
		ob := out[2*base : 2*base+2*blk : 2*base+2*blk]
		wb, pb := w[b], pre[b]
		if wb == 1 {
			for i := 0; i < blk; i++ {
				a, c := lob[i], hib[i]
				s := a + c
				if s >= twoQ {
					s -= twoQ
				}
				d := a + twoQ - c
				if d >= twoQ {
					d -= twoQ
				}
				ob[2*i] = s
				ob[2*i+1] = d
			}
			continue
		}
		for i := 0; i < blk; i++ {
			a, c := lob[i], hib[i]
			s := a + c
			if s >= twoQ {
				s -= twoQ
			}
			d := a + twoQ - c
			qhat, _ := bits.Mul64(d, pb)
			ob[2*i] = s
			ob[2*i+1] = d*wb - qhat*q
		}
	}
}

// CTSpanLastBlk: the final forward stage over compact twiddles; relaxed
// in, canonical out.
func (r Shoup64) CTSpanLastBlk(out, lo, hi, w []uint64, pre []uint64, blk int) {
	if len(w) > 0 && r.vecLen(blk) > 0 {
		r.CTSpanBlk(out, lo, hi, w, pre, blk)
		r.normSpan(out[:2*len(w)*blk])
		return
	}
	q := r.M.Q
	twoQ := 2 * q
	for b := range w {
		base := b * blk
		lob := lo[base : base+blk : base+blk]
		hib := hi[base : base+blk : base+blk]
		ob := out[2*base : 2*base+2*blk : 2*base+2*blk]
		wb, pb := w[b], pre[b]
		if wb == 1 {
			for i := 0; i < blk; i++ {
				a, c := lob[i], hib[i]
				s := a + c // < 4q
				if s >= twoQ {
					s -= twoQ
				}
				if s >= q {
					s -= q
				}
				d := a + twoQ - c // < 4q
				if d >= twoQ {
					d -= twoQ
				}
				if d >= q {
					d -= q
				}
				ob[2*i] = s
				ob[2*i+1] = d
			}
			continue
		}
		for i := 0; i < blk; i++ {
			a, c := lob[i], hib[i]
			s := a + c
			if s >= twoQ {
				s -= twoQ
			}
			if s >= q {
				s -= q
			}
			d := a + twoQ - c
			qhat, _ := bits.Mul64(d, pb)
			t := d*wb - qhat*q // < 2q
			if t >= q {
				t -= q
			}
			ob[2*i] = s
			ob[2*i+1] = t
		}
	}
}

// GSSpanBlk: one non-final inverse stage over compact twiddles, relaxed
// in, relaxed out.
func (r Shoup64) GSSpanBlk(oLo, oHi, in, w []uint64, pre []uint64, blk int) {
	q := r.M.Q
	switch {
	case len(w) > 0 && r.tier == TierAVX512:
		gsSpanBlkAVX512(q, &oLo[0], &oHi[0], &in[0], &w[0], &pre[0], len(w), blk)
		return
	case len(w) > 0 && r.tier == TierAVX2:
		gsSpanBlkAVX2(q, &oLo[0], &oHi[0], &in[0], &w[0], &pre[0], len(w), blk)
		return
	}
	twoQ := 2 * q
	for b := range w {
		base := b * blk
		lob := oLo[base : base+blk : base+blk]
		hib := oHi[base : base+blk : base+blk]
		ib := in[2*base : 2*base+2*blk : 2*base+2*blk]
		wb, pb := w[b], pre[b]
		if wb == 1 {
			for i := 0; i < blk; i++ {
				e, o := ib[2*i], ib[2*i+1] // o already in [0, 2q) — t = o·1
				lo := e + o
				if lo >= twoQ {
					lo -= twoQ
				}
				hi := e + twoQ - o
				if hi >= twoQ {
					hi -= twoQ
				}
				lob[i] = lo
				hib[i] = hi
			}
			continue
		}
		for i := 0; i < blk; i++ {
			e, o := ib[2*i], ib[2*i+1]
			qhat, _ := bits.Mul64(o, pb)
			t := o*wb - qhat*q // ∈ [0, 2q)
			lo := e + t        // < 4q
			if lo >= twoQ {
				lo -= twoQ
			}
			hi := e + twoQ - t // ∈ (0, 4q)
			if hi >= twoQ {
				hi -= twoQ
			}
			lob[i] = lo
			hib[i] = hi
		}
	}
}

// MulSpan: canonical pointwise Barrett product via the one shared copy of
// the single-word reduction (modmath.Barrett64Reduce — the same sequence
// Modulus64.Mul runs), with the constants hoisted out of the loop.
func (r Shoup64) MulSpan(dst, a, b []uint64) {
	m := r.M
	q, mu, nb := m.Q, m.Mu, m.N
	n := len(dst)
	a, b = a[:n], b[:n]
	i := r.vecLen(n)
	if i > 0 {
		s1, s2, s3, s4 := barrettShifts(nb)
		if r.tier == TierAVX512 {
			mulSpanAVX512(q, mu, &dst[0], &a[0], &b[0], i, s1, s2, s3, s4)
		} else {
			mulSpanAVX2(q, mu, &dst[0], &a[0], &b[0], i, s1, s2, s3, s4)
		}
	}
	for ; i < n; i++ {
		hi, lo := bits.Mul64(a[i], b[i])
		dst[i] = modmath.Barrett64Reduce(hi, lo, q, mu, nb)
	}
}

// MulPreSpan: the twist pass dst[i] = a[i]·w[i], canonical in, relaxed out.
func (r Shoup64) MulPreSpan(dst, a, w []uint64, pre []uint64) {
	q := r.M.Q
	n := len(dst)
	a, w, pre = a[:n], w[:n], pre[:n]
	i := r.vecLen(n)
	switch {
	case i > 0 && r.tier == TierAVX512:
		mulPreSpanAVX512(q, &dst[0], &a[0], &w[0], &pre[0], i)
	case i > 0:
		mulPreSpanAVX2(q, &dst[0], &a[0], &w[0], &pre[0], i)
	}
	for ; i < n; i++ {
		qhat, _ := bits.Mul64(a[i], pre[i])
		dst[i] = a[i]*w[i] - qhat*q
	}
}

// MulPreNormSpan: the untwist pass; relaxed in, canonical out (this is
// where a negacyclic product's deferred normalization lands).
func (r Shoup64) MulPreNormSpan(dst, a, w []uint64, pre []uint64) {
	q := r.M.Q
	n := len(dst)
	a, w, pre = a[:n], w[:n], pre[:n]
	i := r.vecLen(n)
	if i > 0 {
		r.MulPreSpan(dst[:i], a[:i], w[:i], pre[:i])
		r.normSpan(dst[:i])
	}
	for ; i < n; i++ {
		qhat, _ := bits.Mul64(a[i], pre[i])
		t := a[i]*w[i] - qhat*q
		if t >= q {
			t -= q
		}
		dst[i] = t
	}
}

// ScalarMulSpan: dst[i] = a[i]·w for one fixed scalar; any 64-bit a[i]
// in (the Shoup product is in [0, 2q) for every multiplicand, as in
// MulPreNormSpan), canonical out.
func (r Shoup64) ScalarMulSpan(dst, a []uint64, w uint64, pre uint64) {
	q := r.M.Q
	n := len(dst)
	a = a[:n]
	i := r.vecLen(n)
	switch {
	case i > 0 && r.tier == TierAVX512:
		scalarMulSpanAVX512(q, &dst[0], &a[0], i, w, pre)
	case i > 0:
		scalarMulSpanAVX2(q, &dst[0], &a[0], i, w, pre)
	}
	for ; i < n; i++ {
		qhat, _ := bits.Mul64(a[i], pre)
		t := a[i]*w - qhat*q
		if t >= q {
			t -= q
		}
		dst[i] = t
	}
}

// ScaleAddSpan: dst[i] = a[i] + m[i]·w, canonical in/out.
func (r Shoup64) ScaleAddSpan(dst, a []uint64, m []uint64, w uint64, pre uint64) {
	q := r.M.Q
	n := len(dst)
	a, m = a[:n], m[:n]
	i := r.vecLen(n)
	switch {
	case i > 0 && r.tier == TierAVX512:
		scaleAddSpanAVX512(q, &dst[0], &a[0], &m[0], i, w, pre)
	case i > 0:
		scaleAddSpanAVX2(q, &dst[0], &a[0], &m[0], i, w, pre)
	}
	for ; i < n; i++ {
		qhat, _ := bits.Mul64(m[i], pre)
		t := m[i]*w - qhat*q
		if t >= q {
			t -= q
		}
		s := a[i] + t
		if s >= q {
			s -= q
		}
		dst[i] = s
	}
}
