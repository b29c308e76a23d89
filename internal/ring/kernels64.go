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

// shoup64Kernels is the kernel set a Plan[uint64, Shoup64] dispatches to:
// the span and blocked kernels plus the two Shoup64-only fused bodies.
// Shoup64 itself is the scalar implementation and the ground truth;
// shoup64SIMD (amd64) is the vector one. selectKernels picks between them
// once, at plan build, so a Shoup64 plan's kern is never nil.
//
// MACFinal2Span is the fused final stage behind NegacyclicForwardMAC2:
// given the penultimate stage's relaxed outputs split into lo/hi halves
// of h butterflies, it produces the canonical final-stage outputs (s, d
// interleaved, exactly CTSpanLast at unit twiddle) and folds the two-row
// lazy Shoup MAC into accA/accB (each of length 2h) without materializing
// the transform. AffineRowsSpan is the body behind AffineRows. Both are
// bit-identical across tiers on arbitrary 64-bit lane values.
type shoup64Kernels interface {
	SpanKernels[uint64]
	BlockedSpanKernels[uint64]
	MACFinal2Span(accA, accB, lo, hi, wA, preA, wB, preB []uint64)
	AffineRowsSpan(dst []uint64, c0 uint64, rows [][]uint64, w, pre []uint64)
}

// CTSpan: one non-final forward stage, relaxed in, relaxed out.
func (r Shoup64) CTSpan(out, lo, hi, w []uint64, pre []uint64) {
	q := r.M.Q
	twoQ := 2 * q
	n := len(w)
	lo, hi, pre = lo[:n], hi[:n], pre[:n]
	out = out[:2*n]
	for i := 0; i < n; i++ {
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
	for i := 0; i < n; i++ {
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
	for i := 0; i < n; i++ {
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
	for i := 0; i < n; i++ {
		hi, lo := bits.Mul64(a[i], b[i])
		dst[i] = modmath.Barrett64Reduce(hi, lo, q, mu, nb)
	}
}

// MulPreSpan: the twist pass dst[i] = a[i]·w[i], canonical in, relaxed out.
func (r Shoup64) MulPreSpan(dst, a, w []uint64, pre []uint64) {
	q := r.M.Q
	n := len(dst)
	a, w, pre = a[:n], w[:n], pre[:n]
	for i := 0; i < n; i++ {
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
	for i := 0; i < n; i++ {
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
	for i := 0; i < n; i++ {
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
	for i := 0; i < n; i++ {
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
