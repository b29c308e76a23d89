package ring

import (
	"math/bits"

	"mqxgo/internal/modmath"
)

// Affine is the constant side of AffineRows, built once per call site:
// the constant term c0 < q and one weight per row with its Shoup dual.
type Affine struct {
	c0     uint64
	w, pre []uint64
}

// NewAffine reduces c0 and the weights modulo m and precomputes the
// weights' Shoup duals.
func NewAffine(m *modmath.Modulus64, c0 uint64, w ...uint64) Affine {
	a := Affine{c0: c0 % m.Q, w: make([]uint64, len(w)), pre: make([]uint64, len(w))}
	for r, v := range w {
		a.w[r] = v % m.Q
		a.pre[r] = m.ShoupPrecompute(a.w[r])
	}
	return a
}

// AffineRows computes an affine combination of rows in one pass:
//
//	dst[i] = a.c0 + Σ_r rows[r][i]·a.w[r]  mod q,   canonical out
//
// for an Affine built over the plan's modulus. It is the shape of every
// per-coefficient BEHZ step — a FastBConv output tower is a weighted sum
// of digit rows, the m~ correction, the Shenoy-Kumaresan subtraction and
// the divide-and-round offsets are more rows and a constant — so rns and
// fhe hand it rows and precomputed weights instead of chaining canonical
// scale-accumulate spans.
//
// The product of a row entry and a weight is the lazy Shoup product,
// in [0, 2q) and congruent to x·w for ANY 64-bit x, so rows may hold
// residues of a different (wider or narrower) prime, lazy [0, 2q)
// values, or raw words. The accumulator stays below 2q with one
// min(x, x-2q) per term (acc + t < 4q < 2^64, q < 2^62), so there is no
// headroom condition on the prime width or the row count; one
// conditional subtract lands the canonical residue. The result is the
// unique canonical representative of the sum, hence bit-identical across
// kernel tiers and to any canonical chain computing the same sum.
//
// dst and every row have the plan's length; dst may alias any row
// (element i of every row is read before dst[i] is written). Steady
// state it allocates nothing.
func AffineRows(p *Plan[uint64, Shoup64], dst []uint64, a Affine, rows [][]uint64) {
	p.checkLen(len(dst))
	for _, row := range rows {
		p.checkLen(len(row))
	}
	if len(a.w) != len(rows) {
		panic("ring: AffineRows needs one weight per row")
	}
	p.R.AffineRowsSpan(dst, a.c0, rows, a.w, a.pre)
}

// AffineRowsSpan is the body behind AffineRows. On the vector prefix the
// row loop runs inside r's tier's assembly body with the accumulator in a
// register, so each output element is written once however many rows
// feed it.
func (r Shoup64) AffineRowsSpan(dst []uint64, c0 uint64, rows [][]uint64, w, pre []uint64) {
	q := r.M.Q
	nv := r.vecLen(len(dst))
	if len(rows) == 0 {
		nv = 0
	}
	switch {
	case nv > 0 && r.tier == TierAVX512:
		affineRowsSpanAVX512(q, &dst[0], c0, &rows[0], &w[0], &pre[0], len(rows), nv)
	case nv > 0:
		affineRowsSpanAVX2(q, &dst[0], c0, &rows[0], &w[0], &pre[0], len(rows), nv)
	}
	affineRowsSpanScalar(q, dst, c0, rows, w, pre, nv)
}

// affineRowsSpanScalar is the ground-truth body the vector tiers are
// differential-tested against, and the tail loop behind their full
// vectors: it fills dst[from:]. Row entries are unconstrained 64-bit
// words; c0 may be relaxed.
func affineRowsSpanScalar(q uint64, dst []uint64, c0 uint64, rows [][]uint64, w, pre []uint64, from int) {
	twoQ := 2 * q
	w, pre = w[:len(rows)], pre[:len(rows)]
	for i := from; i < len(dst); i++ {
		acc := c0
		for r, row := range rows {
			x := row[i]
			qhat, _ := bits.Mul64(x, pre[r])
			acc += x*w[r] - qhat*q // < 4q
			if acc >= twoQ {
				acc -= twoQ
			}
		}
		if acc >= q {
			acc -= q
		}
		dst[i] = acc
	}
}
