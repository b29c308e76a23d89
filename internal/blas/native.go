package blas

import (
	"math/big"

	"mqxgo/internal/modmath"
	"mqxgo/internal/ring"
	"mqxgo/internal/u128"
)

// Native is the optimized fixed-width backend: Barrett reduction on u128
// words, the Go analogue of the paper's optimized C implementation. Every
// kernel runs the Barrett128 span kernels of the selected tier, the same
// ones the 128-bit transforms run (the AVX-512 bodies on a capable host).
// It is benchmarked natively with testing.B.
type Native struct {
	Mod *modmath.Modulus128
}

// axpyChunk is the length of Axpy's stack buffer: a·x lands there one
// chunk at a time before the add folds it into y.
const axpyChunk = 128

func (n Native) ring() ring.Barrett128 { return ring.NewBarrett128(n.Mod) }

// VecAddMod computes dst = a + b mod q element-wise.
func (n Native) VecAddMod(dst, a, b []u128.U128) { n.ring().AddSpan(dst, a, b) }

// VecSubMod computes dst = a - b mod q element-wise.
func (n Native) VecSubMod(dst, a, b []u128.U128) { n.ring().SubSpan(dst, a, b) }

// VecPMulMod computes dst = a .* b mod q element-wise.
func (n Native) VecPMulMod(dst, a, b []u128.U128) { n.ring().MulSpan(dst, a, b) }

// Axpy computes y = a*x + y mod q for scalar a.
func (n Native) Axpy(a u128.U128, x, y []u128.U128) {
	r := n.ring()
	aPre := r.Precompute(a)
	var ax [axpyChunk]u128.U128
	x = x[:len(y)]
	for len(y) > 0 {
		k := min(len(y), axpyChunk)
		r.ScalarMulSpan(ax[:k], x[:k], a, aPre)
		r.AddSpan(y[:k], ax[:k], y[:k])
		x, y = x[k:], y[k:]
	}
}

// Bignum is the arbitrary-precision backend standing in for GMP: exact
// integer arithmetic through math/big, paying allocation and normalization
// per element the same way a general multi-precision library does.
type Bignum struct {
	Q *big.Int
}

// NewBignum builds the backend for modulus q.
func NewBignum(q u128.U128) Bignum { return Bignum{Q: q.ToBig()} }

// VecPMulMod computes dst = a .* b mod q element-wise.
func (g Bignum) VecPMulMod(dst, a, b []*big.Int) {
	for i := range dst {
		dst[i].Mul(a[i], b[i])
		dst[i].Mod(dst[i], g.Q)
	}
}

// BigVector allocates a zeroed []*big.Int of length n.
func BigVector(n int) []*big.Int {
	v := make([]*big.Int, n)
	for i := range v {
		v[i] = new(big.Int)
	}
	return v
}

// ToBigVector converts 128-bit residues to big integers.
func ToBigVector(xs []u128.U128) []*big.Int {
	v := make([]*big.Int, len(xs))
	for i, x := range xs {
		v[i] = x.ToBig()
	}
	return v
}
