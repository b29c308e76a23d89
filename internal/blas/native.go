package blas

import (
	"math/big"

	"mqxgo/internal/modmath"
	"mqxgo/internal/u128"
)

// Native is the optimized fixed-width scalar backend: Barrett reduction on
// u128 words, the Go analogue of the paper's optimized scalar C
// implementation. It is benchmarked natively with testing.B.
type Native struct {
	Mod *modmath.Modulus128
}

// VecAddMod computes dst = a + b mod q element-wise.
func (n Native) VecAddMod(dst, a, b []u128.U128) {
	m := n.Mod
	for i := range dst {
		dst[i] = m.Add(a[i], b[i])
	}
}

// VecSubMod computes dst = a - b mod q element-wise.
func (n Native) VecSubMod(dst, a, b []u128.U128) {
	m := n.Mod
	for i := range dst {
		dst[i] = m.Sub(a[i], b[i])
	}
}

// VecPMulMod computes dst = a .* b mod q element-wise.
func (n Native) VecPMulMod(dst, a, b []u128.U128) {
	m := n.Mod
	for i := range dst {
		dst[i] = m.Mul(a[i], b[i])
	}
}

// Axpy computes y = a*x + y mod q for scalar a.
func (n Native) Axpy(a u128.U128, x, y []u128.U128) {
	m := n.Mod
	for i := range y {
		y[i] = m.Add(m.Mul(a, x[i]), y[i])
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
