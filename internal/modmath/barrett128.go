// Package modmath implements the double-word (128-bit) and single-word
// (64-bit) modular arithmetic the paper's cryptographic kernels are built
// from: conditional-subtract modular addition and subtraction (Eqs. 2-3)
// and Barrett-reduced modular multiplication (Eq. 4) over the schoolbook
// widening product (Eq. 8), plus the number-theoretic utilities
// (primality, NTT-friendly prime search, roots of unity) needed to
// parameterize NTTs. The paper finds schoolbook faster than Karatsuba
// (Eq. 9) on CPUs (Section 5.5), so Karatsuba is only modeled, on the
// trace machine (kernels.DW).
package modmath

import (
	"fmt"

	"mqxgo/internal/u128"
	"mqxgo/internal/u256"
)

// MaxModulusBits is the largest modulus width Barrett reduction supports at
// a 128-bit data width: the paper requires q <= l-4 bits for l-bit data so
// that the precomputed mu fits in l bits (Section 2.1).
const MaxModulusBits = 124

// Modulus128 holds a modulus q <= 124 bits together with its Barrett
// precomputation mu = floor(2^(2n) / q), where n = bitlen(q).
type Modulus128 struct {
	Q  u128.U128 // the modulus
	Mu u128.U128 // Barrett constant, floor(2^(2n)/q); fits in n+1 <= 125 bits
	N  uint      // bit length of Q
}

// NewModulus128 validates q and performs the Barrett precomputation.
// q must be at least 2 and at most 124 bits wide.
func NewModulus128(q u128.U128) (*Modulus128, error) {
	if q.BitLen() < 2 {
		return nil, fmt.Errorf("modmath: modulus %s too small", q)
	}
	if q.BitLen() > MaxModulusBits {
		return nil, fmt.Errorf("modmath: modulus has %d bits, Barrett at 128-bit width requires <= %d",
			q.BitLen(), MaxModulusBits)
	}
	n := uint(q.BitLen())
	// mu = floor(2^(2n) / q), computed with from-scratch 256/128 division.
	pow := u256.From64(1).Lsh(2 * n)
	muWide, _ := pow.DivMod128(q)
	if muWide.Hi128() != u128.Zero {
		return nil, fmt.Errorf("modmath: internal error: mu does not fit in 128 bits")
	}
	return &Modulus128{Q: q, Mu: muWide.Lo128(), N: n}, nil
}

// MustModulus128 is NewModulus128 but panics on error.
func MustModulus128(q u128.U128) *Modulus128 {
	m, err := NewModulus128(q)
	if err != nil {
		panic(err)
	}
	return m
}

// Add returns a + b mod q using the conditional-subtract algorithm (Eq. 2).
// Inputs must already be reduced (a, b < q).
func (m *Modulus128) Add(a, b u128.U128) u128.U128 {
	// a + b < 2q < 2^125, so the sum never wraps 128 bits.
	s := a.Add(b)
	if m.Q.LessEq(s) {
		s = s.Sub(m.Q)
	}
	return s
}

// Sub returns a - b mod q using the conditional-add algorithm (Eq. 3).
// Inputs must already be reduced.
func (m *Modulus128) Sub(a, b u128.U128) u128.U128 {
	if a.Less(b) {
		return a.Add(m.Q).Sub(b)
	}
	return a.Sub(b)
}

// Neg returns -a mod q for reduced a.
func (m *Modulus128) Neg(a u128.U128) u128.U128 {
	if a.IsZero() {
		return a
	}
	return m.Q.Sub(a)
}

// Mul returns a * b mod q via Barrett reduction (Eq. 4) over the
// schoolbook product (Eq. 8). Inputs must be reduced; the result is
// reduced.
//
// With n = bitlen(q), the quotient estimate is
//
//	qhat = floor( floor(ab / 2^(n-1)) * mu / 2^(n+1) ),
//
// which is within 2 of the true quotient, so at most two corrective
// subtractions follow. All intermediates fit in 256 bits because
// ab < 2^(2n) <= 2^248 and mu < 2^(n+1). The arithmetic runs flattened to
// machine words in MulBarrett128Words (barrett128_hot.go).
func (m *Modulus128) Mul(a, b u128.U128) u128.U128 {
	hi, lo := MulBarrett128Words(a.Hi, a.Lo, b.Hi, b.Lo,
		m.Q.Hi, m.Q.Lo, m.Mu.Hi, m.Mu.Lo, m.N-1, m.N+1)
	return u128.U128{Hi: hi, Lo: lo}
}

// Pow returns base^exp mod q by square-and-multiply. base must be reduced.
func (m *Modulus128) Pow(base u128.U128, exp u128.U128) u128.U128 {
	result := u128.One
	if m.Q.Equal(u128.One) {
		return u128.Zero
	}
	b := base
	for e := exp; !e.IsZero(); e = e.Rsh(1) {
		if e.Lo&1 == 1 {
			result = m.Mul(result, b)
		}
		b = m.Mul(b, b)
	}
	return result
}

// Inv returns a^(q-2) mod q, the multiplicative inverse of a when q is prime
// and a is nonzero mod q.
func (m *Modulus128) Inv(a u128.U128) u128.U128 {
	return m.Pow(a, m.Q.Sub64(2))
}
