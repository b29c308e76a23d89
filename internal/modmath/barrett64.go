package modmath

import (
	"fmt"
	"math/bits"
)

// Modulus64 holds a single-word modulus q < 2^62 with Barrett precomputation
// for 64-bit modular arithmetic. It is the substrate for the residue number
// system (RNS) backend, the conventional alternative to 128-bit residues
// that the paper discusses in Sections 1 and 8.
type Modulus64 struct {
	Q  uint64
	Mu uint64 // floor(2^(2n)/q) with n = bitlen(q); fits in n+1 <= 63 bits
	N  uint
}

// NewModulus64 validates q and precomputes the Barrett constant.
// q must be in [2, 2^62) so that a+b and the Barrett estimate never overflow.
func NewModulus64(q uint64) (*Modulus64, error) {
	if q < 2 {
		return nil, fmt.Errorf("modmath: modulus %d too small", q)
	}
	if bits.Len64(q) > 62 {
		return nil, fmt.Errorf("modmath: 64-bit Barrett requires q < 2^62, got %d bits", bits.Len64(q))
	}
	n := uint(bits.Len64(q))
	// mu = floor(2^(2n) / q). 2n <= 124 so the dividend fits in 128 bits.
	var mu uint64
	if 2*n >= 64 {
		hi := uint64(1) << (2*n - 64)
		mu, _ = bits.Div64(hi, 0, q)
	} else {
		mu = (uint64(1) << (2 * n)) / q
	}
	return &Modulus64{Q: q, Mu: mu, N: n}, nil
}

// MustModulus64 is NewModulus64 but panics on error.
func MustModulus64(q uint64) *Modulus64 {
	m, err := NewModulus64(q)
	if err != nil {
		panic(err)
	}
	return m
}

// Add returns a + b mod q for reduced inputs.
//
// Add and Sub correct without a branch: a sum of random residues is as
// likely above q as below it, so a conditional subtraction mispredicts
// every other element. Because q < 2^62, the sign bit of a+b-q (or of
// a-b) is set exactly when q must be added back.
func (m *Modulus64) Add(a, b uint64) uint64 {
	s := a + b - m.Q
	return s + m.Q&uint64(int64(s)>>63)
}

// Sub returns a - b mod q for reduced inputs.
func (m *Modulus64) Sub(a, b uint64) uint64 {
	d := a - b
	return d + m.Q&uint64(int64(d)>>63)
}

// Neg returns -a mod q for reduced a.
func (m *Modulus64) Neg(a uint64) uint64 {
	if a == 0 {
		return 0
	}
	return m.Q - a
}

// Mul returns a * b mod q via Barrett reduction for reduced inputs.
func (m *Modulus64) Mul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return m.reduce(hi, lo)
}

// Barrett64Reduce reduces a 128-bit product hi:lo of two residues modulo
// q, with the constants passed in registers: mu is the Barrett constant
// floor(2^(2n)/q) and n = bitlen(q), at most 62 (as NewModulus64
// validates) so every shift amount stays in range. This is the one shared
// copy of the single-word reduction: Modulus64.Mul reaches it through
// reduce, and internal/ring's fused Shoup64.MulSpan kernel calls it
// directly with constants hoisted out of its loop.
func Barrett64Reduce(hi, lo, q, mu uint64, n uint) uint64 {
	// t1 = floor(t / 2^(n-1)), at most n+1 bits.
	t1 := lo>>(n-1) | hi<<(65-n)
	// qhat = floor(t1 * mu / 2^(n+1)).
	h2, l2 := bits.Mul64(t1, mu)
	qhat := l2>>(n+1) | h2<<(63-n)
	r := lo - qhat*q
	for r >= q {
		r -= q
	}
	return r
}

func (m *Modulus64) reduce(hi, lo uint64) uint64 {
	return Barrett64Reduce(hi, lo, m.Q, m.Mu, m.N)
}

// Pow returns base^exp mod q.
func (m *Modulus64) Pow(base, exp uint64) uint64 {
	result := uint64(1)
	b := base % m.Q
	for e := exp; e != 0; e >>= 1 {
		if e&1 == 1 {
			result = m.Mul(result, b)
		}
		b = m.Mul(b, b)
	}
	return result
}

// Inv returns the multiplicative inverse of a mod prime q.
func (m *Modulus64) Inv(a uint64) uint64 { return m.Pow(a, m.Q-2) }

// ShoupPrecompute returns the Shoup precomputation w' = floor(w * 2^64 / q)
// for a fixed multiplicand w (typically an NTT twiddle factor).
func (m *Modulus64) ShoupPrecompute(w uint64) uint64 {
	q, _ := bits.Div64(w, 0, m.Q)
	return q
}

// MulShoup returns a * w mod q using the Shoup trick: one high multiply and
// one low multiply with a single conditional correction. w must be reduced
// and wPrecon must come from ShoupPrecompute(w).
func (m *Modulus64) MulShoup(a, w, wPrecon uint64) uint64 {
	qhat, _ := bits.Mul64(a, wPrecon)
	r := a*w - qhat*m.Q
	if r >= m.Q {
		r -= m.Q
	}
	return r
}
