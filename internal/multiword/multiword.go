// Package multiword generalizes the library's double-word (128-bit)
// arithmetic to arbitrary k-word integers — the Section 7 direction the
// paper sketches via MoMA's multi-word modular arithmetic: decompose
// large-integer operations into machine-word operations so the same
// kernels scale to the 256-bit-and-beyond residues used by zero-knowledge
// proof systems.
//
// Values are little-endian word arrays of a fixed width k. Modular
// multiplication uses the same generalized Barrett reduction as
// internal/modmath, with 2k-word intermediates; all operations are exact
// and validated against math/big.
package multiword

import (
	"fmt"
	"math/big"
	"math/bits"
)

// Int is a k-word little-endian unsigned integer. Functions in this
// package require operands of equal width.
type Int []uint64

// NewInt returns a zero value of width k words.
func NewInt(k int) Int { return make(Int, k) }

// Clone returns a copy of x.
func (x Int) Clone() Int { return append(Int(nil), x...) }

// IsZero reports whether x == 0.
func (x Int) IsZero() bool {
	for _, w := range x {
		if w != 0 {
			return false
		}
	}
	return true
}

// BitLen returns the bit length of x.
func (x Int) BitLen() int {
	for i := len(x) - 1; i >= 0; i-- {
		if x[i] != 0 {
			return i*64 + bits.Len64(x[i])
		}
	}
	return 0
}

// Cmp compares equal-width x and y: -1, 0 or +1.
func (x Int) Cmp(y Int) int {
	for i := len(x) - 1; i >= 0; i-- {
		if x[i] != y[i] {
			if x[i] < y[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// addTo computes z = x + y (equal widths), returning the carry-out.
func addTo(z, x, y Int) uint64 {
	var c uint64
	for i := range x {
		z[i], c = bits.Add64(x[i], y[i], c)
	}
	return c
}

// subTo computes z = x - y (equal widths), returning the borrow-out.
func subTo(z, x, y Int) uint64 {
	var b uint64
	for i := range x {
		z[i], b = bits.Sub64(x[i], y[i], b)
	}
	return b
}

// mulTo computes the full 2k-word product z = x * y by the schoolbook
// method (the word-level analogue of Eq. 8).
func mulTo(z Int, x, y Int) {
	for i := range z {
		z[i] = 0
	}
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		var carry uint64
		for j, yj := range y {
			hi, lo := bits.Mul64(xi, yj)
			var c uint64
			z[i+j], c = bits.Add64(z[i+j], lo, 0)
			hi += c
			z[i+j+1], c = bits.Add64(z[i+j+1], hi, carry)
			carry = c
		}
		// Propagate any remaining carry.
		for p := i + len(y) + 1; carry != 0 && p < len(z); p++ {
			z[p], carry = bits.Add64(z[p], 0, carry)
		}
	}
}

// shrTo computes z = x >> s truncated to len(z) words.
func shrTo(z Int, x Int, s uint) {
	word := int(s / 64)
	bit := s % 64
	for i := range z {
		var w uint64
		if i+word < len(x) {
			w = x[i+word] >> bit
			if bit != 0 && i+word+1 < len(x) {
				w |= x[i+word+1] << (64 - bit)
			}
		}
		z[i] = w
	}
}

// Modulus is a k-word modulus with Barrett precomputation. The modulus
// must leave at least 4 bits of headroom in the top word (the same l-4
// constraint as the paper's 128-bit case, scaled to l = 64k).
type Modulus struct {
	K  int
	Q  Int
	Mu Int // floor(2^(2n)/q), n = bitlen(q); up to n+1 bits
	N  uint

	// scratch buffers sized once; Modulus methods are not safe for
	// concurrent use (construct one per goroutine, like a hash.Hash).
	t, v    Int // 2k-word products
	u, qhat Int // k+1-word intermediates
	w, r    Int
}

// NewModulus builds the Barrett context for q of width k words.
func NewModulus(q Int) (*Modulus, error) {
	k := len(q)
	if k < 1 {
		return nil, fmt.Errorf("multiword: empty modulus")
	}
	n := q.BitLen()
	if n < 2 {
		return nil, fmt.Errorf("multiword: modulus too small")
	}
	if n > 64*k-4 {
		return nil, fmt.Errorf("multiword: modulus has %d bits, needs <= %d for %d-word Barrett", n, 64*k-4, k)
	}
	// mu = floor(2^(2n)/q) computed via big.Int (setup path only).
	qb := toBig(q)
	mu := new(big.Int).Lsh(big.NewInt(1), uint(2*n))
	mu.Div(mu, qb)
	m := &Modulus{
		K: k, Q: q.Clone(), Mu: fromBig(mu, k), N: uint(n),
		t: NewInt(2 * k), v: NewInt(2 * k),
		u: NewInt(k), qhat: NewInt(k), w: NewInt(k), r: NewInt(k),
	}
	return m, nil
}

// MustModulus is NewModulus but panics on error.
func MustModulus(q Int) *Modulus {
	m, err := NewModulus(q)
	if err != nil {
		panic(err)
	}
	return m
}

// Add returns (a + b) mod q for reduced inputs.
func (m *Modulus) Add(a, b Int) Int {
	z := NewInt(m.K)
	carry := addTo(z, a, b)
	if carry != 0 || z.Cmp(m.Q) >= 0 {
		subTo(z, z, m.Q)
	}
	return z
}

// Sub returns (a - b) mod q for reduced inputs.
func (m *Modulus) Sub(a, b Int) Int {
	z := NewInt(m.K)
	if subTo(z, a, b) != 0 {
		addTo(z, z, m.Q)
	}
	return z
}

// Neg returns -a mod q for reduced a.
func (m *Modulus) Neg(a Int) Int {
	if a.IsZero() {
		return a.Clone()
	}
	z := NewInt(m.K)
	subTo(z, m.Q, a)
	return z
}

// Mul returns (a * b) mod q via generalized Barrett reduction.
func (m *Modulus) Mul(a, b Int) Int {
	mulTo(m.t, a, b) // t = a*b, 2k words, t < 2^(2n)

	// u = floor(t / 2^(n-1)), at most n+1 bits -> fits k words.
	shrTo(m.u, m.t, m.N-1)

	// v = u * mu, up to 2n+2 bits; qhat = floor(v / 2^(n+1)).
	mulKxK(m.v, m.u, m.Mu)
	shrTo(m.qhat, m.v, m.N+1)

	// w = low k words of qhat * q.
	mulLowK(m.w, m.qhat, m.Q)

	// r = (t mod 2^(64k)) - w; true remainder < 3q fits k words exactly.
	copy(m.r, m.t[:m.K])
	subTo(m.r, m.r, m.w)

	// At most two corrective subtractions.
	for m.r.Cmp(m.Q) >= 0 {
		subTo(m.r, m.r, m.Q)
	}
	return m.r.Clone()
}

// mulKxK computes the 2k-word product of two k-word values into z.
func mulKxK(z Int, x, y Int) { mulTo(z, x, y) }

// mulLowK computes the low k words of x*y into z.
func mulLowK(z Int, x, y Int) {
	for i := range z {
		z[i] = 0
	}
	k := len(z)
	for i, xi := range x {
		if xi == 0 || i >= k {
			continue
		}
		var carry uint64
		for j := 0; j < k-i; j++ {
			hi, lo := bits.Mul64(xi, y[j])
			var c uint64
			z[i+j], c = bits.Add64(z[i+j], lo, 0)
			hi += c
			if i+j+1 < k {
				z[i+j+1], c = bits.Add64(z[i+j+1], hi, carry)
				carry = c
			}
		}
	}
}

// Pow returns base^exp mod q (exp as a plain uint64).
func (m *Modulus) Pow(base Int, exp uint64) Int {
	result := NewInt(m.K)
	result[0] = 1
	b := base.Clone()
	for e := exp; e != 0; e >>= 1 {
		if e&1 == 1 {
			result = m.Mul(result, b)
		}
		b = m.Mul(b, b)
	}
	return result
}

// PowBig returns base^exp mod q for a big exponent.
func (m *Modulus) PowBig(base Int, exp *big.Int) Int {
	result := NewInt(m.K)
	result[0] = 1
	b := base.Clone()
	for i := 0; i < exp.BitLen(); i++ {
		if exp.Bit(i) == 1 {
			result = m.Mul(result, b)
		}
		b = m.Mul(b, b)
	}
	return result
}

// Inv returns a^(q-2) mod q for prime q.
func (m *Modulus) Inv(a Int) Int {
	qm2 := new(big.Int).Sub(toBig(m.Q), big.NewInt(2))
	return m.PowBig(a, qm2)
}

// Reduce reduces an arbitrary k-word value modulo q (setup paths).
func (m *Modulus) Reduce(a Int) Int {
	ab := toBig(a)
	ab.Mod(ab, toBig(m.Q))
	return fromBig(ab, m.K)
}

func toBig(x Int) *big.Int {
	b := new(big.Int)
	for i := len(x) - 1; i >= 0; i-- {
		b.Lsh(b, 64)
		b.Or(b, new(big.Int).SetUint64(x[i]))
	}
	return b
}

func fromBig(b *big.Int, k int) Int {
	z := NewInt(k)
	// Word i sits at bit i*bits.UintSize (a 32-bit big.Word is half a limb).
	for i, w := range b.Bits() {
		sh := uint(i * bits.UintSize)
		if int(sh/64) >= k {
			break
		}
		z[sh/64] |= uint64(w) << (sh % 64)
	}
	return z
}

// ToBig converts x to a big integer.
func (x Int) ToBig() *big.Int { return toBig(x) }

// FromBig converts b to a k-word Int; ok is false when b is negative or
// too wide.
func FromBig(b *big.Int, k int) (Int, bool) {
	if b.Sign() < 0 || b.BitLen() > 64*k {
		return nil, false
	}
	return fromBig(b, k), true
}
