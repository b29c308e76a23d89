// Package u256 implements the 256-bit unsigned arithmetic needed as an
// intermediate representation for 128-bit Barrett reduction (internal/modmath)
// and for the division-based "generic" baseline backend.
//
// A U256 is four 64-bit words in little-endian word order. The widening
// 128x128->256 multiplication is the paper's Eq. 8 (schoolbook, four word
// multiplications).
package u256

import (
	"math/bits"

	"mqxgo/internal/u128"
)

// U256 is an unsigned 256-bit integer; W[0] is the least significant word.
type U256 struct {
	W [4]uint64
}

// FromU128 widens x to 256 bits.
func FromU128(x u128.U128) U256 {
	return U256{W: [4]uint64{x.Lo, x.Hi, 0, 0}}
}

// From64 widens x to 256 bits.
func From64(x uint64) U256 { return U256{W: [4]uint64{x, 0, 0, 0}} }

// Lo128 returns the low 128 bits of x.
func (x U256) Lo128() u128.U128 { return u128.U128{Hi: x.W[1], Lo: x.W[0]} }

// Hi128 returns the high 128 bits of x.
func (x U256) Hi128() u128.U128 { return u128.U128{Hi: x.W[3], Lo: x.W[2]} }

// Equal reports whether x == y.
func (x U256) Equal(y U256) bool { return x.W == y.W }

// Cmp compares x and y, returning -1, 0 or +1.
func (x U256) Cmp(y U256) int {
	for i := 3; i >= 0; i-- {
		if x.W[i] != y.W[i] {
			if x.W[i] < y.W[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Less reports whether x < y.
func (x U256) Less(y U256) bool { return x.Cmp(y) < 0 }

// Sub returns x - y mod 2^256.
func (x U256) Sub(y U256) U256 {
	var z U256
	var b uint64
	for i := 0; i < 4; i++ {
		z.W[i], b = bits.Sub64(x.W[i], y.W[i], b)
	}
	return z
}

// Lsh returns x << n mod 2^256 for 0 <= n. Shifts of 256 or more return zero.
func (x U256) Lsh(n uint) U256 {
	if n >= 256 {
		return U256{}
	}
	word := n / 64
	bit := n % 64
	var z U256
	for i := 3; i >= int(word); i-- {
		z.W[i] = x.W[i-int(word)] << bit
		if bit != 0 && i-int(word)-1 >= 0 {
			z.W[i] |= x.W[i-int(word)-1] >> (64 - bit)
		}
	}
	return z
}

// Rsh returns x >> n. Shifts of 256 or more return zero.
func (x U256) Rsh(n uint) U256 {
	if n >= 256 {
		return U256{}
	}
	word := n / 64
	bit := n % 64
	var z U256
	for i := 0; i < 4-int(word); i++ {
		z.W[i] = x.W[i+int(word)] >> bit
		if bit != 0 && i+int(word)+1 < 4 {
			z.W[i] |= x.W[i+int(word)+1] << (64 - bit)
		}
	}
	return z
}

// BitLen returns the number of bits required to represent x.
func (x U256) BitLen() int {
	for i := 3; i >= 0; i-- {
		if x.W[i] != 0 {
			return i*64 + bits.Len64(x.W[i])
		}
	}
	return 0
}

// MulSchoolbook returns the full 256-bit product of two 128-bit integers
// using the schoolbook method (Eq. 8): four 64x64->128 multiplications.
func MulSchoolbook(a, b u128.U128) U256 {
	// c = a0*b0*2^128 + (a0*b1 + a1*b0)*2^64 + a1*b1,
	// with a0 = a.Hi, a1 = a.Lo per the paper's [x0, x1] notation.
	ll := u128.Mul64(a.Lo, b.Lo)
	lh := u128.Mul64(a.Lo, b.Hi)
	hl := u128.Mul64(a.Hi, b.Lo)
	hh := u128.Mul64(a.Hi, b.Hi)

	var z U256
	z.W[0] = ll.Lo
	var c uint64
	z.W[1], c = bits.Add64(ll.Hi, lh.Lo, 0)
	z.W[2], c = bits.Add64(hh.Lo, lh.Hi, c)
	z.W[3] = hh.Hi + c
	z.W[1], c = bits.Add64(z.W[1], hl.Lo, 0)
	z.W[2], c = bits.Add64(z.W[2], hl.Hi, c)
	z.W[3] += c
	return z
}
