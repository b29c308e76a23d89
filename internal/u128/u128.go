// Package u128 implements 128-bit unsigned integer arithmetic from scratch
// on top of 64-bit machine words.
//
// The paper calls a 128-bit quantity a "double-word": [x0, x1] with x0 the
// high 64 bits and x1 the low 64 bits (Eq. 5). U128 mirrors that layout.
// Its primitive operations (addition, subtraction, widening multiply) are
// the scalar counterparts of the SIMD instructions modeled in internal/vm,
// so the vector machine's semantics can be validated lane by lane against
// this package.
package u128

import "math/bits"

// U128 is an unsigned 128-bit integer. Hi holds bits 64..127, Lo bits 0..63.
type U128 struct {
	Hi, Lo uint64
}

// Zero is the zero value of U128.
var Zero = U128{}

// One is the U128 with value 1.
var One = U128{Lo: 1}

// Max is the largest representable U128, 2^128 - 1.
var Max = U128{Hi: ^uint64(0), Lo: ^uint64(0)}

// New returns the U128 with the given high and low words.
func New(hi, lo uint64) U128 { return U128{Hi: hi, Lo: lo} }

// From64 returns the U128 with value x.
func From64(x uint64) U128 { return U128{Lo: x} }

// IsZero reports whether x is zero.
func (x U128) IsZero() bool { return x.Hi == 0 && x.Lo == 0 }

// Is64 reports whether x fits in a single 64-bit word.
func (x U128) Is64() bool { return x.Hi == 0 }

// Equal reports whether x == y.
func (x U128) Equal(y U128) bool { return x.Hi == y.Hi && x.Lo == y.Lo }

// Cmp compares x and y, returning -1 if x < y, 0 if x == y, +1 if x > y.
func (x U128) Cmp(y U128) int {
	switch {
	case x.Hi < y.Hi:
		return -1
	case x.Hi > y.Hi:
		return 1
	case x.Lo < y.Lo:
		return -1
	case x.Lo > y.Lo:
		return 1
	}
	return 0
}

// Less reports whether x < y.
func (x U128) Less(y U128) bool {
	if x.Hi != y.Hi {
		return x.Hi < y.Hi
	}
	return x.Lo < y.Lo
}

// LessEq reports whether x <= y.
func (x U128) LessEq(y U128) bool { return !y.Less(x) }

// Add returns x + y mod 2^128.
func (x U128) Add(y U128) U128 {
	lo, c := bits.Add64(x.Lo, y.Lo, 0)
	hi, _ := bits.Add64(x.Hi, y.Hi, c)
	return U128{Hi: hi, Lo: lo}
}

// Add64 returns x + y mod 2^128 for a 64-bit y.
func (x U128) Add64(y uint64) U128 {
	lo, c := bits.Add64(x.Lo, y, 0)
	return U128{Hi: x.Hi + c, Lo: lo}
}

// Sub returns x - y mod 2^128.
func (x U128) Sub(y U128) U128 {
	lo, b := bits.Sub64(x.Lo, y.Lo, 0)
	hi, _ := bits.Sub64(x.Hi, y.Hi, b)
	return U128{Hi: hi, Lo: lo}
}

// Sub64 returns x - y mod 2^128 for a 64-bit y.
func (x U128) Sub64(y uint64) U128 {
	lo, b := bits.Sub64(x.Lo, y, 0)
	return U128{Hi: x.Hi - b, Lo: lo}
}

// Mul64 returns the full 128-bit product of two 64-bit words.
// This is the scalar widening multiplication that MQX's _mm512_mul_epi64
// provides per SIMD lane (x86 MUL writes such a register pair).
func Mul64(a, b uint64) U128 {
	hi, lo := bits.Mul64(a, b)
	return U128{Hi: hi, Lo: lo}
}

// MulLo returns x * y mod 2^128.
func (x U128) MulLo(y U128) U128 {
	hi, lo := bits.Mul64(x.Lo, y.Lo)
	hi += x.Hi*y.Lo + x.Lo*y.Hi
	return U128{Hi: hi, Lo: lo}
}

// Lsh returns x << n. Shifts of 128 or more return zero.
func (x U128) Lsh(n uint) U128 {
	switch {
	case n == 0:
		return x
	case n < 64:
		return U128{Hi: x.Hi<<n | x.Lo>>(64-n), Lo: x.Lo << n}
	case n < 128:
		return U128{Hi: x.Lo << (n - 64)}
	}
	return U128{}
}

// Rsh returns x >> n. Shifts of 128 or more return zero.
func (x U128) Rsh(n uint) U128 {
	switch {
	case n == 0:
		return x
	case n < 64:
		return U128{Hi: x.Hi >> n, Lo: x.Lo>>n | x.Hi<<(64-n)}
	case n < 128:
		return U128{Lo: x.Hi >> (n - 64)}
	}
	return U128{}
}

// Or returns x | y.
func (x U128) Or(y U128) U128 { return U128{Hi: x.Hi | y.Hi, Lo: x.Lo | y.Lo} }

// BitLen returns the number of bits required to represent x; BitLen(0) == 0.
func (x U128) BitLen() int {
	if x.Hi != 0 {
		return 64 + bits.Len64(x.Hi)
	}
	return bits.Len64(x.Lo)
}

// LeadingZeros returns the number of leading zero bits in x; 128 for x == 0.
func (x U128) LeadingZeros() int { return 128 - x.BitLen() }

// DivMod64 returns the quotient and remainder of x divided by a 64-bit
// divisor d. It panics if d == 0.
func (x U128) DivMod64(d uint64) (q U128, r uint64) {
	if d == 0 {
		panic("u128: division by zero")
	}
	qHi := x.Hi / d
	rHi := x.Hi % d
	qLo, r := bits.Div64(rHi, x.Lo, d)
	return U128{Hi: qHi, Lo: qLo}, r
}

// DivMod returns the quotient and remainder of x divided by y using
// shift-subtract (restoring) division. It panics if y is zero.
// It is intended for precomputation and testing, not hot paths: the
// library's hot-path reduction is Barrett (internal/modmath).
func (x U128) DivMod(y U128) (q, r U128) {
	if y.IsZero() {
		panic("u128: division by zero")
	}
	if y.Is64() && x.Is64() {
		return From64(x.Lo / y.Lo), From64(x.Lo % y.Lo)
	}
	if y.Is64() {
		q, rem := x.DivMod64(y.Lo)
		return q, From64(rem)
	}
	if x.Less(y) {
		return Zero, x
	}
	shift := y.LeadingZeros() - x.LeadingZeros()
	d := y.Lsh(uint(shift))
	r = x
	for i := shift; i >= 0; i-- {
		q = q.Lsh(1)
		if d.LessEq(r) {
			r = r.Sub(d)
			q = q.Or(One)
		}
		d = d.Rsh(1)
	}
	return q, r
}

// Mod returns x mod y.
func (x U128) Mod(y U128) U128 {
	_, r := x.DivMod(y)
	return r
}
