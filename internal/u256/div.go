package u256

import (
	"math/big"
	"math/bits"

	"mqxgo/internal/u128"
)

// DivMod128 returns the quotient and remainder of x divided by a 128-bit
// divisor using restoring shift-subtract division. It panics if d is zero.
//
// This is deliberately the slow, generic reduction path: the "generic"
// baseline backend (standing in for OpenFHE's built-in 128-bit math backend)
// reduces products with this routine, while the optimized backends use
// Barrett reduction (internal/modmath). Precomputation code also uses it to
// derive the Barrett constant mu without math/big.
func (x U256) DivMod128(d u128.U128) (q U256, r u128.U128) {
	if d.IsZero() {
		panic("u256: division by zero")
	}
	dw := FromU128(d)
	if x.Less(dw) {
		return U256{}, x.Lo128()
	}
	shift := x.BitLen() - dw.BitLen()
	den := dw.Lsh(uint(shift))
	rem := x
	for i := shift; i >= 0; i-- {
		q = q.Lsh(1)
		if den.Cmp(rem) <= 0 {
			rem = rem.Sub(den)
			q.W[0] |= 1
		}
		den = den.Rsh(1)
	}
	return q, rem.Lo128()
}

// Mod128 returns x mod d for a 128-bit divisor d.
func (x U256) Mod128(d u128.U128) u128.U128 {
	_, r := x.DivMod128(d)
	return r
}

// ToBig converts x to a math/big integer (tests and baselines only).
func (x U256) ToBig() *big.Int {
	b := new(big.Int)
	for i := 3; i >= 0; i-- {
		b.Lsh(b, 64)
		b.Or(b, new(big.Int).SetUint64(x.W[i]))
	}
	return b
}

// FromBig converts a math/big integer to a U256, reporting ok=false when b
// is negative or wider than 256 bits.
func FromBig(b *big.Int) (x U256, ok bool) {
	if b.Sign() < 0 || b.BitLen() > 256 {
		return U256{}, false
	}
	// Word i sits at bit i*bits.UintSize (a 32-bit big.Word is half a limb).
	for i, w := range b.Bits() {
		sh := uint(i * bits.UintSize)
		x.W[sh/64] |= uint64(w) << (sh % 64)
	}
	return x, true
}

// String renders x in decimal (via math/big; not a hot path).
func (x U256) String() string { return x.ToBig().String() }
