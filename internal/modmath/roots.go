package modmath

import (
	"fmt"

	"mqxgo/internal/u128"
)

// PrimitiveRootOfUnity returns an element of order exactly n modulo the
// prime q, where n is a power of two dividing q-1.
//
// The search needs no factorization of q-1: for a candidate x, the element
// w = x^((q-1)/n) always has order dividing n; because n is a power of two,
// the order is exactly n iff w^(n/2) != 1. Candidates are tried
// deterministically (x = 2, 3, 4, ...), and since the multiplicative group
// is cyclic roughly half of all candidates succeed.
func (m *Modulus128) PrimitiveRootOfUnity(n uint64) (u128.U128, error) {
	if n == 0 || n&(n-1) != 0 {
		return u128.Zero, fmt.Errorf("modmath: order %d is not a power of two", n)
	}
	qm1 := m.Q.Sub64(1)
	if _, r := qm1.DivMod64(n); r != 0 {
		return u128.Zero, fmt.Errorf("modmath: %d does not divide q-1 for q=%s", n, m.Q)
	}
	if n == 1 {
		return u128.One, nil
	}
	exp, _ := qm1.DivMod64(n)
	half := u128.From64(n / 2)
	for x := uint64(2); x < 1000; x++ {
		w := m.Pow(u128.From64(x), exp)
		if w.IsZero() || w.Equal(u128.One) {
			continue
		}
		if !m.Pow(w, half).Equal(u128.One) {
			return w, nil
		}
	}
	return u128.Zero, fmt.Errorf("modmath: no primitive %d-th root found for q=%s", n, m.Q)
}

// PrimitiveRootOfUnity64 is the single-word analogue used by the RNS
// substrate's 64-bit NTTs.
func (m *Modulus64) PrimitiveRootOfUnity64(n uint64) (uint64, error) {
	if n == 0 || n&(n-1) != 0 {
		return 0, fmt.Errorf("modmath: order %d is not a power of two", n)
	}
	if (m.Q-1)%n != 0 {
		return 0, fmt.Errorf("modmath: %d does not divide q-1 for q=%d", n, m.Q)
	}
	if n == 1 {
		return 1, nil
	}
	exp := (m.Q - 1) / n
	for x := uint64(2); x < 1000; x++ {
		w := m.Pow(x, exp)
		if w <= 1 {
			continue
		}
		if m.Pow(w, n/2) != 1 {
			return w, nil
		}
	}
	return 0, fmt.Errorf("modmath: no primitive %d-th root found for q=%d", n, m.Q)
}
