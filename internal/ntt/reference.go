package ntt

import (
	"mqxgo/internal/modmath"
	"mqxgo/internal/u128"
)

// Reference computes the n-point NTT directly from the definition (Eq. 11):
//
//	y_k = sum_j x_j * omega^(jk) mod q.
//
// O(n^2); for tests only. The output is in natural order.
func Reference(mod *modmath.Modulus128, omega u128.U128, x []u128.U128) []u128.U128 {
	n := len(x)
	y := make([]u128.U128, n)
	// row k uses step omega^k.
	for k := 0; k < n; k++ {
		step := mod.Pow(omega, u128.From64(uint64(k)))
		acc := u128.Zero
		w := u128.One
		for j := 0; j < n; j++ {
			acc = mod.Add(acc, mod.Mul(x[j], w))
			w = mod.Mul(w, step)
		}
		y[k] = acc
	}
	return y
}

// SchoolbookNegacyclic multiplies two polynomials in Z_q[x]/(x^n + 1) by
// the O(n^2) definition: the ground truth tests and the benchmark's
// kernels128 check products against.
func SchoolbookNegacyclic(mod *modmath.Modulus128, a, b []u128.U128) []u128.U128 {
	n := len(a)
	c := make([]u128.U128, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			p := mod.Mul(a[i], b[j])
			k := i + j
			if k < n {
				c[k] = mod.Add(c[k], p)
			} else {
				c[k-n] = mod.Sub(c[k-n], p) // x^n = -1
			}
		}
	}
	return c
}
