// Package core is the library facade: it ties the double-word modular
// arithmetic, BLAS and NTT kernels, performance model, PISA methodology and
// roofline analysis together behind one Context type, and assembles every
// table and figure of the paper's evaluation (figures.go) for cmd/report
// and the benchmarks.
package core

import (
	"fmt"

	"mqxgo/internal/modmath"
	"mqxgo/internal/ntt"
	"mqxgo/internal/u128"
)

// Context holds a modulus; NTT plans come from the process-wide
// (q, n)-keyed cache in internal/ntt, so independent contexts on the same
// modulus share twiddle tables.
type Context struct {
	Mod *modmath.Modulus128
}

// NewContext builds a context for the given modulus.
func NewContext(mod *modmath.Modulus128) *Context {
	return &Context{Mod: mod}
}

// Default returns a context on the library's default 124-bit prime, which
// supports negacyclic transforms up to 2^17 (the paper's largest size).
func Default() *Context {
	return NewContext(modmath.DefaultModulus128())
}

// Plan returns the process-wide shared plan for size n, building and
// caching it if needed.
func (c *Context) Plan(n int) (*ntt.Plan, error) {
	return ntt.CachedPlan(c.Mod, n)
}

// NTT computes the forward transform (natural in, bit-reversed out).
func (c *Context) NTT(x []u128.U128) ([]u128.U128, error) {
	p, err := c.Plan(len(x))
	if err != nil {
		return nil, err
	}
	out := make([]u128.U128, len(x))
	p.ForwardInto(out, x)
	return out, nil
}

// INTT computes the inverse transform (bit-reversed in, natural out).
func (c *Context) INTT(y []u128.U128) ([]u128.U128, error) {
	p, err := c.Plan(len(y))
	if err != nil {
		return nil, err
	}
	out := make([]u128.U128, len(y))
	p.InverseInto(out, y)
	return out, nil
}

// PolyMul multiplies two polynomials in Z_q[x]/(x^n + 1).
func (c *Context) PolyMul(a, b []u128.U128) ([]u128.U128, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("core: length mismatch %d vs %d", len(a), len(b))
	}
	p, err := c.Plan(len(a))
	if err != nil {
		return nil, err
	}
	out := make([]u128.U128, len(a))
	p.PolyMulNegacyclicInto(out, a, b)
	return out, nil
}

// Add / Sub / Mul expose the reduced modular arithmetic.
func (c *Context) Add(a, b u128.U128) u128.U128 { return c.Mod.Add(a, b) }

// Sub returns a - b mod q.
func (c *Context) Sub(a, b u128.U128) u128.U128 { return c.Mod.Sub(a, b) }

// Mul returns a * b mod q (Barrett).
func (c *Context) Mul(a, b u128.U128) u128.U128 { return c.Mod.Mul(a, b) }
