package ntt

import (
	"mqxgo/internal/u128"
)

// Arith abstracts 128-bit modular arithmetic so baseline backends (the
// division-based "generic" backend, standing in for OpenFHE's built-in
// math backend) can drive the same transform dataflow.
type Arith interface {
	Add(a, b u128.U128) u128.U128
	Sub(a, b u128.U128) u128.U128
	Mul(a, b u128.U128) u128.U128
}

// ForwardWith computes the forward NTT of x on p's dataflow using the
// supplied arithmetic backend instead of the plan's Barrett span kernels.
// Twiddle tables are shared with the optimized path (they are plain
// residues).
func ForwardWith(p *Plan, ar Arith, x []u128.U128) []u128.U128 {
	if len(x) != p.N {
		panic("ntt: input length does not match plan size")
	}
	half := p.N / 2
	src := append([]u128.U128(nil), x...)
	dst := make([]u128.U128, p.N)
	for s := 0; s < p.M; s++ {
		tw := p.FwdStage(s)
		for i := 0; i < half; i++ {
			a, b := src[i], src[i+half]
			dst[2*i] = ar.Add(a, b)
			dst[2*i+1] = ar.Mul(ar.Sub(a, b), tw[i])
		}
		src, dst = dst, src
	}
	return src
}
