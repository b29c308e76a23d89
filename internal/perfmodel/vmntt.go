package perfmodel

import (
	"fmt"

	"mqxgo/internal/blas"
	"mqxgo/internal/kernels"
	"mqxgo/internal/ntt"
)

// ForwardVM computes the forward NTT on the trace machine, generic over the
// backend: the exact instruction stream of the paper's vectorized Pease
// NTT (Section 3.2). x is consumed in natural order; the result is in
// bit-reversed order. core.VerifyAllTiers checks it against the native
// engine, and the consistency test pins the per-body model to its counts.
//
// Per stage, each iteration loads contiguous vectors from the first and
// second halves of the source buffer, runs the butterfly kernel, and writes
// the interleaved outputs contiguously — the constant-geometry property
// that makes the dataflow SIMD-friendly.
func ForwardVM[W, C any](d *kernels.DW[W, C], p *ntt.Plan, x blas.Vector) (blas.Vector, error) {
	if x.Len() != p.N {
		return blas.Vector{}, fmt.Errorf("perfmodel: input length %d != plan size %d", x.Len(), p.N)
	}
	o := d.O
	lanes := o.Lanes()
	half := p.N / 2
	if half%lanes != 0 {
		return blas.Vector{}, fmt.Errorf("perfmodel: n/2 = %d not a multiple of %d lanes", half, lanes)
	}
	src := blas.NewVector(p.N)
	copy(src.Hi, x.Hi)
	copy(src.Lo, x.Lo)
	dst := blas.NewVector(p.N)
	for s := 0; s < p.M; s++ {
		w := p.FwdStage(s)
		tw := blas.FromSlice(w) // the SoA layout the vector loads read
		for i := 0; i < half; i += lanes {
			a := kernels.DWPair[W]{Hi: o.Load(src.Hi, i), Lo: o.Load(src.Lo, i)}
			b := kernels.DWPair[W]{Hi: o.Load(src.Hi, i+half), Lo: o.Load(src.Lo, i+half)}
			w := kernels.DWPair[W]{Hi: o.Load(tw.Hi, i), Lo: o.Load(tw.Lo, i)}
			even, odd := d.Butterfly(a, b, w)
			hi0, hi1 := o.Interleave(even.Hi, odd.Hi)
			lo0, lo1 := o.Interleave(even.Lo, odd.Lo)
			o.Store(dst.Hi, 2*i, hi0)
			o.Store(dst.Lo, 2*i, lo0)
			o.Store(dst.Hi, 2*i+lanes, hi1)
			o.Store(dst.Lo, 2*i+lanes, lo1)
		}
		src, dst = dst, src
	}
	return src, nil
}
