package ntt

import (
	"fmt"

	"mqxgo/internal/blas"
	"mqxgo/internal/kernels"
)

// PolyMulNegacyclicVM runs the complete negacyclic polynomial
// multiplication pipeline on the trace machine: twist by psi^j, two
// forward NTTs, point-wise multiplication, inverse NTT, and the combined
// untwist/scale pass — the full FHE-style workload of examples/polymul,
// expressed in the instruction vocabulary of whichever ISA tier the
// backend implements.
func PolyMulNegacyclicVM[W, C any](d *kernels.DW[W, C], p *Plan, a, b blas.Vector) (blas.Vector, error) {
	if a.Len() != p.N || b.Len() != p.N {
		return blas.Vector{}, fmt.Errorf("ntt: input lengths %d, %d != plan size %d", a.Len(), b.Len(), p.N)
	}
	o := d.O
	lanes := o.Lanes()
	if p.N%lanes != 0 || p.N/2%lanes != 0 {
		return blas.Vector{}, fmt.Errorf("ntt: size %d incompatible with %d lanes", p.N, lanes)
	}

	// Twist both inputs by psi^j.
	at := blas.NewVector(p.N)
	bt := blas.NewVector(p.N)
	if err := blas.VecPMulModVM(d, at, a, p.Twist); err != nil {
		return blas.Vector{}, err
	}
	if err := blas.VecPMulModVM(d, bt, b, p.Twist); err != nil {
		return blas.Vector{}, err
	}

	af, err := ForwardVM(d, p, at)
	if err != nil {
		return blas.Vector{}, err
	}
	bf, err := ForwardVM(d, p, bt)
	if err != nil {
		return blas.Vector{}, err
	}

	cf := blas.NewVector(p.N)
	if err := blas.VecPMulModVM(d, cf, af, bf); err != nil {
		return blas.Vector{}, err
	}

	// Inverse without the separate 1/N pass: the untwist table already
	// carries psi^-j * N^-1, so run the stage recursion and untwist.
	c := inverseNoScaleVM(d, p, cf)
	out := blas.NewVector(p.N)
	if err := blas.VecPMulModVM(d, out, c, p.Untwist); err != nil {
		return blas.Vector{}, err
	}
	return out, nil
}

// inverseNoScaleVM runs the inverse stage recursion (bit-reversed input,
// natural output) without the 1/N scaling pass; callers have checked y's
// length and the lane count.
func inverseNoScaleVM[W, C any](d *kernels.DW[W, C], p *Plan, y blas.Vector) blas.Vector {
	o := d.O
	lanes := o.Lanes()
	half := p.N / 2
	src := blas.NewVector(p.N)
	copy(src.Hi, y.Hi)
	copy(src.Lo, y.Lo)
	dst := blas.NewVector(p.N)
	for s := p.M - 1; s >= 0; s-- {
		tw := p.InvTw[s]
		for i := 0; i < half; i += lanes {
			r0Hi := o.Load(src.Hi, 2*i)
			r0Lo := o.Load(src.Lo, 2*i)
			r1Hi := o.Load(src.Hi, 2*i+lanes)
			r1Lo := o.Load(src.Lo, 2*i+lanes)
			eHi, oHi := o.Deinterleave(r0Hi, r1Hi)
			eLo, oLo := o.Deinterleave(r0Lo, r1Lo)
			e := kernels.DWPair[W]{Hi: eHi, Lo: eLo}
			od := kernels.DWPair[W]{Hi: oHi, Lo: oLo}
			w := kernels.DWPair[W]{Hi: o.Load(tw.Hi, i), Lo: o.Load(tw.Lo, i)}
			t := d.MulMod(od, w)
			sum := d.AddMod(e, t)
			diff := d.SubMod(e, t)
			o.Store(dst.Hi, i, sum.Hi)
			o.Store(dst.Lo, i, sum.Lo)
			o.Store(dst.Hi, i+half, diff.Hi)
			o.Store(dst.Lo, i+half, diff.Lo)
		}
		src, dst = dst, src
	}
	return src
}
