// Package blas implements the paper's BLAS-style kernels over Z_q with
// 128-bit coefficients (Section 2.3): vector addition, vector subtraction,
// point-wise vector multiplication, and axpy (y = a*x + y).
//
//   - Native kernels (native.go): the optimized fixed-width scalar backend
//     (Barrett reduction on u128 words), which the benchmark's kernels128
//     workload runs, and a math/big point-wise multiply standing in for
//     GMP, timed beside it.
//   - Vector and Broadcast128 (this file): the SoA operand layout and the
//     double-word broadcast the trace-machine dataflows (ntt.ForwardVM,
//     perfmodel's bodies) load from. Figure 4's modeled per-element times
//     come from perfmodel.BLASBody, not from this package; Op only names
//     the four kernels of that figure.
//
// Vectors use a structure-of-arrays layout: separate hi and lo word slices,
// exactly how the SIMD kernels want their 128-bit lanes split (Section 3.2).
package blas

import (
	"fmt"

	"mqxgo/internal/kernels"
	"mqxgo/internal/u128"
)

// Vector is a vector of 128-bit residues in SoA layout.
type Vector struct {
	Hi, Lo []uint64
}

// NewVector allocates a zero vector of length n.
func NewVector(n int) Vector {
	return Vector{Hi: make([]uint64, n), Lo: make([]uint64, n)}
}

// Len returns the vector length.
func (v Vector) Len() int { return len(v.Hi) }

// At returns element i.
func (v Vector) At(i int) u128.U128 { return u128.U128{Hi: v.Hi[i], Lo: v.Lo[i]} }

// Set stores x at element i.
func (v Vector) Set(i int, x u128.U128) { v.Hi[i], v.Lo[i] = x.Hi, x.Lo }

// FromSlice builds a vector from 128-bit values.
func FromSlice(xs []u128.U128) Vector {
	v := NewVector(len(xs))
	for i, x := range xs {
		v.Set(i, x)
	}
	return v
}

// Op identifies a BLAS kernel in the paper's Figure 4 benchmark set.
type Op int

const (
	// OpVecAdd is element-wise modular vector addition.
	OpVecAdd Op = iota
	// OpVecSub is element-wise modular vector subtraction.
	OpVecSub
	// OpVecPMul is element-wise (point-wise) modular vector multiplication.
	OpVecPMul
	// OpAxpy is y = a*x + y with a scalar a.
	OpAxpy
)

var opNames = map[Op]string{
	OpVecAdd: "vecadd", OpVecSub: "vecsub", OpVecPMul: "vecpmul", OpAxpy: "axpy",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// AllOps lists the Figure 4 kernels.
var AllOps = []Op{OpVecAdd, OpVecSub, OpVecPMul, OpAxpy}

// Broadcast128 broadcasts a 128-bit scalar into a backend double-word pair
// (preamble; call before BeginLoop).
func Broadcast128[W, C any](o kernels.Ops[W, C], x u128.U128) kernels.DWPair[W] {
	return kernels.DWPair[W]{Hi: o.Broadcast(x.Hi), Lo: o.Broadcast(x.Lo)}
}
