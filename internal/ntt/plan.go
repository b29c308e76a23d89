// Package ntt exposes the number theoretic transform over Z_q at the two
// coefficient widths the paper compares: 128-bit double-word residues
// (Plan, the primary configuration of Sections 2.3 and 3.2) and
// single-word 64-bit residues with Shoup twiddles (Plan64, the RNS-tower
// substrate of Sections 1 and 8).
//
// Both run on the generic engine in internal/ring, which implements the
// Pease constant-geometry stage loops, pooled ping-pong scratch,
// negacyclic twist/untwist, the 1/N landing pass after the inverse
// stages, the process-wide plan cache, and the Fanout batch worker pool
// exactly once. This package adds the width-specific pieces:
//   - Plan (plan.go): the 128-bit engine plan itself, ring.Plan over
//     Barrett128 — callers transform through its ForwardInto,
//     InverseInto, PolyMulNegacyclicInto and BatchForwardInto directly.
//   - Plan64 (ntt64.go): a cached handle to the 64-bit engine plan; every
//     caller transforms through Generic().
//   - Reference / SchoolbookNegacyclic (reference.go): the O(n^2)
//     definitions, used as ground truth.
//
// The package imports only modmath, ring and u128, so the runtime layers
// above it (rns, fhe, serve) link none of the trace-machine packages.
//
// A Plan is safe for concurrent use once built: the twiddle tables are
// read-only after NewPlan and all mutable transform state lives in pooled
// scratch buffers.
package ntt

import (
	"mqxgo/internal/modmath"
	"mqxgo/internal/ring"
	"mqxgo/internal/u128"
)

// Plan is the 128-bit engine plan: size-n transforms modulo q with
// double-word coefficients on the Barrett128 span kernels.
type Plan = ring.Plan[u128.U128, ring.Barrett128]

// NewPlan builds a plan for n-point transforms modulo mod.Q. n must be a
// power of two >= 2, and 2n must divide q-1 (the negacyclic twist needs a
// 2n-th root of unity).
func NewPlan(mod *modmath.Modulus128, n int) (*Plan, error) {
	return ring.NewPlan[u128.U128](ring.NewBarrett128(mod), n)
}
