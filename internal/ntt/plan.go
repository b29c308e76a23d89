// Package ntt exposes the number theoretic transform over Z_q at the two
// coefficient widths the paper compares: 128-bit double-word residues
// (Plan, the primary configuration of Sections 2.3 and 3.2) and
// single-word 64-bit residues with Shoup twiddles (Plan64, the RNS-tower
// substrate of Sections 1 and 8).
//
// Both run on the generic engine in internal/ring, which implements the
// Pease constant-geometry stage loops, pooled ping-pong scratch,
// negacyclic twist/untwist, folded 1/N scaling, the process-wide plan
// cache, and the chunk-dispatch batch worker pool exactly once. This
// package adds the width-specific pieces:
//   - Plan (plan.go, native.go): the 128-bit engine plan, whose
//     ForwardInto, InverseInto, PolyMulNegacyclicInto and
//     BatchForwardInto delegate to the generic plan, plus the SoA
//     blas.Vector forward-twiddle mirror the trace-machine and baseline
//     dataflows read.
//   - Plan64 (ntt64.go): a cached handle to the 64-bit engine plan; every
//     caller transforms through Generic().
//   - ForwardVM (vmntt.go): generic over a kernels backend, producing the
//     scalar/AVX2/AVX-512/MQX instruction stream of the forward transform
//     on the trace machine, which core.VerifyAllTiers checks against the
//     native engine.
//   - Reference / SchoolbookNegacyclic (reference.go): the O(n^2)
//     definitions, used as ground truth.
//
// A Plan is safe for concurrent use once built: the twiddle tables are
// read-only after NewPlan and all mutable transform state lives in pooled
// scratch buffers.
package ntt

import (
	"mqxgo/internal/blas"
	"mqxgo/internal/modmath"
	"mqxgo/internal/ring"
	"mqxgo/internal/u128"
)

// Plan holds the precomputed tables for size-n transforms modulo q with
// 128-bit coefficients. FwdTw is an SoA blas.Vector mirror of the generic
// engine's forward twiddles, read by the trace-machine dataflow
// (ForwardVM) and the baseline backends (ForwardWith, core.BigPlan); the
// transforms themselves run on the embedded generic plan.
type Plan struct {
	Mod *modmath.Modulus128
	N   int // transform size, a power of two >= 2
	M   int // log2(N)

	NInv u128.U128 // N^-1 mod q

	// FwdTw[s] holds the N/2 stage-s forward twiddles in SoA layout.
	FwdTw []blas.Vector

	g *ring.Plan[u128.U128, ring.Barrett128]
}

// NewPlan builds a plan for n-point transforms modulo mod.Q. n must be a
// power of two >= 2, and 2n must divide q-1 (the negacyclic twist needs a
// 2n-th root of unity).
func NewPlan(mod *modmath.Modulus128, n int) (*Plan, error) {
	g, err := ring.NewPlan[u128.U128, ring.Barrett128](ring.NewBarrett128(mod), n)
	if err != nil {
		return nil, err
	}
	p := &Plan{
		Mod:  mod,
		N:    g.N,
		M:    g.M,
		NInv: g.NInv,
		g:    g,
	}
	p.FwdTw = make([]blas.Vector, g.M)
	for s := 0; s < g.M; s++ {
		fw, _ := g.FwdStage(s)
		p.FwdTw[s] = blas.FromSlice(fw)
	}
	return p, nil
}

// Generic returns the underlying generic engine plan, for callers that
// batch across plans (RNS towers) or instantiate width-agnostic code.
func (p *Plan) Generic() *ring.Plan[u128.U128, ring.Barrett128] { return p.g }

// ForwardInto computes the forward NTT of x (natural order) into dst
// (bit-reversed order). dst and x must both have length N; dst may alias
// x for an in-place transform. Steady-state it allocates nothing.
func (p *Plan) ForwardInto(dst, x []u128.U128) { p.g.ForwardInto(dst, x) }

// InverseInto computes the inverse NTT of y (bit-reversed order) into dst
// (natural order), with the 1/N scale folded into the final stage. dst
// may alias y. Steady-state it allocates nothing.
func (p *Plan) InverseInto(dst, y []u128.U128) { p.g.InverseInto(dst, y) }

// PolyMulNegacyclicInto computes dst = a*b in Z_q[x]/(x^n + 1) via the
// twisted NTT. dst may alias a or b. Steady-state it allocates nothing.
func (p *Plan) PolyMulNegacyclicInto(dst, a, b []u128.U128) {
	p.g.PolyMulNegacyclicInto(dst, a, b)
}

// BatchForwardInto runs the forward transform of every input through the
// generic engine's worker pool (Section 6, "towards realizing SOL
// performance"), across at most workers chunks (0 means GOMAXPROCS):
// dst[i] receives the transform of inputs[i]. Beyond the fixed dispatch
// cost (one closure and one scratch checkout per chunk) it allocates
// nothing.
func (p *Plan) BatchForwardInto(dst, inputs [][]u128.U128, workers int) {
	p.g.BatchForwardInto(dst, inputs, workers)
}
