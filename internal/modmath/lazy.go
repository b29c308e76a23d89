package modmath

import "math/bits"

// Lazy (deferred) reduction primitives. The strict hot-path operations in
// this package keep every residue canonical in [0, q); the fused span
// kernels in internal/ring instead carry residues in the relaxed domain
// [0, 2q) across NTT stages and normalize once at the transform boundary,
// dropping one conditional subtraction per butterfly — the software
// analogue of the paper's pipelined modular-arithmetic stages, where
// intermediate values also stay unnormalized between pipeline registers.
//
// Headroom inventory for q < 2^62 (enforced by NewModulus64):
//
//	2q < 2^63   relaxed residues fit a word with two spare bits
//	4q < 2^64   a sum of two relaxed residues, or a + 2q - b, never wraps
//
// so every intermediate the lazy butterflies form is exact in uint64.
// The same inventory carries verbatim to the vector kernel tier
// (internal/ring's kernels64_*_amd64.s): each SIMD lane is an
// independent 64-bit word running exactly this arithmetic, the
// conditional subtractions are branchless per-lane selects (VPMINUQ of x
// and x - c on AVX-512; a sign-flipped VPCMPGTQ mask on AVX2, where the
// flip is what makes the signed compare order unsigned values), and the
// MulShoupLazy bound below needs no adjustment because it already holds
// for ANY 64-bit a — which is also why the vector bodies are bit-exact
// against the scalar kernels on arbitrary lane values, not just
// in-contract residues.

// MulShoupLazy returns r ≡ a * w (mod q) with r in [0, 2q), for ANY
// a < 2^64 (it need not be reduced), w < q, and wPrecon =
// ShoupPrecompute(w). It is MulShoup without the final conditional
// subtraction.
//
// Proof of the [0, 2q) bound: let β = 2^64 and ρ = w·β - wPrecon·q, so
// 0 <= ρ < q by definition of wPrecon = floor(w·β/q). Then
//
//	a·w - floor(a·wPrecon/β)·q = (a·ρ + (a·wPrecon mod β)·q) / β
//	                           < (β·q + β·q) / β = 2q,
//
// and the value is trivially >= 0. Since 2q < 2^63 < β, computing the
// two products modulo β (as the machine does) loses nothing: the low 64
// bits of a·w - qhat·q are the exact result.
func (m *Modulus64) MulShoupLazy(a, w, wPrecon uint64) uint64 {
	qhat, _ := bits.Mul64(a, wPrecon)
	return a*w - qhat*m.Q
}

// ReduceLazy normalizes a relaxed residue r in [0, 2q) to canonical
// [0, q): the single conditional subtraction the lazy pipeline deferred.
func (m *Modulus64) ReduceLazy(r uint64) uint64 {
	if r >= m.Q {
		r -= m.Q
	}
	return r
}
