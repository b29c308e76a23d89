// Package fhe implements a toy symmetric-key RLWE ("BFV-style") encryption
// scheme — the application domain that motivates the paper (Section 1). The
// scheme logic lives once in BackendScheme, written against the Backend
// seam (backend.go), so the identical keygen/encrypt/decrypt/homomorphic
// pipeline runs on either of the paper's two hardware philosophies: the
// 128-bit double-word ring (NewRingBackend) or a basis of 64-bit RNS
// towers (NewRNSBackend). Both backends carry a modulus-switching ladder
// (BackendScheme.ModSwitchInto) that trades ciphertext width for per-level
// cost down a depth-L circuit, and every evaluation call takes a context
// that is observed at the pipeline's phase boundaries. BackendScheme is
// the one validation perimeter: each evaluation op is one checked
// in-place call (…Into) with an allocating form (…Ctx) on top, and the
// backends only compute.
//
// This is an educational scheme: parameters are chosen for correctness
// demonstrations, not for standardized security levels.
package fhe

import (
	"fmt"

	"mqxgo/internal/modmath"
	"mqxgo/internal/ntt"
	"mqxgo/internal/u128"
)

// Params holds the 128-bit ring backend's parameters:
// R_q = Z_q[x]/(x^N + 1) with plaintext modulus T.
type Params struct {
	Mod *modmath.Modulus128
	N   int
	T   uint64 // plaintext modulus, << q

	Delta u128.U128 // floor(q / T), the plaintext scaling factor
	plan  *ntt.Plan
}

// NewParams validates and precomputes the ring parameters.
func NewParams(mod *modmath.Modulus128, n int, t uint64) (*Params, error) {
	if t < 2 {
		return nil, fmt.Errorf("fhe: plaintext modulus %d too small", t)
	}
	plan, err := ntt.CachedPlan(mod, n)
	if err != nil {
		return nil, err
	}
	delta, _ := mod.Q.DivMod64(t)
	if delta.IsZero() {
		return nil, fmt.Errorf("fhe: plaintext modulus %d too large for q", t)
	}
	return &Params{Mod: mod, N: n, T: t, Delta: delta, plan: plan}, nil
}
