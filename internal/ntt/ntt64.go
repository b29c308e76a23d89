package ntt

import (
	"mqxgo/internal/modmath"
	"mqxgo/internal/ring"
)

// Plan64 is the single-word (64-bit) NTT plan used by the residue number
// system substrate (internal/rns): the conventional alternative to 128-bit
// residues that the paper discusses in Sections 1 and 8. It is a handle to
// the generic engine in internal/ring instantiated over uint64 with Shoup
// one-correction twiddle multiplication, so it shares the Pease stage
// loops, pooled scratch, the 1/N landing pass, and the batch worker pool
// with the 128-bit Plan. Every transform runs through Generic(); the
// handle is the value CachedPlan64 shares and rns.Context.Plans holds. A
// Plan64 is safe for concurrent use once built.
type Plan64 struct {
	g *ring.Plan[uint64, ring.Shoup64]
}

// NewPlan64 builds an n-point plan modulo mod.Q; 2n must divide q-1.
func NewPlan64(mod *modmath.Modulus64, n int) (*Plan64, error) {
	g, err := ring.NewPlan[uint64, ring.Shoup64](ring.NewShoup64(mod), n)
	if err != nil {
		return nil, err
	}
	return &Plan64{g: g}, nil
}

// Generic returns the underlying generic engine plan.
func (p *Plan64) Generic() *ring.Plan[uint64, ring.Shoup64] { return p.g }
