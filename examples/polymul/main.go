// Polymul: the FHE-style polynomial multiplication pipeline in
// Z_q[x]/(x^n + 1) — the workload the paper's kernels exist to serve —
// run three ways: 128-bit double-word residues (this library's approach),
// the residue number system alternative, and a schoolbook cross-check.
package main

import (
	"fmt"
	"log"
	"math/big"
	"math/rand"
	"time"

	"mqxgo/internal/modmath"
	"mqxgo/internal/ntt"
	"mqxgo/internal/rns"
	"mqxgo/internal/u128"
)

func main() {
	const n = 256
	mod := modmath.DefaultModulus128()
	r := rand.New(rand.NewSource(2026))

	a := make([]u128.U128, n)
	b := make([]u128.U128, n)
	for i := range a {
		a[i] = u128.New(r.Uint64(), r.Uint64()).Mod(mod.Q)
		b[i] = u128.New(r.Uint64(), r.Uint64()).Mod(mod.Q)
	}

	// 1. Double-word (128-bit residue) negacyclic NTT multiplication.
	start := time.Now()
	plan, err := ntt.CachedPlan(mod, n)
	if err != nil {
		log.Fatal(err)
	}
	viaNTT := make([]u128.U128, n)
	plan.PolyMulNegacyclicInto(viaNTT, a, b)
	nttTime := time.Since(start)

	// 2. Schoolbook O(n^2) cross-check.
	start = time.Now()
	viaSchoolbook := ntt.SchoolbookNegacyclic(mod, a, b)
	sbTime := time.Since(start)

	match := true
	for i := range viaNTT {
		if !viaNTT[i].Equal(viaSchoolbook[i]) {
			match = false
			break
		}
	}
	fmt.Printf("double-word NTT polymul: %v (schoolbook cross-check: %v)\n", nttTime, match)
	fmt.Printf("schoolbook polymul:      %v\n", sbTime)

	// 3. The RNS alternative: decompose into three 60-bit channels,
	// multiply channel-wise with 64-bit NTTs, reconstruct via CRT.
	// (The paper's Section 1: 128-bit residues avoid exactly this
	// decomposition/reconstruction overhead in modulus-switching-heavy
	// FHE workloads.)
	rc, err := rns.NewContext(60, 3, n)
	if err != nil {
		log.Fatal(err)
	}
	ab := toBig(a)
	bb := toBig(b)
	start = time.Now()
	ra, rb, rprod := rc.NewPoly(), rc.NewPoly(), rc.NewPoly()
	if err := rc.DecomposeInto(ra, ab); err != nil {
		log.Fatal(err)
	}
	if err := rc.DecomposeInto(rb, bb); err != nil {
		log.Fatal(err)
	}
	if err := rc.MulAll(rprod, ra, rb); err != nil {
		log.Fatal(err)
	}
	got := make([]*big.Int, n)
	if err := rc.ReconstructInto(got, rprod); err != nil {
		log.Fatal(err)
	}
	rnsTime := time.Since(start)

	// The RNS result lives mod Q_rns (product of channel primes); reduce
	// the schoolbook answer mod... they differ as rings, so instead verify
	// the RNS pipeline against its own big-integer schoolbook (see
	// internal/rns tests). Here we just confirm shape and report time.
	fmt.Printf("RNS (3x60-bit) polymul:  %v (%d coefficients reconstructed, Q has %d bits)\n",
		rnsTime, len(got), rc.Q.BitLen())
}

func toBig(xs []u128.U128) []*big.Int {
	out := make([]*big.Int, len(xs))
	for i, x := range xs {
		out[i] = x.ToBig()
	}
	return out
}
