package ring_test

import (
	"math/rand"
	"testing"

	"mqxgo/internal/ring"
	"mqxgo/internal/scratch"
)

// Steady-state allocation regression for the span-kernel dispatch: it
// must not cost the *Into hot paths their 0 allocs/op. The span
// methods receive live slice views of plan tables and scratch, and the
// single p.kern interface value is bound at build time, so nothing may
// escape per call. The scalar tier is pinned here whatever the host
// runs: the vector tiers hand only their tails to the scalar kernels,
// so only the scalar tier runs every scalar body over whole spans.
func TestKernelPathsDoNotAllocate(t *testing.T) {
	checkKernelPathsDoNotAllocate(t, ring.TierScalar)
}

// The vector kernel tiers ride the same span seam and the same bound
// interface values, so they must hold the same 0 allocs/op: the asm
// wrappers take slice views and the scalar-tail fallbacks reslice in
// place.
func TestVectorKernelPathsDoNotAllocate(t *testing.T) {
	checkKernelPathsDoNotAllocate(t, ring.TierAVX2, ring.TierAVX512)
}

// checkKernelPathsDoNotAllocate runs every *Into case as one subtest
// per tier the host supports. Both sizes run: at n=8 every stage takes
// the dense span kernels, at n=256 the top stages take the blocked ones.
func checkKernelPathsDoNotAllocate(t *testing.T, tiers ...ring.KernelTier) {
	if scratch.Race {
		t.Skip("race instrumentation allocates")
	}
	const n = 1 << 8
	r := testRing64(t, n)
	q := r.M.Q
	rng := rand.New(rand.NewSource(91))
	a := make([]uint64, n)
	b := make([]uint64, n)
	m := make([]uint64, n)
	for i := range a {
		a[i], b[i], m[i] = rng.Uint64()%q, rng.Uint64()%q, rng.Uint64()%q
	}
	dst := make([]uint64, n)

	for _, tier := range tiers {
		if tier != ring.TierScalar && ring.DetectKernelTier() < tier {
			continue
		}
		t.Run(tier.String(), func(t *testing.T) {
			for _, size := range []int{8, n} {
				p := ring.MustPlan[uint64, ring.Shoup64](ring.NewShoup64Tier(r.M, tier), size)
				if got := p.KernelTier(); got != tier.String() {
					t.Fatalf("plan tier = %s, want %s", got, tier)
				}
				a, b, m, dst := a[:size], b[:size], m[:size], dst[:size]
				gt, err := ring.GaloisTablesFor(size, ring.SlotGenerator)
				if err != nil {
					t.Fatal(err)
				}
				cases := map[string]func(){
					"ForwardInto":           func() { p.ForwardInto(dst, a) },
					"InverseInto":           func() { p.InverseInto(dst, a) },
					"PolyMulNegacyclicInto": func() { p.PolyMulNegacyclicInto(dst, a, b) },
					"PointwiseMulInto":      func() { p.PointwiseMulInto(dst, a, b) },
					"ScalarMulInto":         func() { p.ScalarMulInto(dst, a, 12345) },
					"ScaleAddInto":          func() { p.ScaleAddInto(dst, a, m, 12345) },
					"AutomorphismCoeffInto": func() { p.AutomorphismCoeffInto(gt, dst, a) },
					"AutomorphismEvalInto":  func() { p.AutomorphismEvalInto(gt, dst, a) },
				}
				for name, f := range cases {
					f() // warm the scratch pool
					if got := testing.AllocsPerRun(20, f); got != 0 {
						t.Errorf("n=%d %s: %v allocs/op, want 0", size, name, got)
					}
				}
			}
		})
	}
}
