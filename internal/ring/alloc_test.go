package ring_test

import (
	"math/rand"
	"testing"

	"mqxgo/internal/ring"
)

// Steady-state allocation regression for the span-kernel dispatch: it
// must not cost the *Into hot paths their 0 allocs/op. The span
// methods receive live slice views of plan tables and scratch, and the
// single p.kern interface value is bound at build time, so nothing may
// escape per call.
func TestKernelPathsDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const n = 1 << 8
	r := testRing64(t, n)
	q := r.M.Q
	p := ring.MustPlan[uint64, ring.Shoup64](r, n)
	rng := rand.New(rand.NewSource(91))
	a := make([]uint64, n)
	b := make([]uint64, n)
	m := make([]uint64, n)
	for i := range a {
		a[i], b[i], m[i] = rng.Uint64()%q, rng.Uint64()%q, rng.Uint64()%q
	}
	dst := make([]uint64, n)

	cases := map[string]func(){
		"ForwardInto":           func() { p.ForwardInto(dst, a) },
		"InverseInto":           func() { p.InverseInto(dst, a) },
		"PolyMulNegacyclicInto": func() { p.PolyMulNegacyclicInto(dst, a, b) },
		"PointwiseMulInto":      func() { p.PointwiseMulInto(dst, a, b) },
		"ScalarMulInto":         func() { p.ScalarMulInto(dst, a, 12345) },
		"ScaleAddInto":          func() { p.ScaleAddInto(dst, a, m, 12345) },
	}
	for name, f := range cases {
		f() // warm the scratch pool
		if got := testing.AllocsPerRun(20, f); got != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, got)
		}
	}
}

// The vector kernel tiers ride the same span seam and the same bound
// interface values, so they must hold the same 0 allocs/op: the asm
// wrappers take slice views and the scalar-tail fallbacks reslice in
// place.
func TestVectorKernelPathsDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const n = 1 << 8
	r := testRing64(t, n)
	q := r.M.Q
	rng := rand.New(rand.NewSource(92))
	a := make([]uint64, n)
	b := make([]uint64, n)
	for i := range a {
		a[i], b[i] = rng.Uint64()%q, rng.Uint64()%q
	}
	dst := make([]uint64, n)
	for _, tier := range []ring.KernelTier{ring.TierAVX2, ring.TierAVX512} {
		if ring.DetectKernelTier() < tier {
			continue
		}
		p := ring.MustPlan[uint64, ring.Shoup64](ring.NewShoup64Tier(r.M, tier), n)
		if got := p.KernelTier(); got != tier.String() {
			t.Fatalf("plan tier = %s, want %s", got, tier)
		}
		cases := map[string]func(){
			"ForwardInto":           func() { p.ForwardInto(dst, a) },
			"InverseInto":           func() { p.InverseInto(dst, a) },
			"PolyMulNegacyclicInto": func() { p.PolyMulNegacyclicInto(dst, a, b) },
		}
		for name, f := range cases {
			f()
			if got := testing.AllocsPerRun(20, f); got != 0 {
				t.Errorf("%s/%s: %v allocs/op, want 0", tier, name, got)
			}
		}
	}
}
