package ring_test

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"mqxgo/internal/modmath"
	"mqxgo/internal/ring"
	"mqxgo/internal/scratch"
	"mqxgo/internal/u128"
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
	checkBarrett128PathsDoNotAllocate(t, ring.TierScalar)
}

// The vector kernel tiers ride the same span seam and the same bound
// interface values, so they must hold the same 0 allocs/op: the asm
// wrappers take slice views and the scalar-tail fallbacks reslice in
// place.
func TestVectorKernelPathsDoNotAllocate(t *testing.T) {
	checkKernelPathsDoNotAllocate(t, ring.TierAVX2, ring.TierAVX512)
	checkBarrett128PathsDoNotAllocate(t, ring.TierAVX512, ring.TierAVX512IFMA)
}

// TestSplitPolyMulDoesNotAllocate holds the product at each ring's
// split floor to the same 0 allocs/op at GOMAXPROCS 2, where its
// dispatch frame fans the forward pair and the pointwise halves out to
// the pool, on every tier of both rings (Shoup64 runs avx512 at the
// avx512ifma request).
func TestSplitPolyMulDoesNotAllocate(t *testing.T) {
	checkSplitDoesNotAllocate(t, ring.PolyMulSplitMinN[uint64](), ring.PolyMulSplitMinN[u128.U128](), 93, false)
}

// TestSplitInverseDoesNotAllocate is the same gate at each ring's
// inverse split floor, where InverseInto, NegacyclicInverseInto and the
// product's inverse split.
func TestSplitInverseDoesNotAllocate(t *testing.T) {
	checkSplitDoesNotAllocate(t, ring.InverseSplitMinN[uint64](), ring.InverseSplitMinN[u128.U128](), 94, true)
}

// checkSplitDoesNotAllocate counts the product, and both inverses when
// inverses is set, at GOMAXPROCS 2 on plans of n64 Shoup64 and n128
// Barrett128 points, at every tier the host runs.
func checkSplitDoesNotAllocate(t *testing.T, n64, n128 int, seed int64, inverses bool) {
	if scratch.Race {
		t.Skip("race instrumentation allocates")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	rng := rand.New(rand.NewSource(seed))
	r64 := testRing64(t, n64)
	a, b, dst := make([]uint64, n64), make([]uint64, n64), make([]uint64, n64)
	for i := range a {
		a[i], b[i] = rng.Uint64()%r64.M.Q, rng.Uint64()%r64.M.Q
	}
	mod := modmath.DefaultModulus128()
	a128, b128, dst128 := make([]u128.U128, n128), make([]u128.U128, n128), make([]u128.U128, n128)
	for i := range a128 {
		a128[i] = u128.New(rng.Uint64(), rng.Uint64()).Mod(mod.Q)
		b128[i] = u128.New(rng.Uint64(), rng.Uint64()).Mod(mod.Q)
	}
	for _, tier := range []ring.KernelTier{ring.TierScalar, ring.TierAVX2, ring.TierAVX512, ring.TierAVX512IFMA} {
		if tier != ring.TierScalar && ring.DetectKernelTier() < tier {
			continue
		}
		p64 := ring.MustPlan[uint64](ring.NewShoup64Tier(r64.M, tier), n64)
		p128 := ring.MustPlan[u128.U128](ring.NewBarrett128Tier(mod, tier), n128)
		type op struct {
			name string
			f    func()
		}
		cases := []op{
			{"shoup64/PolyMulNegacyclicInto", func() { p64.PolyMulNegacyclicInto(dst, a, b) }},
			{"barrett128/PolyMulNegacyclicInto", func() { p128.PolyMulNegacyclicInto(dst128, a128, b128) }},
		}
		if inverses {
			cases = append(cases,
				op{"shoup64/InverseInto", func() { p64.InverseInto(dst, a) }},
				op{"shoup64/NegacyclicInverseInto", func() { p64.NegacyclicInverseInto(dst, a) }},
				op{"barrett128/InverseInto", func() { p128.InverseInto(dst128, a128) }},
				op{"barrett128/NegacyclicInverseInto", func() { p128.NegacyclicInverseInto(dst128, a128) }},
			)
		}
		for _, c := range cases {
			if got := mallocsPerRun(20, c.f); got != 0 {
				t.Errorf("%s/%s: allocates %v per run, want 0", c.name, tier, got)
			}
		}
	}
}

// mallocsPerRun is testing.AllocsPerRun without its GOMAXPROCS(1): it
// counts every allocation in the process per call of f at the caller's
// GOMAXPROCS, so a dispatch that fans out is measured as it runs. With
// goroutines moving between Ps the runtime's own caches (sync.Pool's
// per-P slots and chains, blocked goroutines' sudogs) allocate now and
// then, so it warms up over runs calls and reports the least of five
// windows of runs calls: an allocation on every call shows in all five.
func mallocsPerRun(runs int, f func()) uint64 {
	for range runs {
		f()
	}
	least := uint64(math.MaxUint64)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			f()
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.Mallocs-before.Mallocs)/uint64(runs))
	}
	return least
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

// checkBarrett128PathsDoNotAllocate is the same gate for 128-bit plans
// and the element-wise spans the BLAS layer runs: the span methods pass
// their stack register file to the assembly by pointer, which must not
// escape.
func checkBarrett128PathsDoNotAllocate(t *testing.T, tiers ...ring.KernelTier) {
	if scratch.Race {
		t.Skip("race instrumentation allocates")
	}
	const n = 1 << 8
	mod := modmath.DefaultModulus128()
	rng := rand.New(rand.NewSource(92))
	a, b, dst := make([]u128.U128, n), make([]u128.U128, n), make([]u128.U128, n)
	m := make([]uint64, n)
	for i := range a {
		a[i] = u128.New(rng.Uint64(), rng.Uint64()).Mod(mod.Q)
		b[i] = u128.New(rng.Uint64(), rng.Uint64()).Mod(mod.Q)
		m[i] = rng.Uint64() % 65537
	}
	w := a[1]
	for _, tier := range tiers {
		if tier != ring.TierScalar && ring.DetectKernelTier() < tier {
			continue
		}
		t.Run("barrett128/"+tier.String(), func(t *testing.T) {
			r := ring.NewBarrett128Tier(mod, tier)
			p := ring.MustPlan[u128.U128](r, n)
			if got := p.KernelTier(); got != tier.String() {
				t.Fatalf("plan tier = %s, want %s", got, tier)
			}
			cases := map[string]func(){
				"ForwardInto":           func() { p.ForwardInto(dst, a) },
				"InverseInto":           func() { p.InverseInto(dst, a) },
				"PolyMulNegacyclicInto": func() { p.PolyMulNegacyclicInto(dst, a, b) },
				"NegacyclicForwardInto": func() { p.NegacyclicForwardInto(dst, a) },
				"NegacyclicInverseInto": func() { p.NegacyclicInverseInto(dst, a) },
				"PointwiseMulInto":      func() { p.PointwiseMulInto(dst, a, b) },
				"ScalarMulInto":         func() { p.ScalarMulInto(dst, a, w) },
				"ScaleAddInto":          func() { p.ScaleAddInto(dst, a, m, w) },
				"AddSpan":               func() { r.AddSpan(dst, a, b) },
				"SubSpan":               func() { r.SubSpan(dst, a, b) },
			}
			for name, f := range cases {
				f() // warm the scratch pool
				if got := testing.AllocsPerRun(20, f); got != 0 {
					t.Errorf("%s: %v allocs/op, want 0", name, got)
				}
			}
		})
	}
}
