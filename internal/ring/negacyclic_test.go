package ring_test

import (
	"math/rand"
	"testing"

	"mqxgo/internal/modmath"
	"mqxgo/internal/ring"
	"mqxgo/internal/scratch"
	"mqxgo/internal/u128"
)

// The split negacyclic entry points (NegacyclicForwardInto /
// NegacyclicInverseInto) exist so tensor-product callers can transform
// each operand once; their contract is that forward + pointwise + inverse
// composes to the same bits as the fused PolyMulNegacyclicInto at both
// widths, including in-place use.
func checkNegacyclicSplit[T comparable, R ring.Ring[T]](t *testing.T, r R, n int, randElem func(*rand.Rand) T) {
	t.Helper()
	p, err := ring.NewPlan[T, R](r, n)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(n) * 31))
	a := make([]T, n)
	b := make([]T, n)
	for i := range a {
		a[i] = randElem(rng)
		b[i] = randElem(rng)
	}
	want := make([]T, n)
	p.PolyMulNegacyclicInto(want, a, b)

	ahat := make([]T, n)
	bhat := make([]T, n)
	p.NegacyclicForwardInto(ahat, a)
	p.NegacyclicForwardInto(bhat, b)
	got := make([]T, n)
	p.PointwiseMulInto(got, ahat, bhat)
	p.NegacyclicInverseInto(got, got) // in-place inverse
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("coeff %d: split path %v != fused path %v", i, got[i], want[i])
		}
	}

	// In-place forward must match the out-of-place one.
	inPlace := append([]T(nil), a...)
	p.NegacyclicForwardInto(inPlace, inPlace)
	for i := range ahat {
		if inPlace[i] != ahat[i] {
			t.Fatalf("coeff %d: in-place forward %v != out-of-place %v", i, inPlace[i], ahat[i])
		}
	}
}

func testPrime64(t *testing.T, order uint64) *modmath.Modulus64 {
	t.Helper()
	ps, err := modmath.FindNTTPrimes64(59, order, 1)
	if err != nil {
		t.Fatal(err)
	}
	return modmath.MustModulus64(ps[0])
}

func TestNegacyclicSplitMatchesFused(t *testing.T) {
	mod64 := testPrime64(t, 1<<8)
	mod128 := modmath.DefaultModulus128()
	for _, n := range []int{2, 8, 64, 128} {
		checkNegacyclicSplit(t, ring.NewShoup64(mod64), n, func(r *rand.Rand) uint64 {
			return r.Uint64() % mod64.Q
		})
		checkNegacyclicSplit(t, ring.NewBarrett128(mod128), n, func(r *rand.Rand) u128.U128 {
			return u128.New(r.Uint64(), r.Uint64()).Mod(mod128.Q)
		})
	}
}

// The split entry points join the zero-allocation contract of the other
// *Into transforms.
func TestNegacyclicSplitDoesNotAllocate(t *testing.T) {
	if scratch.Race {
		t.Skip("race instrumentation allocates")
	}
	mod := testPrime64(t, 1<<8)
	p := ring.MustPlan[uint64, ring.Shoup64](ring.NewShoup64(mod), 1<<7)
	rng := rand.New(rand.NewSource(9))
	a := make([]uint64, p.N)
	for i := range a {
		a[i] = rng.Uint64() % mod.Q
	}
	dst := make([]uint64, p.N)
	p.NegacyclicForwardInto(dst, a) // warm scratch pool
	if got := testing.AllocsPerRun(20, func() { p.NegacyclicForwardInto(dst, a) }); got != 0 {
		t.Errorf("NegacyclicForwardInto allocates %.1f per run, want 0", got)
	}
	if got := testing.AllocsPerRun(20, func() { p.NegacyclicInverseInto(dst, dst) }); got != 0 {
		t.Errorf("NegacyclicInverseInto allocates %.1f per run, want 0", got)
	}
}
