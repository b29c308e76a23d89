package ring_test

import (
	"math/rand"
	"runtime"
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

// checkPolyMulWidths runs one product above the split floor at
// GOMAXPROCS 1 (every step on the caller) and 2 (the forward pair and
// the pointwise halves on two goroutines), out of place and in place:
// every output must carry the same bits, and match the split entry
// points' composition.
func checkPolyMulWidths[T comparable, R ring.Ring[T]](t *testing.T, r R, n int, randElem func(*rand.Rand) T) {
	t.Helper()
	if floor := ring.PolyMulSplitMinN[T](); n < floor {
		t.Fatalf("n=%d is below the split floor %d", n, floor)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	p := ring.MustPlan[T, R](r, n)
	rng := rand.New(rand.NewSource(int64(n) * 37))
	a, b := make([]T, n), make([]T, n)
	for i := range a {
		a[i], b[i] = randElem(rng), randElem(rng)
	}
	want := make([]T, n)
	ahat, bhat := make([]T, n), make([]T, n)
	p.NegacyclicForwardInto(ahat, a)
	p.NegacyclicForwardInto(bhat, b)
	p.PointwiseMulInto(want, ahat, bhat)
	p.NegacyclicInverseInto(want, want)
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		got := make([]T, n)
		p.PolyMulNegacyclicInto(got, a, b)
		inPlace := append([]T(nil), a...)
		p.PolyMulNegacyclicInto(inPlace, inPlace, b)
		for i := range want {
			if got[i] != want[i] || inPlace[i] != want[i] {
				t.Fatalf("GOMAXPROCS %d, n=%d, coeff %d: product %v, in place %v, want %v", procs, n, i, got[i], inPlace[i], want[i])
			}
		}
	}
}

// TestPolyMulSplitIsBitIdentical pins the split product to the
// sequential one on both widths: Shoup64 at its floor, Barrett128 at
// the kernels128 size.
func TestPolyMulSplitIsBitIdentical(t *testing.T) {
	n64 := ring.PolyMulSplitMinN[uint64]()
	mod64 := testPrime64(t, uint64(2*n64))
	checkPolyMulWidths(t, ring.NewShoup64(mod64), n64, func(r *rand.Rand) uint64 {
		return r.Uint64() % mod64.Q
	})
	mod128 := modmath.DefaultModulus128()
	checkPolyMulWidths(t, ring.NewBarrett128(mod128), 1<<14, func(r *rand.Rand) u128.U128 {
		return u128.New(r.Uint64(), r.Uint64()).Mod(mod128.Q)
	})
}

// checkInverseWidths runs InverseInto and NegacyclicInverseInto on one
// input at GOMAXPROCS 1 (the width-1 stages on the caller), 2 and 3 (the
// split inverse at width 2), out of place and in place: every output
// must carry the width-1 bits.
func checkInverseWidths[T comparable, R ring.Ring[T]](t *testing.T, r R, n int, randElem func(*rand.Rand) T) {
	t.Helper()
	if floor := ring.InverseSplitMinN[T](); n < floor {
		t.Fatalf("n=%d is below the inverse split floor %d", n, floor)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	p := ring.MustPlan[T, R](r, n)
	rng := rand.New(rand.NewSource(int64(n) * 41))
	y := make([]T, n)
	for i := range y {
		y[i] = randElem(rng)
	}
	inverses := []struct {
		name string
		f    func(dst, y []T)
	}{{"InverseInto", p.InverseInto}, {"NegacyclicInverseInto", p.NegacyclicInverseInto}}
	for _, inv := range inverses {
		var want []T
		for _, procs := range []int{1, 2, 3} {
			runtime.GOMAXPROCS(procs)
			got := make([]T, n)
			inv.f(got, y)
			inPlace := append([]T(nil), y...)
			inv.f(inPlace, inPlace)
			if want == nil {
				want = got
			}
			for i := range want {
				if got[i] != want[i] || inPlace[i] != want[i] {
					t.Fatalf("%s n=%d GOMAXPROCS %d, coeff %d: %v, in place %v, want %v", inv.name, n, procs, i, got[i], inPlace[i], want[i])
				}
			}
		}
	}
}

// TestInverseSplitIsBitIdentical pins the split inverse to the
// sequential one on both rings, at each ring's inverse split floor and
// at twice it.
func TestInverseSplitIsBitIdentical(t *testing.T) {
	n64 := ring.InverseSplitMinN[uint64]()
	mod64 := testPrime64(t, uint64(4*n64))
	mod128 := modmath.DefaultModulus128()
	n128 := ring.InverseSplitMinN[u128.U128]()
	for _, k := range []int{1, 2} {
		checkInverseWidths(t, ring.NewShoup64(mod64), k*n64, func(r *rand.Rand) uint64 {
			return r.Uint64() % mod64.Q
		})
		checkInverseWidths(t, ring.NewBarrett128(mod128), k*n128, func(r *rand.Rand) u128.U128 {
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
