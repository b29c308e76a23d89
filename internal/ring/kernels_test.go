package ring_test

import (
	"math/rand"
	"testing"

	"mqxgo/internal/modmath"
	"mqxgo/internal/ring"
	"mqxgo/internal/u128"
)

// Differential tests for the kernel seam: for every Ring[T] instantiation
// that implements SpanKernels, a plan built over the raw ring (kernel
// path) and one built over ring.ElementOnly (element-op fallback) must be
// bit-exact on forward, inverse and negacyclic products, and the
// elementwise entry points — including boundary polynomials that push the
// lazy [0, 2q) discipline to its headroom (all-q-1 inputs make the
// relaxed differences approach 4q).

// diffRing drives one instantiation through both paths and compares.
func diffRing[T comparable, R ring.Ring[T]](t *testing.T, r R, n int, randElem func(*rand.Rand) T, boundary []T, maxSmall uint64) {
	t.Helper()
	kp, err := ring.NewPlan[T, R](r, n)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := ring.NewPlan[T, ring.ElementOnly[T]](ring.ElementOnly[T]{Ring: r}, n)
	if err != nil {
		t.Fatal(err)
	}
	if kp.KernelTier() == "element" {
		t.Fatal("kernel plan is not on the span-kernel path")
	}
	if ep.KernelTier() != "element" {
		t.Fatal("ElementOnly plan failed to hide the span kernels")
	}

	rng := rand.New(rand.NewSource(int64(n) * 7919))
	mkPoly := func(fill func(i int) T) []T {
		x := make([]T, n)
		for i := range x {
			x[i] = fill(i)
		}
		return x
	}
	cmp := func(ctx string, got, want []T) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d %s: kernel and element paths diverge at %d: %v != %v", n, ctx, i, got[i], want[i])
			}
		}
	}

	polys := [][]T{
		mkPoly(func(int) T { return randElem(rng) }),
		mkPoly(func(i int) T { return boundary[i%len(boundary)] }),
		mkPoly(func(int) T { return boundary[len(boundary)-1] }), // all max: worst-case lazy headroom
	}
	kd, ed, tmp := make([]T, n), make([]T, n), make([]T, n)
	for pi, x := range polys {
		kp.ForwardInto(kd, x)
		ep.ForwardInto(ed, x)
		cmp("forward", kd, ed)

		copy(tmp, kd)
		kp.InverseInto(kd, tmp)
		ep.InverseInto(ed, tmp)
		cmp("inverse", kd, ed)
		cmp("round trip", kd, x)

		b := polys[(pi+1)%len(polys)]
		kp.PolyMulNegacyclicInto(kd, x, b)
		ep.PolyMulNegacyclicInto(ed, x, b)
		cmp("negacyclic", kd, ed)

		kp.PointwiseMulInto(kd, x, b)
		ep.PointwiseMulInto(ed, x, b)
		cmp("pointwise", kd, ed)

		w := randElem(rng)
		kp.ScalarMulInto(kd, x, w)
		ep.ScalarMulInto(ed, x, w)
		cmp("scalarmul", kd, ed)

		m := make([]uint64, n)
		for i := range m {
			m[i] = rng.Uint64() % maxSmall
		}
		m[0] = maxSmall - 1 // boundary message residue
		kp.ScaleAddInto(kd, x, m, w)
		ep.ScaleAddInto(ed, x, m, w)
		cmp("scaleadd", kd, ed)
	}
}

func TestKernelVsElementShoup64(t *testing.T) {
	for _, n := range []int{2, 8, 64, 1024} {
		r := testRing64(t, n)
		q := r.M.Q
		diffRing[uint64](t, r, n,
			func(rng *rand.Rand) uint64 { return rng.Uint64() % q },
			[]uint64{0, 1, q - 1}, q)
	}
}

func TestKernelVsElementBarrett128(t *testing.T) {
	for _, n := range []int{2, 8, 64, 1024} {
		r := testRing128(t)
		q := r.M.Q
		diffRing[u128.U128](t, r, n,
			func(rng *rand.Rand) u128.U128 { return u128.New(rng.Uint64(), rng.Uint64()).Mod(q) },
			[]u128.U128{u128.Zero, u128.One, q.Sub64(1)}, ^uint64(0))
	}
}

// TestKaratsubaVetoesKernels: a Karatsuba-configured 128-bit modulus must
// stay on the element path (the fused loops hardwire schoolbook), and
// still agree with the schoolbook kernel plan bit for bit.
func TestKaratsubaVetoesKernels(t *testing.T) {
	const n = 32
	mod := modmath.DefaultModulus128()
	kp := ring.MustPlan[u128.U128, ring.Barrett128](ring.NewBarrett128(mod), n)
	karat := ring.MustPlan[u128.U128, ring.Barrett128](ring.NewBarrett128(mod.WithAlgorithm(modmath.Karatsuba)), n)
	if kp.KernelTier() == "element" {
		t.Fatal("schoolbook plan should have span kernels")
	}
	if karat.KernelTier() != "element" {
		t.Fatal("Karatsuba plan must veto span kernels")
	}
	rng := rand.New(rand.NewSource(17))
	a := make([]u128.U128, n)
	b := make([]u128.U128, n)
	for i := range a {
		a[i] = u128.New(rng.Uint64(), rng.Uint64()).Mod(mod.Q)
		b[i] = u128.New(rng.Uint64(), rng.Uint64()).Mod(mod.Q)
	}
	got, want := make([]u128.U128, n), make([]u128.U128, n)
	karat.PolyMulNegacyclicInto(got, a, b)
	kp.PolyMulNegacyclicInto(want, a, b)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Karatsuba element path diverges from kernel path at %d", i)
		}
	}
}

// FuzzKernelVsElement64 is the native fuzz harness over the lazy Shoup64
// kernels: arbitrary seeds drive random polynomials (plus forced boundary
// residues) through both paths at n=16.
func FuzzKernelVsElement64(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(42), uint8(255))
	f.Add(int64(-7), uint8(3))
	const n = 16
	ps, err := modmath.FindNTTPrimes64(61, 2*n, 1)
	if err != nil {
		f.Fatal(err)
	}
	r := ring.NewShoup64(modmath.MustModulus64(ps[0]))
	q := r.M.Q
	kp := ring.MustPlan[uint64, ring.Shoup64](r, n)
	ep := ring.MustPlan[uint64, ring.ElementOnly[uint64]](ring.ElementOnly[uint64]{Ring: r}, n)
	f.Fuzz(func(t *testing.T, seed int64, boundaryMask uint8) {
		rng := rand.New(rand.NewSource(seed))
		a := make([]uint64, n)
		b := make([]uint64, n)
		for i := range a {
			a[i] = rng.Uint64() % q
			b[i] = rng.Uint64() % q
			if boundaryMask&(1<<(i%8)) != 0 {
				a[i] = q - 1
			}
		}
		kd, ed := make([]uint64, n), make([]uint64, n)
		kp.ForwardInto(kd, a)
		ep.ForwardInto(ed, a)
		for i := range kd {
			if kd[i] != ed[i] {
				t.Fatalf("forward diverges at %d", i)
			}
		}
		kp.PolyMulNegacyclicInto(kd, a, b)
		ep.PolyMulNegacyclicInto(ed, a, b)
		for i := range kd {
			if kd[i] != ed[i] {
				t.Fatalf("negacyclic diverges at %d", i)
			}
		}
	})
}
