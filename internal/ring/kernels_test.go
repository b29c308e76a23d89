package ring_test

import (
	"math/bits"
	"math/rand"
	"testing"

	"mqxgo/internal/modmath"
	"mqxgo/internal/ring"
	"mqxgo/internal/u128"
)

// Definitional tests for the span kernels: for every Ring[T]
// instantiation, each Plan operation must equal the O(n²) definition of
// what it computes — the DFT in bit-reversed order, the schoolbook
// negacyclic product, and elementwise modmath for the pointwise,
// scalar-mul and scale-add passes — on random polynomials and on boundary
// polynomials that push the lazy [0, 2q) discipline to its headroom
// (all-q-1 inputs make the relaxed differences approach 4q). None of the
// definitions shares the Pease dataflow the kernels run.

// arith is the elementwise modmath the definitions are written in.
type arith[T any] struct {
	add, sub, mul func(a, b T) T
	small         func(v uint64) T
}

func arith64(m *modmath.Modulus64) arith[uint64] {
	return arith[uint64]{add: m.Add, sub: m.Sub, mul: m.Mul, small: func(v uint64) uint64 { return v }}
}

func arith128(m *modmath.Modulus128) arith[u128.U128] {
	return arith[u128.U128]{add: m.Add, sub: m.Sub, mul: m.Mul, small: u128.From64}
}

// pow returns x^e by repeated multiplication.
func (ar arith[T]) pow(x T, e int) T {
	r := ar.small(1)
	for ; e > 0; e-- {
		r = ar.mul(r, x)
	}
	return r
}

// bitRevDFT is the transform definition over root w with the result
// scaled by scale: forward (natural in, bit-reversed out) is
// out[i] = Σ_j x[j]·w^(rev(i)·j); inverse (bit-reversed in, natural out)
// is out[i] = Σ_j x[j]·w^(i·rev(j)).
func bitRevDFT[T any](ar arith[T], x []T, w, scale T, inverse bool) []T {
	n := len(x)
	m := bits.TrailingZeros(uint(n))
	rev := func(i int) int { return int(bits.Reverse(uint(i)) >> (bits.UintSize - m)) }
	pw := make([]T, n)
	pw[0] = ar.small(1)
	for e := 1; e < n; e++ {
		pw[e] = ar.mul(pw[e-1], w)
	}
	out := make([]T, n)
	for i := range out {
		acc := ar.small(0)
		for j, v := range x {
			e := rev(i) * j
			if inverse {
				e = i * rev(j)
			}
			acc = ar.add(acc, ar.mul(v, pw[e%n]))
		}
		out[i] = ar.mul(acc, scale)
	}
	return out
}

// schoolbookNegacyclic is a·b in Z_q[x]/(x^n + 1) by the O(n²) definition.
func schoolbookNegacyclic[T any](ar arith[T], a, b []T) []T {
	n := len(a)
	out := make([]T, n)
	for i := range out {
		out[i] = ar.small(0)
	}
	for i := range a {
		for j := range b {
			prod := ar.mul(a[i], b[j])
			if k := i + j; k < n {
				out[k] = ar.add(out[k], prod)
			} else {
				out[k-n] = ar.sub(out[k-n], prod) // x^n = -1
			}
		}
	}
	return out
}

// checkRoots pins the plan's roots to their definition, so the DFT
// oracle built on them is the genuine transform: Psi^N = -1 (order
// exactly 2N), Omega = Psi², and NInv·N = 1.
func checkRoots[T comparable, R ring.Ring[T]](t *testing.T, ar arith[T], p *ring.Plan[T, R], qMinus1 T) {
	t.Helper()
	if ar.pow(p.Psi, p.N) != qMinus1 {
		t.Fatalf("n=%d: Psi^N != -1", p.N)
	}
	if ar.mul(p.Psi, p.Psi) != p.Omega || ar.mul(p.Omega, p.OmegaInv) != ar.small(1) {
		t.Fatalf("n=%d: Omega is not Psi² with inverse OmegaInv", p.N)
	}
	if ar.mul(p.NInv, ar.small(uint64(p.N))) != ar.small(1) {
		t.Fatalf("n=%d: NInv is not 1/N", p.N)
	}
}

// checkDefinitions drives one instantiation through every Plan operation
// and compares each against its definition. boundary ends in q-1.
func checkDefinitions[T comparable, R ring.Ring[T]](t *testing.T, r R, ar arith[T], n int, randElem func(*rand.Rand) T, boundary []T, maxSmall uint64) {
	t.Helper()
	p, err := ring.NewPlan[T, R](r, n)
	if err != nil {
		t.Fatal(err)
	}
	qMinus1 := boundary[len(boundary)-1]
	checkRoots(t, ar, p, qMinus1)

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
				t.Fatalf("n=%d %s: kernel path diverges from the definition at %d: %v != %v", n, ctx, i, got[i], want[i])
			}
		}
	}

	polys := [][]T{
		mkPoly(func(int) T { return randElem(rng) }),
		mkPoly(func(i int) T { return boundary[i%len(boundary)] }),
		mkPoly(func(int) T { return qMinus1 }), // all max: worst-case lazy headroom
	}
	one := ar.small(1)
	got, tmp := make([]T, n), make([]T, n)
	for pi, x := range polys {
		p.ForwardInto(got, x)
		cmp("forward", got, bitRevDFT(ar, x, p.Omega, one, false))

		copy(tmp, got)
		p.InverseInto(got, tmp)
		cmp("round trip", got, x)
		p.InverseInto(got, x)
		cmp("inverse", got, bitRevDFT(ar, x, p.OmegaInv, p.NInv, true))

		b := polys[(pi+1)%len(polys)]
		p.PolyMulNegacyclicInto(got, x, b)
		cmp("negacyclic", got, schoolbookNegacyclic(ar, x, b))

		want := make([]T, n)
		p.PointwiseMulInto(got, x, b)
		for i := range want {
			want[i] = ar.mul(x[i], b[i])
		}
		cmp("pointwise", got, want)

		w := randElem(rng)
		p.ScalarMulInto(got, x, w)
		for i := range want {
			want[i] = ar.mul(x[i], w)
		}
		cmp("scalarmul", got, want)

		m := make([]uint64, n)
		for i := range m {
			m[i] = rng.Uint64() % maxSmall
		}
		m[0] = maxSmall - 1 // boundary message residue
		p.ScaleAddInto(got, x, m, w)
		for i := range want {
			want[i] = ar.add(x[i], ar.mul(ar.small(m[i]), w))
		}
		cmp("scaleadd", got, want)
	}
}

// The Shoup64 kernels run at the 60-bit test prime and at the largest
// NTT prime below 2^62, the top of Modulus64's range: there the relaxed
// [0, 4q) intermediates come within a few words of 2^64, so a butterfly
// that spends more than the documented headroom wraps and diverges.
func TestKernelsMatchDefinitionShoup64(t *testing.T) {
	for _, n := range []int{2, 8, 64, 1024} {
		for _, r := range []ring.Shoup64{testRing64(t, n), ring.NewShoup64(ring.NTTModulus(t, 62, uint64(2*n)))} {
			q := r.M.Q
			checkDefinitions[uint64](t, r, arith64(r.M), n,
				func(rng *rand.Rand) uint64 { return rng.Uint64() % q },
				[]uint64{0, 1, q - 1}, q)
		}
	}
}

func TestKernelsMatchDefinitionBarrett128(t *testing.T) {
	for _, n := range []int{2, 8, 64, 1024} {
		r := testRing128(t)
		q := r.M.Q
		checkDefinitions[u128.U128](t, r, arith128(r.M), n,
			func(rng *rand.Rand) u128.U128 { return u128.New(rng.Uint64(), rng.Uint64()).Mod(q) },
			[]u128.U128{u128.Zero, u128.One, q.Sub64(1)}, ^uint64(0))
	}
}

// FuzzKernelsMatchDefinition64 is the native fuzz harness over the lazy
// Shoup64 kernels: arbitrary seeds drive random polynomials (plus forced
// q-1 boundary residues) through the forward transform and the negacyclic
// product at n=16, against the bit-reversed DFT and schoolbook
// definitions.
func FuzzKernelsMatchDefinition64(f *testing.F) {
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
	ar := arith64(r.M)
	p := ring.MustPlan[uint64, ring.Shoup64](r, n)
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
		got := make([]uint64, n)
		p.ForwardInto(got, a)
		want := bitRevDFT(ar, a, p.Omega, 1, false)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("forward diverges at %d", i)
			}
		}
		p.PolyMulNegacyclicInto(got, a, b)
		want = schoolbookNegacyclic(ar, a, b)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("negacyclic diverges at %d", i)
			}
		}
	})
}
