package ntt

import (
	"math/rand"
	"testing"

	"mqxgo/internal/blas"
	"mqxgo/internal/isa"
	"mqxgo/internal/kernels"
	"mqxgo/internal/modmath"
	"mqxgo/internal/u128"
	"mqxgo/internal/vm"
)

func testMod(t *testing.T) *modmath.Modulus128 {
	t.Helper()
	return modmath.DefaultModulus128()
}

func randPoly(r *rand.Rand, mod *modmath.Modulus128, n int) []u128.U128 {
	xs := make([]u128.U128, n)
	for i := range xs {
		xs[i] = u128.New(r.Uint64(), r.Uint64()).Mod(mod.Q)
	}
	return xs
}

// mustPlan builds the 128-bit plan for (mod, n) or fails the test.
func mustPlan(t *testing.T, mod *modmath.Modulus128, n int) *Plan {
	t.Helper()
	p, err := NewPlan(mod, n)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// intoPlan is the transform surface Plan and the 64-bit engine plan
// share; forward, inverse and polyMul are its allocating forms, which
// the tests compare against.
type intoPlan[T any] interface {
	ForwardInto(dst, x []T)
	InverseInto(dst, y []T)
	PolyMulNegacyclicInto(dst, a, b []T)
}

func forward[T any](p intoPlan[T], x []T) []T {
	out := make([]T, len(x))
	p.ForwardInto(out, x)
	return out
}

func inverse[T any](p intoPlan[T], y []T) []T {
	out := make([]T, len(y))
	p.InverseInto(out, y)
	return out
}

func polyMul[T any](p intoPlan[T], a, b []T) []T {
	out := make([]T, len(a))
	p.PolyMulNegacyclicInto(out, a, b)
	return out
}

// TestForwardNativeMatchesReference checks the native (non-VM) forward
// transform against the O(n^2) definition.
func TestForwardNativeMatchesReference(t *testing.T) {
	mod := testMod(t)
	r := rand.New(rand.NewSource(41))
	for _, n := range []int{2, 4, 8, 16, 64, 256} {
		p := mustPlan(t, mod, n)
		x := randPoly(r, mod, n)
		got := forward(p, x)
		want := Reference(mod, p.Omega, x)
		for i := 0; i < n; i++ {
			if !got[i].Equal(want[bitReverse(i, p.M)]) {
				t.Fatalf("n=%d: output %d = %s, want %s", n, i, got[i], want[bitReverse(i, p.M)])
			}
		}
	}
}

func TestPolyMulNegacyclicMatchesSchoolbook(t *testing.T) {
	mod := testMod(t)
	r := rand.New(rand.NewSource(43))
	for _, n := range []int{2, 8, 64, 256} {
		p := mustPlan(t, mod, n)
		a := randPoly(r, mod, n)
		b := randPoly(r, mod, n)
		got := polyMul(p, a, b)
		want := SchoolbookNegacyclic(mod, a, b)
		for i := 0; i < n; i++ {
			if !got[i].Equal(want[i]) {
				t.Fatalf("n=%d: coeff %d = %s, want %s", n, i, got[i], want[i])
			}
		}
	}
}

func TestLinearity(t *testing.T) {
	mod := testMod(t)
	r := rand.New(rand.NewSource(45))
	n := 128
	p := mustPlan(t, mod, n)
	a := randPoly(r, mod, n)
	b := randPoly(r, mod, n)
	sum := make([]u128.U128, n)
	for i := range sum {
		sum[i] = mod.Add(a[i], b[i])
	}
	fa, fb, fsum := forward(p, a), forward(p, b), forward(p, sum)
	for i := 0; i < n; i++ {
		if !fsum[i].Equal(mod.Add(fa[i], fb[i])) {
			t.Fatalf("NTT not linear at %d", i)
		}
	}
}

func TestConvolutionTheoremDeltaFunction(t *testing.T) {
	// NTT of the delta function is all ones; NTT of a shifted delta is the
	// twiddle power sequence.
	mod := testMod(t)
	n := 64
	p := mustPlan(t, mod, n)
	delta := make([]u128.U128, n)
	delta[0] = u128.One
	f := forward(p, delta)
	for i := range f {
		if !f[i].Equal(u128.One) {
			t.Fatalf("NTT(delta)[%d] = %s, want 1", i, f[i])
		}
	}
}

func vmForward(t *testing.T, level isa.Level, p *Plan, x []u128.U128) []u128.U128 {
	t.Helper()
	m := vm.New(vm.TraceOff)
	xv := blas.FromSlice(x)
	var out blas.Vector
	var err error
	switch level {
	case isa.LevelScalar:
		d := kernels.NewDW[vm.S, vm.F](kernels.NewBScalar(m), p.R.M)
		m.BeginLoop()
		out, err = ForwardVM(d, p, xv)
	case isa.LevelAVX2:
		d := kernels.NewDW[vm.V4, vm.V4](kernels.NewB256(m), p.R.M)
		m.BeginLoop()
		out, err = ForwardVM(d, p, xv)
	default:
		d := kernels.NewDW[vm.V, vm.M](kernels.NewB512(m, level), p.R.M)
		m.BeginLoop()
		out, err = ForwardVM(d, p, xv)
	}
	if err != nil {
		t.Fatal(err)
	}
	got := make([]u128.U128, out.Len())
	for i := range got {
		got[i] = out.At(i)
	}
	return got
}

func TestVMForwardMatchesNativeAllLevels(t *testing.T) {
	mod := testMod(t)
	r := rand.New(rand.NewSource(46))
	levels := []isa.Level{
		isa.LevelScalar, isa.LevelAVX2, isa.LevelAVX512, isa.LevelMQX,
		isa.LevelMQXMulOnly, isa.LevelMQXCarryOnly, isa.LevelMQXMulHi,
		isa.LevelMQXPredicated,
	}
	for _, n := range []int{16, 64, 512} {
		p := mustPlan(t, mod, n)
		x := randPoly(r, mod, n)
		want := forward(p, x)
		for _, level := range levels {
			got := vmForward(t, level, p, x)
			for i := 0; i < n; i++ {
				if !got[i].Equal(want[i]) {
					t.Fatalf("level %v n=%d: output %d = %s, want %s", level, n, i, got[i], want[i])
				}
			}
		}
	}
}

func TestPlanValidation(t *testing.T) {
	mod := testMod(t)
	if _, err := NewPlan(mod, 3); err == nil {
		t.Error("expected error for non-power-of-two size")
	}
	if _, err := NewPlan(mod, 1); err == nil {
		t.Error("expected error for size 1")
	}
	// A size far beyond the prime's power-of-two root order must fail
	// (1<<30 still fits a 32-bit int).
	if _, err := NewPlan(mod, 1<<30); err == nil {
		t.Error("expected error for size beyond the prime's root order")
	}
}

// bitReverse returns the bit-reversal of i in m bits; the forward
// transforms emit the definition's outputs in this order.
func bitReverse(i, m int) int {
	r := 0
	for b := 0; b < m; b++ {
		r = r<<1 | (i>>b)&1
	}
	return r
}

func TestBitReverse(t *testing.T) {
	cases := []struct{ i, m, want int }{
		{0, 4, 0}, {1, 4, 8}, {3, 3, 6}, {5, 3, 5}, {6, 3, 3}, {1, 1, 1},
	}
	for _, c := range cases {
		if got := bitReverse(c.i, c.m); got != c.want {
			t.Errorf("bitReverse(%d, %d) = %d, want %d", c.i, c.m, got, c.want)
		}
	}
}

func TestVMInputLengthErrors(t *testing.T) {
	mod := testMod(t)
	p := mustPlan(t, mod, 16)
	m := vm.New(vm.TraceOff)
	b := kernels.NewB512(m, isa.LevelAVX512)
	d := kernels.NewDW[vm.V, vm.M](b, mod)
	m.BeginLoop()
	if _, err := ForwardVM(d, p, blas.NewVector(8)); err == nil {
		t.Error("expected length error")
	}
	// n/2 < lanes: an 8-point plan cannot run on the 8-lane backend.
	p8 := mustPlan(t, mod, 8)
	if _, err := ForwardVM(d, p8, blas.NewVector(8)); err == nil {
		t.Error("expected lane-count error")
	}
}
