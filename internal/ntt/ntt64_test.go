package ntt

import (
	"math/rand"
	"testing"

	"mqxgo/internal/modmath"
	"mqxgo/internal/ring"
)

// The ntt-layer checks of the RNS substrate: every 64-bit transform runs
// on Plan64.Generic(), the engine plan the towers call.

// generic64 builds the 64-bit engine plan for (mod, n) through NewPlan64.
func generic64(t *testing.T, mod *modmath.Modulus64, n int) *ring.Plan[uint64, ring.Shoup64] {
	t.Helper()
	p, err := NewPlan64(mod, n)
	if err != nil {
		t.Fatal(err)
	}
	return p.Generic()
}

// testPlan64 is generic64 over a 60-bit prime supporting size n.
func testPlan64(t *testing.T, n int) *ring.Plan[uint64, ring.Shoup64] {
	t.Helper()
	ps, err := modmath.FindNTTPrimes64(60, uint64(2*n), 1)
	if err != nil {
		t.Fatal(err)
	}
	return generic64(t, modmath.MustModulus64(ps[0]), n)
}

func TestPlan64ForwardMatchesDefinition(t *testing.T) {
	n := 32
	p := testPlan64(t, n)
	mod := p.R.M
	r := rand.New(rand.NewSource(71))
	x := make([]uint64, n)
	for i := range x {
		x[i] = r.Uint64() % mod.Q
	}
	got := forward(p, x)
	// Direct O(n^2) definition.
	for k := 0; k < n; k++ {
		step := mod.Pow(p.Omega, uint64(k))
		acc, w := uint64(0), uint64(1)
		for j := 0; j < n; j++ {
			acc = mod.Add(acc, mod.Mul(x[j], w))
			w = mod.Mul(w, step)
		}
		// Forward output is bit-reversed.
		m := 0
		for 1<<m < n {
			m++
		}
		if got[bitReverse(k, m)] != acc {
			t.Fatalf("output %d: got %d, want %d", k, got[bitReverse(k, m)], acc)
		}
	}
}

func TestPlan64RoundTrip(t *testing.T) {
	for _, n := range []int{2, 16, 256, 4096} {
		p := testPlan64(t, n)
		r := rand.New(rand.NewSource(int64(72 + n)))
		x := make([]uint64, n)
		for i := range x {
			x[i] = r.Uint64() % p.R.M.Q
		}
		back := inverse(p, forward(p, x))
		for i := range x {
			if back[i] != x[i] {
				t.Fatalf("n=%d: round trip failed at %d", n, i)
			}
		}
	}
}

func TestPlan64PolyMulMatchesSchoolbook(t *testing.T) {
	n := 64
	p := testPlan64(t, n)
	mod := p.R.M
	r := rand.New(rand.NewSource(73))
	a := make([]uint64, n)
	b := make([]uint64, n)
	for i := range a {
		a[i] = r.Uint64() % mod.Q
		b[i] = r.Uint64() % mod.Q
	}
	got := polyMul(p, a, b)
	want := make([]uint64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			prod := mod.Mul(a[i], b[j])
			k := i + j
			if k < n {
				want[k] = mod.Add(want[k], prod)
			} else {
				want[k-n] = mod.Sub(want[k-n], prod)
			}
		}
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("coeff %d: got %d, want %d", i, got[i], want[i])
		}
	}
}

func TestPlan64Validation(t *testing.T) {
	ps, err := modmath.FindNTTPrimes64(60, 1<<10, 1)
	if err != nil {
		t.Fatal(err)
	}
	mod := modmath.MustModulus64(ps[0])
	if _, err := NewPlan64(mod, 3); err == nil {
		t.Error("expected error for non-power-of-two size")
	}
	if _, err := NewPlan64(mod, 1<<30); err == nil {
		t.Error("expected error for unsupported order")
	}
}
