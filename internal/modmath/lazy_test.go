package modmath

import (
	"math/big"
	"math/rand"
	"testing"
)

// The lazy Shoup multiply underpins the [0, 2q) discipline of the fused
// ring kernels, so its headroom claims are tested at the exact boundary
// values the kernels feed it: relaxed residues up to 2q-1, the (0, 4q)
// differences a + 2q - b, and the full 64-bit multiplicand range the
// proof in lazy.go covers.

func checkLazy(t *testing.T, m *Modulus64, a, w uint64) {
	t.Helper()
	pre := m.ShoupPrecompute(w)
	r := m.MulShoupLazy(a, w, pre)
	if r >= 2*m.Q {
		t.Fatalf("q=%d: MulShoupLazy(%d, %d) = %d, outside [0, 2q)", m.Q, a, w, r)
	}
	want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(w))
	want.Mod(want, new(big.Int).SetUint64(m.Q))
	if r%m.Q != want.Uint64() {
		t.Fatalf("q=%d: MulShoupLazy(%d, %d) ≡ %d, want %d", m.Q, a, w, r%m.Q, want.Uint64())
	}
	if got := m.ReduceLazy(r); got != want.Uint64() {
		t.Fatalf("q=%d: ReduceLazy(%d) = %d, want %d", m.Q, r, got, want.Uint64())
	}
}

// TestMulShoupLazyBoundaries drives the lazy multiply at the [0, 2q)
// boundary multiplicands q-1, q, 2q-1 (and beyond, up to 2^64-1: the
// bound in lazy.go holds for any 64-bit a), for boundary and random
// twiddles.
func TestMulShoupLazyBoundaries(t *testing.T) {
	qs := []uint64{97, 7681, 1<<61 - 1, 0x3fffffffffffffff}
	for _, q := range qs {
		m, err := NewModulus64(q)
		if err != nil {
			t.Fatal(err)
		}
		as := []uint64{0, 1, q - 1, q, q + 1, 2*q - 1, 2 * q, 4*q - 1, ^uint64(0)}
		ws := []uint64{0, 1, 2, q / 2, q - 2, q - 1}
		for _, a := range as {
			for _, w := range ws {
				checkLazy(t, m, a, w)
			}
		}
	}
}

// TestMulShoupLazyRandom cross-checks random (a, w) pairs over random
// NTT-friendly moduli against big.Int, including the strict MulShoup
// consistency (lazy then normalize == strict).
func TestMulShoupLazyRandom(t *testing.T) {
	r := rand.New(rand.NewSource(301))
	primes, err := FindNTTPrimes64(61, 1<<12, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range primes {
		m := MustModulus64(q)
		for i := 0; i < 2000; i++ {
			a := r.Uint64() // any 64-bit multiplicand is in-contract
			w := r.Uint64() % q
			checkLazy(t, m, a, w)
			pre := m.ShoupPrecompute(w)
			if a < q {
				if got, want := m.ReduceLazy(m.MulShoupLazy(a, w, pre)), m.MulShoup(a, w, pre); got != want {
					t.Fatalf("q=%d: lazy+normalize %d != strict %d for a=%d w=%d", q, got, want, a, w)
				}
			}
		}
	}
	// The three are the scalar forms of the span kernels' inner loop:
	// they must not allocate.
	m := MustModulus64(primes[0])
	pre := m.ShoupPrecompute(5)
	var acc uint64
	if got := testing.AllocsPerRun(20, func() {
		acc = m.MulShoup(m.ReduceLazy(m.MulShoupLazy(acc+1, 5, pre)), 5, pre)
	}); got != 0 {
		t.Errorf("MulShoupLazy/ReduceLazy/MulShoup: %v allocs/op, want 0", got)
	}
}
