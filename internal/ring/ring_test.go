package ring_test

import (
	"math/rand"
	"testing"

	"mqxgo/internal/modmath"
	"mqxgo/internal/ring"
	"mqxgo/internal/u128"
)

func testRing64(t *testing.T, n int) ring.Shoup64 {
	t.Helper()
	ps, err := modmath.FindNTTPrimes64(60, uint64(2*n), 1)
	if err != nil {
		t.Fatal(err)
	}
	return ring.NewShoup64(modmath.MustModulus64(ps[0]))
}

func testRing128(t *testing.T) ring.Barrett128 {
	t.Helper()
	return ring.NewBarrett128(modmath.DefaultModulus128())
}

// TestGenericRoundTripBothWidths drives the one shared stage-loop
// implementation at both instantiations and checks forward+inverse is the
// identity, including in place.
func TestGenericRoundTripBothWidths(t *testing.T) {
	r := rand.New(rand.NewSource(201))
	for _, n := range []int{2, 8, 64, 512} {
		r128 := testRing128(t)
		p128 := ring.MustPlan[u128.U128, ring.Barrett128](r128, n)
		x := make([]u128.U128, n)
		for i := range x {
			x[i] = u128.New(r.Uint64(), r.Uint64()).Mod(r128.M.Q)
		}
		f, back := make([]u128.U128, n), make([]u128.U128, n)
		p128.ForwardInto(f, x)
		p128.InverseInto(back, f)
		for i := range x {
			if !back[i].Equal(x[i]) {
				t.Fatalf("u128 n=%d: round trip failed at %d", n, i)
			}
		}
		buf := append([]u128.U128(nil), x...)
		p128.ForwardInto(buf, buf)
		p128.InverseInto(buf, buf)
		for i := range x {
			if !buf[i].Equal(x[i]) {
				t.Fatalf("u128 n=%d: in-place round trip failed at %d", n, i)
			}
		}

		r64 := testRing64(t, n)
		p64 := ring.MustPlan[uint64, ring.Shoup64](r64, n)
		y := make([]uint64, n)
		for i := range y {
			y[i] = r.Uint64() % r64.M.Q
		}
		f64, back64 := make([]uint64, n), make([]uint64, n)
		p64.ForwardInto(f64, y)
		p64.InverseInto(back64, f64)
		for i := range y {
			if back64[i] != y[i] {
				t.Fatalf("uint64 n=%d: round trip failed at %d", n, i)
			}
		}
		buf64 := append([]uint64(nil), y...)
		p64.ForwardInto(buf64, buf64)
		p64.InverseInto(buf64, buf64)
		for i := range y {
			if buf64[i] != y[i] {
				t.Fatalf("uint64 n=%d: in-place round trip failed at %d", n, i)
			}
		}
	}
}

// TestGenericNegacyclicMatchesSchoolbook checks the twisted-NTT product
// against the O(n^2) definition at the 64-bit instantiation (the 128-bit
// one is covered exhaustively by internal/ntt's reference tests).
func TestGenericNegacyclicMatchesSchoolbook(t *testing.T) {
	const n = 32
	r64 := testRing64(t, n)
	mod := r64.M
	p := ring.MustPlan[uint64, ring.Shoup64](r64, n)
	r := rand.New(rand.NewSource(202))
	a := make([]uint64, n)
	b := make([]uint64, n)
	for i := range a {
		a[i] = r.Uint64() % mod.Q
		b[i] = r.Uint64() % mod.Q
	}
	got := make([]uint64, n)
	p.PolyMulNegacyclicInto(got, a, b)
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

// TestGenericBatchMatchesSequential checks the shared chunk dispatch at
// the 64-bit instantiation across worker counts.
func TestGenericBatchMatchesSequential(t *testing.T) {
	const n, batch = 64, 11
	r64 := testRing64(t, n)
	p := ring.MustPlan[uint64, ring.Shoup64](r64, n)
	r := rand.New(rand.NewSource(203))
	inputs := make([][]uint64, batch)
	for i := range inputs {
		row := make([]uint64, n)
		for j := range row {
			row[j] = r.Uint64() % r64.M.Q
		}
		inputs[i] = row
	}
	want := ring.AllocBatch[uint64](n, batch)
	for i := range inputs {
		p.ForwardInto(want[i], inputs[i])
	}
	for _, workers := range []int{0, 1, 3, 8} {
		got := ring.AllocBatch[uint64](n, batch)
		p.BatchForwardInto(got, inputs, workers)
		for i := range want {
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("workers=%d: batch[%d][%d] mismatch", workers, i, j)
				}
			}
		}
	}
}

// TestCachedPlanSharing checks the single process-wide cache: same
// fingerprint shares, different tags and sizes do not.
func TestCachedPlanSharing(t *testing.T) {
	const n = 64
	r64 := testRing64(t, n)
	cached := func(n int) (any, error) {
		return ring.CacheLoadOrBuild(ring.Fingerprint{QLo: r64.M.Q}, n, func() (any, error) {
			return ring.NewPlan[uint64, ring.Shoup64](r64, n)
		})
	}
	p1, err := cached(n)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := cached(n)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("CacheLoadOrBuild built two plans for the same (q, n)")
	}
	p3, err := cached(2 * n)
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Error("CacheLoadOrBuild shared a plan across sizes")
	}
	if _, err := cached(3); err == nil {
		t.Error("CacheLoadOrBuild accepted a non-power-of-two size")
	}
}
