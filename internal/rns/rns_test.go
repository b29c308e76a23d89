package rns

import (
	"math/big"
	"math/rand"
	"testing"
)

func randCoeffs(r *rand.Rand, bound *big.Int, n int) []*big.Int {
	out := make([]*big.Int, n)
	for i := range out {
		out[i] = new(big.Int).Rand(r, bound)
	}
	return out
}

// decompose and reconstruct are the allocating forms of DecomposeInto and
// ReconstructInto that the tests build operands and read results with.
func decompose(t testing.TB, c *Context, coeffs []*big.Int) Poly {
	t.Helper()
	p := c.NewPoly()
	if err := c.DecomposeInto(p, coeffs); err != nil {
		t.Fatal(err)
	}
	return p
}

func reconstruct(t testing.TB, c *Context, p Poly) []*big.Int {
	t.Helper()
	out := make([]*big.Int, c.N)
	if err := c.ReconstructInto(out, p); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestDecomposeReconstructRoundTrip(t *testing.T) {
	c, err := NewContext(60, 3, 64)
	if err != nil {
		t.Fatal(err)
	}
	if c.Channels() != 3 {
		t.Fatalf("channels = %d", c.Channels())
	}
	r := rand.New(rand.NewSource(61))
	coeffs := randCoeffs(r, c.Q, 64)
	back := reconstruct(t, c, decompose(t, c, coeffs))
	for i := range coeffs {
		if back[i].Cmp(coeffs[i]) != 0 {
			t.Fatalf("coeff %d: got %s, want %s", i, back[i], coeffs[i])
		}
	}
}

func TestRNSPolyMulMatchesBigIntSchoolbook(t *testing.T) {
	n := 32
	c, err := NewContext(59, 2, n)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(62))
	a := randCoeffs(r, c.Q, n)
	b := randCoeffs(r, c.Q, n)

	rc := c.NewPoly()
	if err := c.MulAll(rc, decompose(t, c, a), decompose(t, c, b)); err != nil {
		t.Fatal(err)
	}
	got := reconstruct(t, c, rc)

	// Schoolbook negacyclic product over big.Int mod Q.
	want := make([]*big.Int, n)
	for i := range want {
		want[i] = new(big.Int)
	}
	tmp := new(big.Int)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			tmp.Mul(a[i], b[j])
			k := i + j
			if k < n {
				want[k].Add(want[k], tmp)
			} else {
				want[k-n].Sub(want[k-n], tmp)
			}
		}
	}
	for i := range want {
		want[i].Mod(want[i], c.Q)
		if got[i].Cmp(want[i]) != 0 {
			t.Fatalf("coeff %d: got %s, want %s", i, got[i], want[i])
		}
	}
}

func TestRNSAdd(t *testing.T) {
	n := 16
	c, err := NewContext(58, 2, n)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(63))
	a := randCoeffs(r, c.Q, n)
	b := randCoeffs(r, c.Q, n)
	sum := c.NewPoly()
	if err := c.AddInto(sum, decompose(t, c, a), decompose(t, c, b)); err != nil {
		t.Fatal(err)
	}
	got := reconstruct(t, c, sum)
	for i := range a {
		want := new(big.Int).Add(a[i], b[i])
		want.Mod(want, c.Q)
		if got[i].Cmp(want) != 0 {
			t.Fatalf("coeff %d wrong", i)
		}
	}
}

func TestContextValidation(t *testing.T) {
	if _, err := NewContext(60, 2, 3); err == nil {
		t.Error("expected error for non-power-of-two n")
	}
	if _, err := NewContext(64, 2, 16); err == nil {
		t.Error("expected error for 64-bit primes")
	}
	c, err := NewContext(60, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.DecomposeInto(c.NewPoly(), make([]*big.Int, 7)); err == nil {
		t.Error("expected length error")
	}
	if err := c.ReconstructInto(make([]*big.Int, c.N), Poly{}); err == nil {
		t.Error("expected channel error")
	}
	if err := c.AddInto(c.NewPoly(), Poly{}, Poly{}); err == nil {
		t.Error("expected channel error")
	}
	if err := c.MulAll(c.NewPoly(), Poly{}, Poly{}); err == nil {
		t.Error("expected channel error")
	}
}
