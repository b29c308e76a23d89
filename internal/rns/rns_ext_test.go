package rns

import (
	"math/big"
	"math/rand"
	"testing"
)

func TestRNSSubNegScalarMul(t *testing.T) {
	n := 32
	c, err := NewContext(59, 3, n)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(111))
	a := randCoeffs(r, c.Q, n)
	b := randCoeffs(r, c.Q, n)
	ra, rb := decompose(t, c, a), decompose(t, c, b)

	// Negation is a subtraction from zero, and a scalar multiple a
	// pointwise product with the constant polynomial k.
	diff, neg, scaled := c.NewPoly(), c.NewPoly(), c.NewPoly()
	if err := c.SubInto(diff, ra, rb); err != nil {
		t.Fatal(err)
	}
	gotDiff := reconstruct(t, c, diff)
	if err := c.SubInto(neg, c.NewPoly(), ra); err != nil {
		t.Fatal(err)
	}
	gotNeg := reconstruct(t, c, neg)
	k := big.NewInt(987654321)
	kc := make([]*big.Int, n)
	for i := range kc {
		kc[i] = k
	}
	if err := c.PMulInto(scaled, ra, decompose(t, c, kc)); err != nil {
		t.Fatal(err)
	}
	gotScaled := reconstruct(t, c, scaled)

	for i := 0; i < n; i++ {
		want := new(big.Int).Sub(a[i], b[i])
		want.Mod(want, c.Q)
		if gotDiff[i].Cmp(want) != 0 {
			t.Fatalf("Sub coeff %d wrong", i)
		}
		want.Neg(a[i]).Mod(want, c.Q)
		if gotNeg[i].Cmp(want) != 0 {
			t.Fatalf("Neg coeff %d wrong", i)
		}
		want.Mul(a[i], k).Mod(want, c.Q)
		if gotScaled[i].Cmp(want) != 0 {
			t.Fatalf("ScalarMul coeff %d wrong", i)
		}
	}
}

// TestNTTEvaluationFormProduct verifies the evaluation-form path the fhe
// layer runs: NegacyclicNTTAll then NegacyclicINTTAll is the identity, and
// a PMulInto between the two computes the negacyclic convolution.
func TestNTTEvaluationFormProduct(t *testing.T) {
	n := 16
	c, err := NewContext(58, 2, n)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(112))
	a := randCoeffs(r, c.Q, n)
	ra := decompose(t, c, a)

	f, back := c.NewPoly(), c.NewPoly()
	if err := c.NegacyclicNTTAll(f, ra, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.NegacyclicINTTAll(back, f, 1); err != nil {
		t.Fatal(err)
	}
	gotBack := reconstruct(t, c, back)
	for i := 0; i < n; i++ {
		if gotBack[i].Cmp(a[i]) != 0 {
			t.Fatalf("NTT round trip failed at %d", i)
		}
	}

	// Negacyclic convolution via evaluation form.
	b := randCoeffs(r, c.Q, n)
	fb, prod := c.NewPoly(), c.NewPoly()
	if err := c.NegacyclicNTTAll(fb, decompose(t, c, b), 1); err != nil {
		t.Fatal(err)
	}
	if err := c.PMulInto(prod, f, fb); err != nil {
		t.Fatal(err)
	}
	if err := c.NegacyclicINTTAll(prod, prod, 1); err != nil {
		t.Fatal(err)
	}
	got := reconstruct(t, c, prod)

	want := make([]*big.Int, n)
	for i := range want {
		want[i] = new(big.Int)
	}
	tmp := new(big.Int)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			tmp.Mul(a[i], b[j])
			if k := i + j; k < n {
				want[k].Add(want[k], tmp)
			} else {
				want[k-n].Sub(want[k-n], tmp) // x^n = -1
			}
		}
	}
	for i := range want {
		want[i].Mod(want[i], c.Q)
		if got[i].Cmp(want[i]) != 0 {
			t.Fatalf("negacyclic convolution coeff %d: got %s, want %s", i, got[i], want[i])
		}
	}
}

func TestExtOpsValidation(t *testing.T) {
	c, err := NewContext(58, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	bad, dst := Poly{}, c.NewPoly()
	if err := c.SubInto(dst, bad, bad); err == nil {
		t.Error("SubInto should reject bad channels")
	}
	if err := c.PMulInto(dst, bad, bad); err == nil {
		t.Error("PMulInto should reject bad channels")
	}
	if err := c.NegacyclicNTTAll(dst, bad, 1); err == nil {
		t.Error("NegacyclicNTTAll should reject bad channels")
	}
	if err := c.NegacyclicINTTAll(dst, bad, 1); err == nil {
		t.Error("NegacyclicINTTAll should reject bad channels")
	}
}
