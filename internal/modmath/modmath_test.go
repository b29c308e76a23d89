package modmath

import (
	"math/big"
	"math/rand"
	"testing"

	"mqxgo/internal/u128"
)

// testModuli returns a spread of modulus widths from tiny to the 124-bit limit.
func testModuli(t *testing.T) []*Modulus128 {
	t.Helper()
	var ms []*Modulus128
	for _, bits := range []int{8, 17, 32, 61, 64, 65, 90, 113, 124} {
		q, err := FindNTTPrime128(bits, 8)
		if err != nil {
			t.Fatalf("FindNTTPrime128(%d, 8): %v", bits, err)
		}
		ms = append(ms, MustModulus128(q))
	}
	return ms
}

func randReduced(r *rand.Rand, m *Modulus128) u128.U128 {
	x := u128.New(r.Uint64(), r.Uint64())
	return x.Mod(m.Q)
}

func TestBarrettPrecomputeMatchesBig(t *testing.T) {
	for _, m := range testModuli(t) {
		n := uint(m.Q.BitLen())
		want := new(big.Int).Lsh(big.NewInt(1), 2*n)
		want.Div(want, m.Q.ToBig())
		if m.Mu.ToBig().Cmp(want) != 0 {
			t.Errorf("mu for q=%s: got %s, want %s", m.Q, m.Mu, want)
		}
		if m.N != n {
			t.Errorf("N for q=%s: got %d, want %d", m.Q, m.N, n)
		}
	}
}

func TestAddSubNegMatchBig(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, m := range testModuli(t) {
		qb := m.Q.ToBig()
		for i := 0; i < 500; i++ {
			a, b := randReduced(r, m), randReduced(r, m)
			ab, bb := a.ToBig(), b.ToBig()

			sum := m.Add(a, b).ToBig()
			want := new(big.Int).Add(ab, bb)
			want.Mod(want, qb)
			if sum.Cmp(want) != 0 {
				t.Fatalf("q=%s: Add(%s, %s) = %s, want %s", m.Q, a, b, sum, want)
			}

			diff := m.Sub(a, b).ToBig()
			want = new(big.Int).Sub(ab, bb)
			want.Mod(want, qb)
			if diff.Cmp(want) != 0 {
				t.Fatalf("q=%s: Sub(%s, %s) = %s, want %s", m.Q, a, b, diff, want)
			}

			neg := m.Neg(a).ToBig()
			want = new(big.Int).Neg(ab)
			want.Mod(want, qb)
			if neg.Cmp(want) != 0 {
				t.Fatalf("q=%s: Neg(%s) = %s, want %s", m.Q, a, neg, want)
			}
		}
	}
}

func TestMulMatchesBig(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for _, m := range testModuli(t) {
		qb := m.Q.ToBig()
		for i := 0; i < 500; i++ {
			a, b := randReduced(r, m), randReduced(r, m)
			got := m.Mul(a, b).ToBig()
			want := new(big.Int).Mul(a.ToBig(), b.ToBig())
			want.Mod(want, qb)
			if got.Cmp(want) != 0 {
				t.Fatalf("q=%s: Mul(%s, %s) = %s, want %s", m.Q, a, b, got, want)
			}
		}
		// Boundary operands stress the Barrett correction loop.
		edges := []u128.U128{u128.Zero, u128.One, m.Q.Sub64(1), m.Q.Sub64(2), m.Q.Rsh(1)}
		for _, a := range edges {
			for _, b := range edges {
				got := m.Mul(a, b).ToBig()
				want := new(big.Int).Mul(a.ToBig(), b.ToBig())
				want.Mod(want, qb)
				if got.Cmp(want) != 0 {
					t.Fatalf("q=%s edge: Mul(%s, %s) = %s, want %s", m.Q, a, b, got, want)
				}
			}
		}
	}
}

func TestPowAndInv(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for _, m := range testModuli(t) {
		qb := m.Q.ToBig()
		for i := 0; i < 50; i++ {
			a := randReduced(r, m)
			e := u128.From64(r.Uint64() % 10000)
			got := m.Pow(a, e).ToBig()
			want := new(big.Int).Exp(a.ToBig(), e.ToBig(), qb)
			if got.Cmp(want) != 0 {
				t.Fatalf("q=%s: Pow(%s, %s) = %s, want %s", m.Q, a, e, got, want)
			}
			if a.IsZero() {
				continue
			}
			inv := m.Inv(a)
			if !m.Mul(a, inv).Equal(u128.One) {
				t.Fatalf("q=%s: Inv(%s) = %s is not an inverse", m.Q, a, inv)
			}
		}
	}
}

func TestModulusValidation(t *testing.T) {
	if _, err := NewModulus128(u128.Zero); err == nil {
		t.Error("expected error for modulus 0")
	}
	if _, err := NewModulus128(u128.One); err == nil {
		t.Error("expected error for modulus 1")
	}
	if _, err := NewModulus128(u128.One.Lsh(125)); err == nil {
		t.Error("expected error for 126-bit modulus")
	}
	if _, err := NewModulus128(u128.One.Lsh(123)); err != nil {
		t.Errorf("124-bit modulus should be accepted: %v", err)
	}
}

func TestIsPrime64KnownValues(t *testing.T) {
	primes := []uint64{2, 3, 5, 7, 97, 65537, 4294967291, 2305843009213693951}
	for _, p := range primes {
		if !IsPrime64(p) {
			t.Errorf("IsPrime64(%d) = false, want true", p)
		}
	}
	composites := []uint64{0, 1, 4, 9, 91, 561, 41041, 825265, 321197185,
		4294967295, 2305843009213693953}
	for _, c := range composites {
		if IsPrime64(c) {
			t.Errorf("IsPrime64(%d) = true, want false", c)
		}
	}
}

func TestIsPrime64MatchesBig(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for i := 0; i < 300; i++ {
		n := r.Uint64() >> uint(2+r.Intn(40))
		want := new(big.Int).SetUint64(n).ProbablyPrime(32)
		if got := IsPrime64(n); got != want {
			t.Fatalf("IsPrime64(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestIsPrime128MatchesBig(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	for i := 0; i < 60; i++ {
		x := u128.New(r.Uint64()>>4, r.Uint64()|1)
		want := x.ToBig().ProbablyPrime(32)
		if got := IsPrime128(x); got != want {
			t.Fatalf("IsPrime128(%s) = %v, want %v", x, got, want)
		}
	}
}

func TestFindNTTPrime128(t *testing.T) {
	for _, c := range []struct {
		bits  int
		order uint64
	}{{20, 8}, {61, 1 << 12}, {124, 1 << 18}} {
		q, err := FindNTTPrime128(c.bits, c.order)
		if err != nil {
			t.Fatalf("FindNTTPrime128(%d, %d): %v", c.bits, c.order, err)
		}
		if q.BitLen() != c.bits {
			t.Errorf("prime %s has %d bits, want %d", q, q.BitLen(), c.bits)
		}
		if _, r := q.Sub64(1).DivMod64(c.order); r != 0 {
			t.Errorf("prime %s is not ≡ 1 mod %d", q, c.order)
		}
		if !q.ToBig().ProbablyPrime(32) {
			t.Errorf("%s is not prime", q)
		}
	}
	if _, err := FindNTTPrime128(10, 3); err == nil {
		t.Error("expected error for non-power-of-two order")
	}
	if _, err := FindNTTPrime128(130, 8); err == nil {
		t.Error("expected error for too-wide request")
	}
	if _, err := FindNTTPrime128(5, 1<<10); err == nil {
		t.Error("expected error when bits < order width")
	}
}

func TestFindNTTPrimes64(t *testing.T) {
	ps, err := FindNTTPrimes64(60, 1<<18, 4)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, p := range ps {
		if seen[p] {
			t.Errorf("duplicate prime %d", p)
		}
		seen[p] = true
		if !IsPrime64(p) || (p-1)%(1<<18) != 0 {
			t.Errorf("bad NTT prime %d", p)
		}
	}
	if _, err := FindNTTPrimes64(63, 8, 1); err == nil {
		t.Error("expected error for 63-bit request")
	}
	if _, err := FindNTTPrimes64(60, 7, 1); err == nil {
		t.Error("expected error for non-power-of-two order")
	}
}

func TestDefaultPrime(t *testing.T) {
	q := DefaultPrime128()
	if q.BitLen() != MaxModulusBits {
		t.Errorf("default prime has %d bits, want %d", q.BitLen(), MaxModulusBits)
	}
	if _, r := q.Sub64(1).DivMod64(DefaultPrimeOrder); r != 0 {
		t.Error("default prime does not support the default order")
	}
	if !q.ToBig().ProbablyPrime(32) {
		t.Error("default prime is not prime")
	}
	if !DefaultModulus128().Q.Equal(q) {
		t.Error("DefaultModulus128 disagrees with DefaultPrime128")
	}
}

func TestPrimitiveRootOfUnity(t *testing.T) {
	m := DefaultModulus128()
	for _, n := range []uint64{2, 8, 1 << 10, 1 << 18} {
		w, err := m.PrimitiveRootOfUnity(n)
		if err != nil {
			t.Fatalf("order %d: %v", n, err)
		}
		if !m.Pow(w, u128.From64(n)).Equal(u128.One) {
			t.Errorf("w^%d != 1", n)
		}
		if m.Pow(w, u128.From64(n/2)).Equal(u128.One) {
			t.Errorf("w has order dividing %d, want exactly %d", n/2, n)
		}
		// For prime q, the n/2 power of an order-n element must be -1.
		if n >= 2 {
			minus1 := m.Q.Sub64(1)
			if !m.Pow(w, u128.From64(n/2)).Equal(minus1) {
				t.Errorf("w^(n/2) != -1 for order %d", n)
			}
		}
	}
	if _, err := m.PrimitiveRootOfUnity(3); err == nil {
		t.Error("expected error for non-power-of-two order")
	}
	if _, err := m.PrimitiveRootOfUnity(1 << 20); err == nil {
		t.Error("expected error for order not dividing q-1")
	}
}
