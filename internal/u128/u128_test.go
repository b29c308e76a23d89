package u128

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

var two128 = new(big.Int).Lsh(big.NewInt(1), 128)

func bigOf(x U128) *big.Int { return x.ToBig() }

func randU128(r *rand.Rand) U128 {
	// Mix widths so small and large operands are both exercised.
	switch r.Intn(4) {
	case 0:
		return U128{Lo: r.Uint64() & 0xffff}
	case 1:
		return U128{Lo: r.Uint64()}
	case 2:
		return U128{Hi: r.Uint64() & 0xffff, Lo: r.Uint64()}
	default:
		return U128{Hi: r.Uint64(), Lo: r.Uint64()}
	}
}

func TestAddMatchesBig(t *testing.T) {
	f := func(aHi, aLo, bHi, bLo uint64) bool {
		a, b := New(aHi, aLo), New(bHi, bLo)
		got := bigOf(a.Add(b))
		want := new(big.Int).Add(bigOf(a), bigOf(b))
		want.Mod(want, two128)
		return got.Cmp(want) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSubMatchesBig(t *testing.T) {
	f := func(aHi, aLo, bHi, bLo uint64) bool {
		a, b := New(aHi, aLo), New(bHi, bLo)
		got := bigOf(a.Sub(b))
		want := new(big.Int).Sub(bigOf(a), bigOf(b))
		want.Mod(want, two128)
		return got.Cmp(want) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMul64MatchesBig(t *testing.T) {
	f := func(a, b uint64) bool {
		got := bigOf(Mul64(a, b))
		want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
		return got.Cmp(want) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulLoMatchesBig(t *testing.T) {
	f := func(aHi, aLo, bHi, bLo uint64) bool {
		a, b := New(aHi, aLo), New(bHi, bLo)
		got := bigOf(a.MulLo(b))
		want := new(big.Int).Mul(bigOf(a), bigOf(b))
		want.Mod(want, two128)
		return got.Cmp(want) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShifts(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		x := randU128(r)
		n := uint(r.Intn(140))
		gotL := bigOf(x.Lsh(n))
		wantL := new(big.Int).Lsh(bigOf(x), n)
		wantL.Mod(wantL, two128)
		if gotL.Cmp(wantL) != 0 {
			t.Fatalf("Lsh(%s, %d) = %s, want %s", x, n, gotL, wantL)
		}
		gotR := bigOf(x.Rsh(n))
		wantR := new(big.Int).Rsh(bigOf(x), n)
		if gotR.Cmp(wantR) != 0 {
			t.Fatalf("Rsh(%s, %d) = %s, want %s", x, n, gotR, wantR)
		}
	}
}

func TestCmpAndLess(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		a, b := randU128(r), randU128(r)
		want := bigOf(a).Cmp(bigOf(b))
		if got := a.Cmp(b); got != want {
			t.Fatalf("Cmp(%s, %s) = %d, want %d", a, b, got, want)
		}
		if a.Less(b) != (want < 0) {
			t.Fatalf("Less(%s, %s) inconsistent with Cmp", a, b)
		}
		if a.LessEq(b) != (want <= 0) {
			t.Fatalf("LessEq(%s, %s) inconsistent with Cmp", a, b)
		}
	}
}

func TestBitLenAndZeros(t *testing.T) {
	cases := []struct {
		x      U128
		bitLen int
		lead   int
	}{
		{Zero, 0, 128},
		{One, 1, 127},
		{New(1, 0), 65, 63},
		{Max, 128, 0},
		{New(0, 0x8000000000000000), 64, 64},
	}
	for _, c := range cases {
		if got := c.x.BitLen(); got != c.bitLen {
			t.Errorf("BitLen(%s) = %d, want %d", c.x, got, c.bitLen)
		}
		if got := c.x.LeadingZeros(); got != c.lead {
			t.Errorf("LeadingZeros(%s) = %d, want %d", c.x, got, c.lead)
		}
	}
}

func TestDivMod(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		x := randU128(r)
		y := randU128(r)
		if y.IsZero() {
			y = One
		}
		q, rem := x.DivMod(y)
		wantQ, wantR := new(big.Int).DivMod(bigOf(x), bigOf(y), new(big.Int))
		if bigOf(q).Cmp(wantQ) != 0 || bigOf(rem).Cmp(wantR) != 0 {
			t.Fatalf("DivMod(%s, %s) = (%s, %s), want (%s, %s)", x, y, q, rem, wantQ, wantR)
		}
	}
}

func TestDivMod64(t *testing.T) {
	f := func(hi, lo, d uint64) bool {
		if d == 0 {
			d = 1
		}
		x := New(hi, lo)
		q, r := x.DivMod64(d)
		db := new(big.Int).SetUint64(d)
		wantQ, wantR := new(big.Int).DivMod(bigOf(x), db, new(big.Int))
		return bigOf(q).Cmp(wantQ) == 0 && wantR.Uint64() == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on division by zero")
		}
	}()
	One.DivMod(Zero)
}

func TestBitwise(t *testing.T) {
	a := New(0xf0f0, 0x1234)
	b := New(0x0ff0, 0xff00)
	if got := a.Or(b); got != New(0xfff0, 0xff34) {
		t.Errorf("Or = %s", got.Hex())
	}
}

func TestStringAndParseRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 500; i++ {
		x := randU128(r)
		if x.String() != bigOf(x).String() {
			t.Fatalf("String(%v) = %s, want %s", x, x.String(), bigOf(x).String())
		}
		back, err := Parse(x.String())
		if err != nil {
			t.Fatalf("Parse(%s): %v", x, err)
		}
		if !back.Equal(x) {
			t.Fatalf("round trip decimal: got %s, want %s", back, x)
		}
		backHex, err := Parse(x.Hex())
		if err != nil {
			t.Fatalf("Parse(%s): %v", x.Hex(), err)
		}
		if !backHex.Equal(x) {
			t.Fatalf("round trip hex: got %s, want %s", backHex, x)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{"", "0x", "abc", "12g4", "-5",
		"340282366920938463463374607431768211456", // 2^128
		"0xfffffffffffffffffffffffffffffffff",     // 132 bits
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q): expected error", s)
		}
	}
	good := map[string]U128{
		"0":     Zero,
		"1":     One,
		"0x10":  From64(16),
		"1_000": From64(1000),
		"0xFF":  From64(255),
		"340282366920938463463374607431768211455": Max,
	}
	for s, want := range good {
		got, err := Parse(s)
		if err != nil {
			t.Errorf("Parse(%q): %v", s, err)
			continue
		}
		if !got.Equal(want) {
			t.Errorf("Parse(%q) = %s, want %s", s, got, want)
		}
	}
}

func TestFromBig(t *testing.T) {
	if _, ok := FromBig(big.NewInt(-1)); ok {
		t.Error("FromBig(-1) should fail")
	}
	if _, ok := FromBig(two128); ok {
		t.Error("FromBig(2^128) should fail")
	}
	x, ok := FromBig(new(big.Int).Sub(two128, big.NewInt(1)))
	if !ok || !x.Equal(Max) {
		t.Errorf("FromBig(2^128-1) = %v, %v", x, ok)
	}
}

func TestAddSub64(t *testing.T) {
	f := func(hi, lo, y uint64) bool {
		x := New(hi, lo)
		if !x.Add64(y).Equal(x.Add(From64(y))) {
			return false
		}
		return x.Sub64(y).Equal(x.Sub(From64(y)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
