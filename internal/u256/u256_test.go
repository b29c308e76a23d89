package u256

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"mqxgo/internal/u128"
)

var two256 = new(big.Int).Lsh(big.NewInt(1), 256)

func randU128(r *rand.Rand) u128.U128 {
	switch r.Intn(3) {
	case 0:
		return u128.U128{Lo: r.Uint64()}
	case 1:
		return u128.U128{Hi: r.Uint64() >> 40, Lo: r.Uint64()}
	default:
		return u128.U128{Hi: r.Uint64(), Lo: r.Uint64()}
	}
}

func randU256(r *rand.Rand) U256 {
	var x U256
	n := 1 + r.Intn(4)
	for i := 0; i < n; i++ {
		x.W[i] = r.Uint64()
	}
	return x
}

func TestMulSchoolbookMatchesBig(t *testing.T) {
	f := func(aHi, aLo, bHi, bLo uint64) bool {
		a, b := u128.New(aHi, aLo), u128.New(bHi, bLo)
		got := MulSchoolbook(a, b).ToBig()
		want := new(big.Int).Mul(a.ToBig(), b.ToBig())
		return got.Cmp(want) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Edge cases saturating every carry of the recombination.
	edges := []u128.U128{u128.Zero, u128.One, u128.Max,
		u128.New(^uint64(0), 0), u128.New(0, ^uint64(0)),
		u128.New(1, ^uint64(0)), u128.New(^uint64(0), 1)}
	for _, a := range edges {
		for _, b := range edges {
			if !f(a.Hi, a.Lo, b.Hi, b.Lo) {
				t.Fatalf("edge mismatch for %s * %s", a, b)
			}
		}
	}
}

func TestAddSubMatchBig(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 3000; i++ {
		a, b := randU256(r), randU256(r)
		diff := a.Sub(b).ToBig()
		want := new(big.Int).Sub(a.ToBig(), b.ToBig())
		want.Mod(want, two256)
		if diff.Cmp(want) != 0 {
			t.Fatalf("Sub mismatch")
		}
	}
}

func TestShiftsMatchBig(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 3000; i++ {
		x := randU256(r)
		n := uint(r.Intn(270))
		gotL := x.Lsh(n).ToBig()
		wantL := new(big.Int).Lsh(x.ToBig(), n)
		wantL.Mod(wantL, two256)
		if gotL.Cmp(wantL) != 0 {
			t.Fatalf("Lsh(%s, %d) = %s, want %s", x, n, gotL, wantL)
		}
		gotR := x.Rsh(n).ToBig()
		wantR := new(big.Int).Rsh(x.ToBig(), n)
		if gotR.Cmp(wantR) != 0 {
			t.Fatalf("Rsh(%s, %d) = %s, want %s", x, n, gotR, wantR)
		}
	}
}

func TestDivMod128MatchesBig(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for i := 0; i < 1500; i++ {
		x := randU256(r)
		d := randU128(r)
		if d.IsZero() {
			d = u128.One
		}
		q, rem := x.DivMod128(d)
		wantQ, wantR := new(big.Int).DivMod(x.ToBig(), d.ToBig(), new(big.Int))
		if q.ToBig().Cmp(wantQ) != 0 || rem.ToBig().Cmp(wantR) != 0 {
			t.Fatalf("DivMod128(%s, %s): got (%s, %s), want (%s, %s)",
				x, d, q, rem, wantQ, wantR)
		}
		if !x.Mod128(d).Equal(rem) {
			t.Fatal("Mod128 disagrees with DivMod128")
		}
	}
}

func TestDivMod128ByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	From64(1).DivMod128(u128.Zero)
}

func TestAccessorsAndCmp(t *testing.T) {
	x := U256{W: [4]uint64{1, 2, 3, 4}}
	if x.Lo128() != u128.New(2, 1) || x.Hi128() != u128.New(4, 3) {
		t.Fatal("Lo128/Hi128 wrong")
	}
	if x.BitLen() != 64*3+3 {
		t.Fatalf("BitLen = %d", x.BitLen())
	}
	y := U256{W: [4]uint64{2, 2, 3, 4}}
	if !x.Less(y) || x.Cmp(y) != -1 || y.Cmp(x) != 1 || x.Cmp(x) != 0 {
		t.Fatal("Cmp wrong")
	}
	if !FromU128(u128.New(9, 8)).Equal(U256{W: [4]uint64{8, 9, 0, 0}}) {
		t.Fatal("FromU128 wrong")
	}
	if got, ok := FromBig(x.ToBig()); !ok || !got.Equal(x) {
		t.Fatal("FromBig round trip failed")
	}
	if _, ok := FromBig(big.NewInt(-1)); ok {
		t.Fatal("FromBig(-1) should fail")
	}
	if _, ok := FromBig(two256); ok {
		t.Fatal("FromBig(2^256) should fail")
	}
}
