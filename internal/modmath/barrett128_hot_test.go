package modmath

import (
	"math/big"
	"math/rand"
	"testing"

	"mqxgo/internal/u128"
)

// hotPathModuli returns moduli exercising every shift-decomposition branch of
// rsh256lo: n-1 and n+1 below, at, and above the word boundary.
func hotPathModuli(t *testing.T) []*Modulus128 {
	t.Helper()
	qs := []u128.U128{
		u128.From64(3),               // n=2: minimum width
		u128.From64(257),             // n=9
		u128.From64(0x7fffffff),      // n=31
		u128.From64(1<<62 + 1),       // n=63: n+1 == 64
		u128.From64(1<<63 + 29),      // n=64: n-1 == 63, n+1 == 65
		u128.New(1, 21),              // n=65: n-1 == 64
		u128.New(0x7fffffffff, 0x13), // n=103
		DefaultModulus128().Q,        // n=124: the library default
	}
	mods := make([]*Modulus128, 0, len(qs))
	for _, q := range qs {
		m, err := NewModulus128(q)
		if err != nil {
			t.Fatalf("NewModulus128(%v): %v", q, err)
		}
		mods = append(mods, m)
	}
	return mods
}

// TestMulFlatMatchesBig cross-checks the flattened Barrett path against
// math/big over every modulus width class.
func TestMulFlatMatchesBig(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for _, m := range hotPathModuli(t) {
		qb := m.Q.ToBig()
		for trial := 0; trial < 2000; trial++ {
			a := u128.New(r.Uint64(), r.Uint64()).Mod(m.Q)
			b := u128.New(r.Uint64(), r.Uint64()).Mod(m.Q)
			got := m.Mul(a, b)
			want := new(big.Int).Mul(a.ToBig(), b.ToBig())
			want.Mod(want, qb)
			if got.ToBig().Cmp(want) != 0 {
				t.Fatalf("q=%v: Mul(%v, %v) = %v, want %v", m.Q, a, b, got, want)
			}
		}
	}
}

// TestMulFlatEdgeValues hits the corrective-subtraction extremes: operands
// at 0, 1, and q-1.
func TestMulFlatEdgeValues(t *testing.T) {
	for _, m := range hotPathModuli(t) {
		qm1 := m.Q.Sub64(1)
		cases := []u128.U128{u128.Zero, u128.One, qm1}
		qb := m.Q.ToBig()
		for _, a := range cases {
			for _, b := range cases {
				got := m.Mul(a, b)
				want := new(big.Int).Mul(a.ToBig(), b.ToBig())
				want.Mod(want, qb)
				if got.ToBig().Cmp(want) != 0 {
					t.Fatalf("q=%v: Mul(%v, %v) = %v, want %v", m.Q, a, b, got, want)
				}
			}
		}
	}
}
