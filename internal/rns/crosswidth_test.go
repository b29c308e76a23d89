package rns

import (
	"math/big"
	"math/rand"
	"testing"

	"mqxgo/internal/modmath"
	"mqxgo/internal/ntt"
	"mqxgo/internal/u128"
)

// TestCrossWidthNegacyclicOracle ties the two transform stacks together
// as each other's oracle — the paper's central comparison made
// executable. Operands with small coefficients are multiplied negacyclicly
// twice: through k 64-bit RNS towers (CRT-recombined and centered-lifted
// to the exact integer product, which the towers can represent because
// Q_rns > 2*n*B^2) and through the 128-bit double-word plan mod q. The
// integer product reduced mod q must equal the 128-bit result bit for
// bit.
func TestCrossWidthNegacyclicOracle(t *testing.T) {
	const n = 256
	const coeffBits = 52 // n * B^2 = 2^112 plus sign fits every tested basis
	mod128 := modmath.DefaultModulus128()
	plan128, err := ntt.CachedPlan(mod128, n)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(91))

	for _, k := range []int{2, 3, 4} {
		c, err := NewContext(59, k, n)
		if err != nil {
			t.Fatal(err)
		}
		// Small operands, identical on both sides.
		aw := make([]uint64, n)
		bw := make([]uint64, n)
		a128 := make([]u128.U128, n)
		b128 := make([]u128.U128, n)
		aBig := make([]*big.Int, n)
		bBig := make([]*big.Int, n)
		for i := 0; i < n; i++ {
			aw[i] = r.Uint64() >> (64 - coeffBits)
			bw[i] = r.Uint64() >> (64 - coeffBits)
			a128[i] = u128.From64(aw[i])
			b128[i] = u128.From64(bw[i])
			aBig[i] = new(big.Int).SetUint64(aw[i])
			bBig[i] = new(big.Int).SetUint64(bw[i])
		}

		// RNS side: decompose, tower-wise negacyclic multiply,
		// CRT-recombine, and lift to the exact signed integer product.
		prod := c.NewPoly()
		if err := c.MulAll(prod, decompose(t, c, aBig), decompose(t, c, bBig)); err != nil {
			t.Fatal(err)
		}
		rec := reconstruct(t, c, prod)
		halfQ := new(big.Int).Rsh(c.Q, 1)
		qBig := mod128.Q.ToBig()
		for i := range rec {
			if rec[i].Cmp(halfQ) > 0 { // centered lift: negative coefficient
				rec[i].Sub(rec[i], c.Q)
			}
			rec[i].Mod(rec[i], qBig)
		}

		// 128-bit side.
		got := make([]u128.U128, n)
		plan128.PolyMulNegacyclicInto(got, a128, b128)

		for i := 0; i < n; i++ {
			if got[i].ToBig().Cmp(rec[i]) != 0 {
				t.Fatalf("k=%d coeff %d: 128-bit %s != RNS oracle %s", k, i, got[i], rec[i].String())
			}
		}
	}
}
