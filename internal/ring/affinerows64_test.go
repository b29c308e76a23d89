package ring

import (
	"math/big"
	"math/rand"
	"testing"

	"mqxgo/internal/modmath"
	"mqxgo/internal/scratch"
)

// TestAffineRowsMatchesBigInt pins the entry point to its integer
// specification at every kernel tier the host can run: c0 plus the
// weighted row sum, reduced mod q, on arbitrary 64-bit row entries —
// including a prime at the 62-bit ceiling, where acc + t comes closest
// to 2^64, and the zero-row case.
func TestAffineRowsMatchesBigInt(t *testing.T) {
	for _, primeBits := range []int{40, 59, 62} {
		m := nttModulus(t, primeBits, 128)
		q := m.Q
		qb := new(big.Int).SetUint64(q)
		for _, tier := range []KernelTier{TierScalar, TierAVX2, TierAVX512} {
			if tier != TierScalar && DetectKernelTier() < tier {
				continue
			}
			const n = 64
			p, err := NewPlan[uint64, Shoup64](NewShoup64Tier(m, tier), n)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(primeBits)))
			for nrows := 0; nrows <= 9; nrows++ {
				rows := make([][]uint64, nrows)
				for r := range rows {
					rows[r] = make([]uint64, n)
					fillBoundary(rng, rows[r], q)
				}
				w := make([]uint64, nrows)
				fillCanonical(rng, w, q)
				c0 := rng.Uint64() % q
				dst := make([]uint64, n)
				AffineRows(p, dst, NewAffine(m, c0, w...), rows)
				sum, term := new(big.Int), new(big.Int)
				for i := range dst {
					sum.SetUint64(c0)
					for r := range rows {
						term.SetUint64(rows[r][i])
						sum.Add(sum, term.Mul(term, new(big.Int).SetUint64(w[r])))
					}
					if want := sum.Mod(sum, qb).Uint64(); dst[i] != want {
						t.Fatalf("%d-bit q, tier %s, %d rows, element %d: got %d, want %d",
							primeBits, tier, nrows, i, dst[i], want)
					}
				}
			}
		}
	}
}

// nttModulus returns the largest prime of the given bit width with
// q = 1 mod order. modmath.FindNTTPrimes64 stops at 61 bits; Modulus64
// itself admits q < 2^62, and the ceiling is the case worth pinning.
func nttModulus(t testing.TB, primeBits int, order uint64) *modmath.Modulus64 {
	t.Helper()
	top := uint64(1)<<primeBits - 1
	for q := top - top%order + 1; q > 1<<(primeBits-1); q -= order {
		if q <= top && new(big.Int).SetUint64(q).ProbablyPrime(20) {
			return modmath.MustModulus64(q)
		}
	}
	t.Fatalf("no %d-bit prime = 1 mod %d", primeBits, order)
	return nil
}

// AffineRows carries every BEHZ conversion: it must hold the transform
// paths' 0 allocs/op at every tier the host runs.
func TestAffineRowsDoesNotAllocate(t *testing.T) {
	if scratch.Race {
		t.Skip("race instrumentation allocates")
	}
	m := simdMod(t)
	const n = 256
	rng := rand.New(rand.NewSource(6))
	rows := make([][]uint64, 5)
	for r := range rows {
		rows[r] = make([]uint64, n)
		fillBoundary(rng, rows[r], m.Q)
	}
	a := NewAffine(m, 1, 2, 3, 5, 7, 11)
	dst := make([]uint64, n)
	for _, tier := range []KernelTier{TierScalar, TierAVX2, TierAVX512} {
		if tier != TierScalar && DetectKernelTier() < tier {
			continue
		}
		p := MustPlan[uint64, Shoup64](NewShoup64Tier(m, tier), n)
		f := func() { AffineRows(p, dst, a, rows) }
		f()
		if got := testing.AllocsPerRun(20, f); got != 0 {
			t.Errorf("%s: AffineRows: %v allocs/op, want 0", tier, got)
		}
	}
}

// BenchmarkAffineRows reports ns per element-term (one row entry
// multiplied and accumulated) per kernel tier at the conversion shapes:
// 2 rows (divide-and-round), 4 (FastBConv at k=4), 6 (m~-corrected, SK).
func BenchmarkAffineRows(b *testing.B) {
	m := simdMod(b)
	const n = 4096
	for _, tier := range []KernelTier{TierScalar, TierAVX2, TierAVX512} {
		for _, nrows := range []int{2, 4, 6} {
			p, _ := NewPlan[uint64, Shoup64](NewShoup64Tier(m, tier), n)
			rng := rand.New(rand.NewSource(6))
			rows := make([][]uint64, nrows)
			for r := range rows {
				rows[r] = make([]uint64, n)
				fillCanonical(rng, rows[r], m.Q)
			}
			w := make([]uint64, len(rows))
			fillCanonical(rng, w, m.Q)
			a := NewAffine(m, 1, w...)
			dst := make([]uint64, n)
			b.Run(tier.String()+"/rows"+string(rune('0'+nrows)), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					AffineRows(p, dst, a, rows)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n*nrows), "ns/elemterm")
			})
		}
	}
}
