//go:build amd64

package ring

import (
	"math/bits"
	"math/rand"
	"testing"

	"mqxgo/internal/modmath"
	"mqxgo/internal/u128"
)

// Differential suite for the vector kernel tier: every assembly span
// kernel must be bit-identical to the fused scalar Go kernels, which
// remain the ground truth. The relaxed-domain kernels are pure wrapping
// arithmetic plus branchless conditional subtracts, so bit identity is
// checked on ARBITRARY 64-bit lane values — including the lazy-domain
// boundary points q-1, q, 2q-1, 2q, 2^63, 2^64-1 — not just in-contract
// residues. Only MulSpan constrains inputs (canonical, per its
// contract): its scalar tail is a data-dependent subtract loop whose
// 2-iteration Barrett bound needs in-range products.

// simdTiers returns the rings at each vector tier the host can run, keyed
// by tier name.
func simdTiers(t testing.TB, m *modmath.Modulus64) map[string]Shoup64 {
	tiers := make(map[string]Shoup64)
	for _, tier := range []KernelTier{TierAVX2, TierAVX512} {
		if DetectKernelTier() >= tier {
			tiers[tier.String()] = NewShoup64Tier(m, tier)
		}
	}
	if len(tiers) == 0 {
		t.Skip("no vector tier on this host")
	}
	return tiers
}

var simdSpanLens = []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 31, 64, 100}

func TestSIMDSpanBitIdentity(t *testing.T) {
	m := simdMod(t)
	scalar := NewShoup64Tier(m, TierScalar)
	q := m.Q
	for tier, vec := range simdTiers(t, m) {
		t.Run(tier, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			for _, n := range simdSpanLens {
				lo := make([]uint64, n)
				hi := make([]uint64, n)
				w := make([]uint64, n)
				pre := make([]uint64, n)
				in := make([]uint64, 2*n)
				outS := make([]uint64, 2*n)
				outV := make([]uint64, 2*n)
				loS, loV := make([]uint64, n), make([]uint64, n)
				hiS, hiV := make([]uint64, n), make([]uint64, n)
				fillTwiddles(rng, m, w, pre)

				fillBoundary(rng, lo, q)
				fillBoundary(rng, hi, q)
				fillBoundary(rng, in, q)

				scalar.CTSpan(outS, lo, hi, w, pre)
				vec.CTSpan(outV, lo, hi, w, pre)
				diffU64(t, "CTSpan", outV, outS)

				scalar.CTSpanLast(outS, lo, hi, w, pre)
				vec.CTSpanLast(outV, lo, hi, w, pre)
				diffU64(t, "CTSpanLast", outV, outS)

				scalar.GSSpan(loS, hiS, in, w, pre)
				vec.GSSpan(loV, hiV, in, w, pre)
				diffU64(t, "GSSpan lo", loV, loS)
				diffU64(t, "GSSpan hi", hiV, hiS)

				scalar.MulPreSpan(outS[:n], lo, w, pre)
				vec.MulPreSpan(outV[:n], lo, w, pre)
				diffU64(t, "MulPreSpan", outV[:n], outS[:n])

				scalar.MulPreNormSpan(outS[:n], lo, w, pre)
				vec.MulPreNormSpan(outV[:n], lo, w, pre)
				diffU64(t, "MulPreNormSpan", outV[:n], outS[:n])

				// ScalarMulSpan takes any 64-bit input (InverseInto feeds
				// it the last GS stage's [0, 2q) output, rns its lazy
				// conversion rows) and returns the canonical product.
				scalar.ScalarMulSpan(outS[:n], lo, w[0], pre[0])
				vec.ScalarMulSpan(outV[:n], lo, w[0], pre[0])
				diffU64(t, "ScalarMulSpan", outV[:n], outS[:n])
				for i, a := range lo {
					ph, pl := bits.Mul64(a, w[0])
					if want := bits.Rem64(ph, pl, q); outS[i] != want {
						t.Fatalf("ScalarMulSpan(%#x): got %#x, want the canonical %#x", a, outS[i], want)
					}
				}

				scalar.ScaleAddSpan(outS[:n], lo, hi, w[0], pre[0])
				vec.ScaleAddSpan(outV[:n], lo, hi, w[0], pre[0])
				diffU64(t, "ScaleAddSpan", outV[:n], outS[:n])

				// Fused final-stage MAC: raw 64-bit accumulators (any
				// wrapped value is legal), relaxed lo/hi, two twiddle rows.
				wA2 := make([]uint64, 2*n)
				preA2 := make([]uint64, 2*n)
				wB2 := make([]uint64, 2*n)
				preB2 := make([]uint64, 2*n)
				fillTwiddles(rng, m, wA2, preA2)
				fillTwiddles(rng, m, wB2, preB2)
				accAS, accBS := make([]uint64, 2*n), make([]uint64, 2*n)
				for i := range accAS {
					accAS[i] = rng.Uint64()
					accBS[i] = rng.Uint64()
				}
				accAV := append([]uint64(nil), accAS...)
				accBV := append([]uint64(nil), accBS...)
				macFinal2SpanScalar(q, accAS, accBS, lo, hi, wA2, preA2, wB2, preB2)
				vec.MACFinal2Span(accAV, accBV, lo, hi, wA2, preA2, wB2, preB2)
				diffU64(t, "MACFinal2Span accA", accAV, accAS)
				diffU64(t, "MACFinal2Span accB", accBV, accBS)

				// MulSpan: canonical inputs per contract.
				fillCanonical(rng, lo, q)
				fillCanonical(rng, hi, q)
				scalar.MulSpan(outS[:n], lo, hi)
				vec.MulSpan(outV[:n], lo, hi)
				diffU64(t, "MulSpan", outV[:n], outS[:n])
			}
		})
	}
}

// TestSIMDAffineRowsBitIdentity: the affine-rows bodies against the
// scalar body on arbitrary 64-bit row entries (the boundary set of
// fillBoundary: 0, q-1, q, 2q, 2^64-1, raw words), at lengths that
// exercise the vector tail, 1 to 8 rows, both ends of c0's range, and
// with dst aliasing rows[0].
func TestSIMDAffineRowsBitIdentity(t *testing.T) {
	m := simdMod(t)
	q := m.Q
	for tier, vec := range simdTiers(t, m) {
		t.Run(tier, func(t *testing.T) {
			rng := rand.New(rand.NewSource(13))
			for _, n := range simdSpanLens {
				for nrows := 1; nrows <= 8; nrows++ {
					rows := make([][]uint64, nrows)
					for r := range rows {
						rows[r] = make([]uint64, n)
						fillBoundary(rng, rows[r], q)
					}
					w := make([]uint64, nrows)
					pre := make([]uint64, nrows)
					fillTwiddles(rng, m, w, pre)
					w[0], pre[0] = q-1, m.ShoupPrecompute(q-1)
					for _, c0 := range []uint64{0, q - 1} {
						want := make([]uint64, n)
						got := make([]uint64, n)
						affineRowsSpanScalar(q, want, c0, rows, w, pre, 0)
						vec.AffineRowsSpan(got, c0, rows, w, pre)
						diffU64(t, "AffineRowsSpan", got, want)
						for _, v := range got {
							if v >= q {
								t.Fatalf("AffineRowsSpan: output %#x not canonical", v)
							}
						}

						alias := make([][]uint64, nrows)
						copy(alias, rows)
						alias[0] = append([]uint64(nil), rows[0]...)
						vec.AffineRowsSpan(alias[0], c0, alias, w, pre)
						diffU64(t, "AffineRowsSpan dst=rows[0]", alias[0], want)
					}
				}
			}
		})
	}
}

func TestSIMDBlockedBitIdentity(t *testing.T) {
	m := simdMod(t)
	scalar := NewShoup64Tier(m, TierScalar)
	q := m.Q
	for tier, vec := range simdTiers(t, m) {
		t.Run(tier, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			for _, blk := range []int{8, 16, 32} {
				for _, nBlocks := range []int{1, 2, 3} {
					n := nBlocks * blk
					lo := make([]uint64, n)
					hi := make([]uint64, n)
					in := make([]uint64, 2*n)
					w := make([]uint64, nBlocks)
					pre := make([]uint64, nBlocks)
					outS, outV := make([]uint64, 2*n), make([]uint64, 2*n)
					loS, loV := make([]uint64, n), make([]uint64, n)
					hiS, hiV := make([]uint64, n), make([]uint64, n)
					fillTwiddles(rng, m, w, pre)
					// Force the unit-twiddle special path on block 0,
					// the degenerate form the top Pease stages hit.
					w[0], pre[0] = 1, m.ShoupPrecompute(1)
					fillBoundary(rng, lo, q)
					fillBoundary(rng, hi, q)
					fillBoundary(rng, in, q)

					scalar.CTSpanBlk(outS, lo, hi, w, pre, blk)
					vec.CTSpanBlk(outV, lo, hi, w, pre, blk)
					diffU64(t, "CTSpanBlk", outV, outS)

					scalar.CTSpanLastBlk(outS, lo, hi, w, pre, blk)
					vec.CTSpanLastBlk(outV, lo, hi, w, pre, blk)
					diffU64(t, "CTSpanLastBlk", outV, outS)

					scalar.GSSpanBlk(loS, hiS, in, w, pre, blk)
					vec.GSSpanBlk(loV, hiV, in, w, pre, blk)
					diffU64(t, "GSSpanBlk lo", loV, loS)
					diffU64(t, "GSSpanBlk hi", hiV, hiS)
				}
			}
		})
	}
}

// TestKernelTierSelection pins tier resolution for both rings: a plan
// over a ring built at a requested tier holds that ring at the tier the
// request clamps to, as both its span and its blocked kernels. Bit
// identity alone cannot catch a mix-up, since every tier computes the
// same bits: a ring forced to avx2 that ran the AVX-512 bodies would pass
// every differential test. Barrett128 runs avx512 for moduli of 65 to 124
// bits; an avx2 request and any modulus below 2^64 run (and report)
// scalar, and a Barrett128 plan has no blocked kernels.
func TestKernelTierSelection(t *testing.T) {
	m := simdMod(t)
	q62, err := modmath.FindNTTPrime128(62, 32)
	if err != nil {
		t.Fatal(err)
	}
	wide, narrow := modmath.DefaultModulus128(), modmath.MustModulus128(q62)
	for _, tier := range []KernelTier{TierScalar, TierAVX2, TierAVX512} {
		if DetectKernelTier() < tier {
			continue
		}
		p := MustPlan[uint64](NewShoup64Tier(m, tier), 16)
		checkPlanRing(t, p, Shoup64{M: m, tier: tier}, tier)
		if any(p.blk) != any(p.kern) {
			t.Errorf("Shoup64 %s: blocked kernels %#v differ from span kernels %#v", tier, p.blk, p.kern)
		}
		for _, m := range []*modmath.Modulus128{wide, narrow} {
			want := TierScalar
			if tier == TierAVX512 && m == wide {
				want = TierAVX512
			}
			p := MustPlan[u128.U128](NewBarrett128Tier(m, tier), 16)
			checkPlanRing(t, p, Barrett128{M: m, tier: want}, want)
			if p.blk != nil {
				t.Errorf("Barrett128 %s: plan has blocked kernels %#v", tier, p.blk)
			}
		}
	}
}

// checkPlanRing checks that p's kernels are the ring want and that p
// reports tier.
func checkPlanRing[T any, R Ring[T]](t *testing.T, p *Plan[T, R], want R, tier KernelTier) {
	t.Helper()
	if got := p.KernelTier(); got != tier.String() {
		t.Errorf("%T: KernelTier() = %s, want %s", want, got, tier)
	}
	if any(p.kern) != any(want) {
		t.Errorf("plan holds kernels %#v, want %#v", p.kern, want)
	}
}

// TestSIMDPlanDifferential runs whole transforms through plans built at
// each forced tier and requires bit identity with the scalar-kernel
// plan: twist, all Pease stages (dense and blocked), untwist.
func TestSIMDPlanDifferential(t *testing.T) {
	m := simdMod(t)
	q := m.Q
	for _, n := range []int{16, 64, 4096} {
		ps, err := NewPlan[uint64, Shoup64](NewShoup64Tier(m, TierScalar), n)
		if err != nil {
			t.Fatal(err)
		}
		for _, tier := range []KernelTier{TierAVX2, TierAVX512} {
			if DetectKernelTier() < tier {
				continue
			}
			pv, err := NewPlan[uint64, Shoup64](NewShoup64Tier(m, tier), n)
			if err != nil {
				t.Fatal(err)
			}
			if got := pv.KernelTier(); got != tier.String() {
				t.Fatalf("plan tier = %s, want %s", got, tier)
			}
			rng := rand.New(rand.NewSource(int64(n)))
			a := make([]uint64, n)
			b := make([]uint64, n)
			fillCanonical(rng, a, q)
			fillCanonical(rng, b, q)
			dstS, dstV := make([]uint64, n), make([]uint64, n)

			ps.ForwardInto(dstS, a)
			pv.ForwardInto(dstV, a)
			diffU64(t, "ForwardInto", dstV, dstS)

			ps.InverseInto(dstS, a)
			pv.InverseInto(dstV, a)
			diffU64(t, "InverseInto", dstV, dstS)

			ps.PolyMulNegacyclicInto(dstS, a, b)
			pv.PolyMulNegacyclicInto(dstV, a, b)
			diffU64(t, "PolyMulNegacyclicInto", dstV, dstS)
		}
	}
}

// FuzzSIMDSpans drives the hot asm kernels against the scalar kernels
// with fuzzer-chosen lane values planted at the span head, where both
// the vector body and (for short n) the scalar tail see them, and as
// the fused MAC's starting accumulators.
func FuzzSIMDSpans(f *testing.F) {
	m := simdMod(f)
	q := m.Q
	f.Add(int64(1), uint64(0), uint64(0), uint(8))
	f.Add(int64(2), q, 2*q-1, uint(12))
	f.Add(int64(3), ^uint64(0), uint64(1)<<63, uint(5))
	scalar := NewShoup64Tier(m, TierScalar)
	tiers := simdTiers(f, m)
	f.Fuzz(func(t *testing.T, seed int64, x, y uint64, nRaw uint) {
		n := int(nRaw%32) + 1
		rng := rand.New(rand.NewSource(seed))
		lo := make([]uint64, n)
		hi := make([]uint64, n)
		in := make([]uint64, 2*n)
		w := make([]uint64, n)
		pre := make([]uint64, n)
		fillBoundary(rng, lo, q)
		fillBoundary(rng, hi, q)
		fillBoundary(rng, in, q)
		fillTwiddles(rng, m, w, pre)
		lo[0], hi[0], in[0], in[n] = x, y, y, x
		wA, preA := make([]uint64, 2*n), make([]uint64, 2*n)
		wB, preB := make([]uint64, 2*n), make([]uint64, 2*n)
		fillTwiddles(rng, m, wA, preA)
		fillTwiddles(rng, m, wB, preB)
		outS, outV := make([]uint64, 2*n), make([]uint64, 2*n)
		loS, loV := make([]uint64, n), make([]uint64, n)
		hiS, hiV := make([]uint64, n), make([]uint64, n)
		accAS, accBS := make([]uint64, 2*n), make([]uint64, 2*n)
		accAV, accBV := make([]uint64, 2*n), make([]uint64, 2*n)
		for tier, vec := range tiers {
			scalar.CTSpan(outS, lo, hi, w, pre)
			vec.CTSpan(outV, lo, hi, w, pre)
			diffU64(t, tier+" CTSpan", outV, outS)

			scalar.GSSpan(loS, hiS, in, w, pre)
			vec.GSSpan(loV, hiV, in, w, pre)
			diffU64(t, tier+" GSSpan lo", loV, loS)
			diffU64(t, tier+" GSSpan hi", hiV, hiS)

			scalar.MulPreSpan(outS[:n], lo, w, pre)
			vec.MulPreSpan(outV[:n], lo, w, pre)
			diffU64(t, tier+" MulPreSpan", outV[:n], outS[:n])

			rows := [][]uint64{lo, hi}[:min(2, n)]
			affineRowsSpanScalar(q, outS[:n], x%q, rows, w, pre, 0)
			vec.AffineRowsSpan(outV[:n], x%q, rows, w[:len(rows)], pre[:len(rows)])
			diffU64(t, tier+" AffineRowsSpan", outV[:n], outS[:n])

			for i := range accAS {
				accAS[i], accBS[i] = x, y
			}
			copy(accAV, accAS)
			copy(accBV, accBS)
			scalar.MACFinal2Span(accAS, accBS, lo, hi, wA, preA, wB, preB)
			vec.MACFinal2Span(accAV, accBV, lo, hi, wA, preA, wB, preB)
			diffU64(t, tier+" MACFinal2Span accA", accAV, accAS)
			diffU64(t, tier+" MACFinal2Span accB", accBV, accBS)
		}
	})
}
