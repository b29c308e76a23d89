//go:build amd64

package ring

import (
	"math/big"
	"math/rand"
	"testing"
	"unsafe"

	"mqxgo/internal/modmath"
	"mqxgo/internal/u128"
)

// Differential suite for the Barrett128 AVX-512 bodies: every span a
// Barrett128 at the avx512 tier runs must be bit-identical to the same
// span at the scalar tier, the ground truth. The vector tier serves moduli
// of 65 to 124 bits, so the suite runs at both ends of that range (65 bits
// makes n-1 = 64 exactly, the whole-word select) and in between, on
// canonical residues that include 0, 1, q-2, q-1 and products needing
// both Barrett corrections.

// barrett128TestMods returns, for each tested bit length n, a modulus
// q = 2^n - k with k the largest odd integer with k² + k < 2^n (at even
// indices), and the largest NTT prime of n bits (at odd ones). For the first, 2^(2n) mod q = k² sits just
// below q, so mu = floor(2^(2n)/q) drops almost a whole unit and about a
// quarter of the products of residues near q need both corrective
// subtractions; no random product does for a typical modulus.
func barrett128TestMods(t testing.TB) []*modmath.Modulus128 {
	var mods []*modmath.Modulus128
	for _, bits := range []uint{65, 66, 96, 123, 124} {
		pow := new(big.Int).Lsh(big.NewInt(1), bits)
		k := new(big.Int).Sqrt(pow)
		k.Sub(k, big.NewInt(1))
		if k.Bit(0) == 0 {
			k.Sub(k, big.NewInt(1))
		}
		q, ok := u128.FromBig(pow.Sub(pow, k))
		if !ok {
			t.Fatalf("%d-bit test modulus does not fit 128 bits", bits)
		}
		p, err := modmath.FindNTTPrime128(int(bits), 16)
		if err != nil {
			t.Fatal(err)
		}
		mods = append(mods, modmath.MustModulus128(q), modmath.MustModulus128(p))
	}
	return mods
}

// barrettCorrections is the number of corrective subtractions the
// Barrett quotient estimate of a·b needs: floor(t/q) minus the estimate,
// both computed with math/big.
func barrettCorrections(m *modmath.Modulus128, a, b u128.U128) int {
	t := new(big.Int).Mul(a.ToBig(), b.ToBig())
	est := new(big.Int).Rsh(t, m.N-1)
	est.Mul(est, m.Mu.ToBig()).Rsh(est, m.N+1)
	return int(t.Quo(t, m.Q.ToBig()).Sub(t, est).Int64())
}

// fill128 fills dst with canonical residues cycling through three kinds:
// the boundary values 0, 1, q-2, q-1; residues within 2^(n-12) of q,
// whose products come near q² (where the double corrections live); and
// uniform residues.
func fill128(rng *rand.Rand, dst []u128.U128, m *modmath.Modulus128) {
	q := m.Q
	edges := []u128.U128{u128.Zero, u128.One, q.Sub64(2), q.Sub64(1)}
	near := u128.One.Lsh(m.N - 12)
	for i := range dst {
		r := u128.New(rng.Uint64(), rng.Uint64())
		switch i % 3 {
		case 0:
			dst[i] = edges[rng.Intn(len(edges))]
		case 1:
			dst[i] = q.Sub64(1).Sub(r.Mod(near))
		default:
			dst[i] = r.Mod(q)
		}
	}
}

func diff128(t *testing.T, name string, got, want []u128.U128) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: lane %d: got %v, want %v", name, i, got[i], want[i])
		}
	}
}

// vecTiers128 returns the Barrett128 vector tiers this host runs
// (avx512, avx512ifma), and skips t when it runs none.
func vecTiers128(t testing.TB) []KernelTier {
	var tiers []KernelTier
	for _, tier := range []KernelTier{TierAVX512, TierAVX512IFMA} {
		if DetectKernelTier() >= tier {
			tiers = append(tiers, tier)
		}
	}
	if len(tiers) == 0 {
		t.Skip("no AVX-512 tier on this host")
	}
	return tiers
}

// preOf returns r's Shoup words of ws.
func preOf(r Barrett128, ws []u128.U128) []u128.U128 {
	pre := make([]u128.U128, len(ws))
	for i, w := range ws {
		pre[i] = r.Precompute(w)
	}
	return pre
}

// TestBarrett128PrecomputeMatchesBig checks the Shoup words the IFMA
// spans read against math/big's floor(w * 2^128 / q) at w = 0, 1, q-1
// and random w, on every test modulus.
func TestBarrett128PrecomputeMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(156))
	for _, m := range barrett128TestMods(t) {
		r := NewBarrett128(m)
		ws := make([]u128.U128, 64)
		fill128(rng, ws, m)
		ws = append(ws, u128.Zero, u128.One, m.Q.Sub64(1))
		for _, w := range ws {
			want := new(big.Int).Lsh(w.ToBig(), 128)
			want.Quo(want, m.Q.ToBig())
			if got := r.Precompute(w); got.ToBig().Cmp(want) != 0 {
				t.Fatalf("%d-bit q=%v w=%v: Precompute = %v, want %v", m.N, m.Q, w, got, want)
			}
		}
	}
}

// TestBarrett128ConstsLayout pins the field offsets the assembly bodies
// read barrett128Consts at.
func TestBarrett128ConstsLayout(t *testing.T) {
	var c barrett128Consts
	got := []uintptr{unsafe.Offsetof(c.qHi), unsafe.Offsetof(c.qLo), unsafe.Offsetof(c.muHi),
		unsafe.Offsetof(c.muLo), unsafe.Offsetof(c.nm1), unsafe.Offsetof(c.np1), unsafe.Sizeof(c.nm1),
		unsafe.Offsetof(c.nq)}
	want := []uintptr{0, 8, 16, 24, 32, 40, 8, 48}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("barrett128Consts layout %v, the assembly reads %v", got, want)
		}
	}
}

// TestSIMDBarrett128SpanBitIdentity runs every Barrett128 span at each
// vector tier the host has against the scalar tier: the dense spans over
// simdSpanLens (vector prefix and scalar tail), the blocked spans at blk
// 8 to 256 with twiddles 1 and q-1 in the first blocks, and the aliasing
// the plan uses.
func TestSIMDBarrett128SpanBitIdentity(t *testing.T) {
	for _, tier := range vecTiers128(t) {
		t.Run(tier.String(), func(t *testing.T) { checkBarrett128Spans(t, tier) })
	}
}

func checkBarrett128Spans(t *testing.T, tier KernelTier) {
	for mi, m := range barrett128TestMods(t) {
		scalar := NewBarrett128Tier(m, TierScalar)
		vec := NewBarrett128Tier(m, tier)
		if vec.tier != tier || vec.vecLen(8) != 8 {
			t.Fatalf("%d-bit modulus: the %s Barrett128 runs tier %s", m.N, tier, vec.tier)
		}
		rng := rand.New(rand.NewSource(int64(m.N)))
		mk := func(l int) []u128.U128 {
			x := make([]u128.U128, l)
			fill128(rng, x, m)
			return x
		}
		var seen [3]int // Barrett corrections seen across the MulSpan inputs
		for _, n := range simdSpanLens {
			lo, hi, w, in := mk(n), mk(n), mk(n), mk(2*n)
			pre := preOf(vec, w)
			outS, outV := make([]u128.U128, 2*n), make([]u128.U128, 2*n)
			loS, loV := make([]u128.U128, n), make([]u128.U128, n)
			hiS, hiV := make([]u128.U128, n), make([]u128.U128, n)

			scalar.CTSpan(outS, lo, hi, w, nil)
			vec.CTSpan(outV, lo, hi, w, pre)
			diff128(t, "CTSpan", outV, outS)
			vec.CTSpanLast(outV, lo, hi, w, pre)
			diff128(t, "CTSpanLast", outV, outS)

			scalar.GSSpan(loS, hiS, in, w, nil)
			vec.GSSpan(loV, hiV, in, w, pre)
			diff128(t, "GSSpan lo", loV, loS)
			diff128(t, "GSSpan hi", hiV, hiS)

			for i := range lo {
				seen[barrettCorrections(m, lo[i], hi[i])]++
			}
			scalar.MulSpan(outS[:n], lo, hi)
			vec.MulSpan(outV[:n], lo, hi)
			diff128(t, "MulSpan", outV[:n], outS[:n])
			hiPre := preOf(vec, hi)
			vec.MulPreSpan(outV[:n], lo, hi, hiPre)
			diff128(t, "MulPreSpan", outV[:n], outS[:n])
			vec.MulPreNormSpan(outV[:n], lo, hi, hiPre)
			diff128(t, "MulPreNormSpan", outV[:n], outS[:n])

			scalar.ScalarMulSpan(outS[:n], lo, w[0], u128.Zero)
			vec.ScalarMulSpan(outV[:n], lo, w[0], pre[0])
			diff128(t, "ScalarMulSpan", outV[:n], outS[:n])

			scalar.AddSpan(outS[:n], lo, hi)
			vec.AddSpan(outV[:n], lo, hi)
			diff128(t, "AddSpan", outV[:n], outS[:n])

			scalar.SubSpan(outS[:n], lo, hi)
			vec.SubSpan(outV[:n], lo, hi)
			diff128(t, "SubSpan", outV[:n], outS[:n])

			// The aliasing the plan uses: elementwise spans in place (the
			// pointwise product, the untwist, InverseInto's 1/N pass and
			// ScalarMulInto, the BLAS accumulations), and butterflies whose
			// outputs cover their inputs (the single-stage N = 2 plan,
			// where ForwardInto runs CTSpan and InverseInto GSSpan in
			// place).
			alias := func(name string, want []u128.U128, run func(dst []u128.U128)) {
				t.Helper()
				dst := make([]u128.U128, len(want))
				run(dst)
				diff128(t, name, dst, want)
			}
			scalar.MulSpan(outS[:n], lo, hi)
			alias("MulSpan dst=a", outS[:n], func(d []u128.U128) { copy(d, lo); vec.MulSpan(d, d, hi) })
			alias("MulSpan dst=b", outS[:n], func(d []u128.U128) { copy(d, hi); vec.MulSpan(d, lo, d) })
			alias("MulPreNormSpan dst=a", outS[:n], func(d []u128.U128) { copy(d, lo); vec.MulPreNormSpan(d, d, hi, hiPre) })
			scalar.ScalarMulSpan(outS[:n], lo, w[0], u128.Zero)
			alias("ScalarMulSpan dst=a", outS[:n], func(d []u128.U128) { copy(d, lo); vec.ScalarMulSpan(d, d, w[0], pre[0]) })
			scalar.AddSpan(outS[:n], lo, hi)
			alias("AddSpan dst=a", outS[:n], func(d []u128.U128) { copy(d, lo); vec.AddSpan(d, d, hi) })
			alias("AddSpan dst=b", outS[:n], func(d []u128.U128) { copy(d, hi); vec.AddSpan(d, lo, d) })
			scalar.SubSpan(outS[:n], lo, hi)
			alias("SubSpan dst=a", outS[:n], func(d []u128.U128) { copy(d, lo); vec.SubSpan(d, d, hi) })
			alias("SubSpan dst=b", outS[:n], func(d []u128.U128) { copy(d, hi); vec.SubSpan(d, lo, d) })
		}
		for blk := 8; blk <= 256; blk *= 2 {
			for _, nb := range []int{1, 3} {
				n := nb * blk
				lo, hi, w, in := mk(n), mk(n), mk(nb), mk(2*n)
				w[0] = u128.One
				if nb > 1 {
					w[1] = m.Q.Sub64(1)
				}
				checkBlocked128(t, scalar, vec, lo, hi, in, w, blk)
			}
		}
		pair := []u128.U128{m.Q.Sub64(1), m.Q.Sub64(2)}
		pre := preOf(vec, pair)
		want := make([]u128.U128, 2)
		scalar.CTSpan(want, pair[:1], pair[1:], pair[:1], nil)
		got := append([]u128.U128(nil), pair...)
		vec.CTSpan(got, got[:1], got[1:], pair[:1], pre[:1])
		diff128(t, "CTSpan out=lo|hi", got, want)
		scalar.GSSpan(want[:1], want[1:], pair, pair[1:], nil)
		got = append(got[:0], pair...)
		vec.GSSpan(got[:1], got[1:], got, pair[1:], pre[1:])
		diff128(t, "GSSpan oLo|oHi=in", got, want)

		if mi%2 == 0 && (seen[0] == 0 || seen[1] == 0 || seen[2] == 0) {
			t.Errorf("%d-bit modulus %v: MulSpan inputs needed %v corrections (0, 1, 2); want every count", m.N, m.Q, seen)
		}
	}
}

// checkBlocked128 runs the blocked spans over twiddles w, each covering
// blk butterflies, at vec's tier against the scalar tier, and the scalar
// blocked spans against the dense scalar spans over the expanded table.
func checkBlocked128(t *testing.T, scalar, vec Barrett128, lo, hi, in, w []u128.U128, blk int) {
	t.Helper()
	n := len(lo)
	dense := make([]u128.U128, n)
	for i := range dense {
		dense[i] = w[i/blk]
	}
	pre := preOf(vec, w)
	outS, outV, outD := make([]u128.U128, 2*n), make([]u128.U128, 2*n), make([]u128.U128, 2*n)
	scalar.CTSpan(outD, lo, hi, dense, nil)
	scalar.CTSpanBlk(outS, lo, hi, w, nil, blk)
	diff128(t, "scalar CTSpanBlk", outS, outD)
	vec.CTSpanBlk(outV, lo, hi, w, pre, blk)
	diff128(t, "CTSpanBlk", outV, outS)
	vec.CTSpanLastBlk(outV, lo, hi, w, pre, blk)
	diff128(t, "CTSpanLastBlk", outV, outS)
	scalar.GSSpan(outD[:n], outD[n:], in, dense, nil)
	scalar.GSSpanBlk(outS[:n], outS[n:], in, w, nil, blk)
	diff128(t, "scalar GSSpanBlk", outS, outD)
	vec.GSSpanBlk(outV[:n], outV[n:], in, w, pre, blk)
	diff128(t, "GSSpanBlk", outV, outS)
}

// FuzzSIMDSpans128 drives the Barrett128 vector bodies of every tier the
// host has (the IFMA bodies only where it has avx512ifma) against the
// scalar spans with fuzzer-chosen residues planted at the span head,
// where the vector body (or, for short spans, the scalar tail) reads
// them, and as the first block's twiddle of the blocked spans, over
// every test modulus.
func FuzzSIMDSpans128(f *testing.F) {
	f.Add(int64(1), uint64(0), uint64(0), uint64(0), uint64(1), uint(8), uint8(0))
	f.Add(int64(2), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(1), uint(16), uint8(1))
	f.Add(int64(3), uint64(1)<<59, uint64(7), uint64(3)<<58, uint64(5), uint(9), uint8(9))
	tiers := vecTiers128(f)
	mods := barrett128TestMods(f)
	f.Fuzz(func(t *testing.T, seed int64, aHi, aLo, bHi, bLo uint64, nRaw uint, mi uint8) {
		m := mods[int(mi)%len(mods)]
		scalar := NewBarrett128Tier(m, TierScalar)
		n := int(nRaw%32) + 1
		rng := rand.New(rand.NewSource(seed))
		mk := func(l int) []u128.U128 {
			x := make([]u128.U128, l)
			fill128(rng, x, m)
			return x
		}
		lo, hi, w, in := mk(n), mk(n), mk(n), mk(2*n)
		a, b := u128.New(aHi, aLo).Mod(m.Q), u128.New(bHi, bLo).Mod(m.Q)
		lo[0], hi[0], w[0], in[0], in[1] = a, b, b, a, b
		blk := 8 << (nRaw % 3)
		bl, bh, bw, bin := mk(2*blk), mk(2*blk), mk(2), mk(4*blk)
		bl[0], bh[0], bw[0], bin[0], bin[1] = a, b, b, a, b
		for _, tier := range tiers {
			vec := NewBarrett128Tier(m, tier)
			pre := preOf(vec, w)
			outS, outV := make([]u128.U128, 2*n), make([]u128.U128, 2*n)
			loS, loV := make([]u128.U128, n), make([]u128.U128, n)
			hiS, hiV := make([]u128.U128, n), make([]u128.U128, n)

			scalar.CTSpan(outS, lo, hi, w, nil)
			vec.CTSpan(outV, lo, hi, w, pre)
			diff128(t, "CTSpan", outV, outS)
			scalar.GSSpan(loS, hiS, in, w, nil)
			vec.GSSpan(loV, hiV, in, w, pre)
			diff128(t, "GSSpan lo", loV, loS)
			diff128(t, "GSSpan hi", hiV, hiS)
			scalar.MulSpan(outS[:n], lo, hi)
			vec.MulSpan(outV[:n], lo, hi)
			diff128(t, "MulSpan", outV[:n], outS[:n])
			scalar.MulSpan(outS[:n], lo, w)
			vec.MulPreSpan(outV[:n], lo, w, pre)
			diff128(t, "MulPreSpan", outV[:n], outS[:n])
			scalar.ScalarMulSpan(outS[:n], lo, b, u128.Zero)
			vec.ScalarMulSpan(outV[:n], lo, b, vec.Precompute(b))
			diff128(t, "ScalarMulSpan", outV[:n], outS[:n])
			scalar.AddSpan(outS[:n], lo, hi)
			vec.AddSpan(outV[:n], lo, hi)
			diff128(t, "AddSpan", outV[:n], outS[:n])
			scalar.SubSpan(outS[:n], lo, hi)
			vec.SubSpan(outV[:n], lo, hi)
			diff128(t, "SubSpan", outV[:n], outS[:n])
			checkBlocked128(t, scalar, vec, bl, bh, bin, bw, blk)
		}
	})
}

// TestSIMDPlanDifferential128 runs whole 128-bit transforms through plans
// at the scalar tier and each vector tier the host has, in place as ntt
// callers run them, and requires bit identity: twist, every stage (dense,
// and blocked from blk 8 to N/2), the pointwise product, the 1/N landing
// pass and the untwist.
func TestSIMDPlanDifferential128(t *testing.T) {
	tiers := vecTiers128(t)
	for _, bits := range []int{65, 124} {
		for _, n := range []int{16, 64, 4096} {
			q, err := modmath.FindNTTPrime128(bits, uint64(2*n))
			if err != nil {
				t.Fatal(err)
			}
			m := modmath.MustModulus128(q)
			ps := MustPlan[u128.U128](NewBarrett128Tier(m, TierScalar), n)
			rng := rand.New(rand.NewSource(int64(n)))
			a, b := make([]u128.U128, n), make([]u128.U128, n)
			fill128(rng, a, m)
			fill128(rng, b, m)
			for _, tier := range tiers {
				pv := MustPlan[u128.U128](NewBarrett128Tier(m, tier), n)
				if pv.KernelTier() != tier.String() {
					t.Fatalf("%d-bit plan tier = %s, want %s", bits, pv.KernelTier(), tier)
				}
				run := func(name string, op func(p *Plan[u128.U128, Barrett128], x []u128.U128)) {
					t.Helper()
					xs, xv := append([]u128.U128(nil), a...), append([]u128.U128(nil), a...)
					op(ps, xs)
					op(pv, xv)
					diff128(t, tier.String()+" "+name, xv, xs)
				}
				type plan = Plan[u128.U128, Barrett128]
				run("ForwardInto", func(p *plan, x []u128.U128) { p.ForwardInto(x, x) })
				run("InverseInto", func(p *plan, x []u128.U128) { p.InverseInto(x, x) })
				run("PolyMulNegacyclicInto", func(p *plan, x []u128.U128) { p.PolyMulNegacyclicInto(x, x, b) })
				run("NegacyclicForwardInto", func(p *plan, x []u128.U128) { p.NegacyclicForwardInto(x, x) })
				run("NegacyclicInverseInto", func(p *plan, x []u128.U128) { p.NegacyclicInverseInto(x, x) })
				run("ScalarMulInto", func(p *plan, x []u128.U128) { p.ScalarMulInto(x, x, b[1]) })
			}
		}
	}
}
