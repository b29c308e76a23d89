package ring

import (
	"math/bits"
	"math/rand"
	"strconv"
	"testing"

	"mqxgo/internal/modmath"
	"mqxgo/internal/scratch"
)

// TestNegacyclicForwardMAC2BitIdentity gates the fused
// transform-and-accumulate against the unfused reference — a full
// NegacyclicForwardInto followed by two separate lazy MAC passes — at
// every kernel tier the host can run. Bit identity of the raw 64-bit
// accumulators, not just congruence. The sizes leave an odd number M-1
// of partial forward passes (4, 16, 64, 4096) and an even one (8, 32,
// 2048), so the partial forward lands in both buffers of its pair, and
// none at n = 2.
func TestNegacyclicForwardMAC2BitIdentity(t *testing.T) {
	m := simdMod(t)
	q := m.Q
	for _, n := range []int{2, 4, 8, 16, 32, 64, 2048, 4096} {
		for _, tier := range []KernelTier{TierScalar, TierAVX2, TierAVX512} {
			if tier != TierScalar && DetectKernelTier() < tier {
				continue
			}
			p, err := NewPlan[uint64, Shoup64](NewShoup64Tier(m, tier), n)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(n)))
			x := make([]uint64, n)
			wA := make([]uint64, n)
			preA := make([]uint64, n)
			wB := make([]uint64, n)
			preB := make([]uint64, n)
			fillCanonical(rng, x, q)
			fillTwiddles(rng, m, wA, preA)
			fillTwiddles(rng, m, wB, preB)

			// Reference: materialize the transform, MAC it twice. Seed
			// the accumulators with raw 64-bit values to check the fused
			// path adds onto them rather than overwriting.
			accA := make([]uint64, n)
			accB := make([]uint64, n)
			for j := range accA {
				accA[j] = rng.Uint64() >> 2
				accB[j] = rng.Uint64() >> 2
			}
			refA := append([]uint64(nil), accA...)
			refB := append([]uint64(nil), accB...)
			y := make([]uint64, n)
			p.NegacyclicForwardInto(y, x)
			for j := range y {
				qhat, _ := bits.Mul64(y[j], preA[j])
				refA[j] += y[j]*wA[j] - qhat*q
				qhat, _ = bits.Mul64(y[j], preB[j])
				refB[j] += y[j]*wB[j] - qhat*q
			}

			NegacyclicForwardMAC2(p, accA, accB, x, wA, preA, wB, preB)
			name := tier.String() + "/" + strconv.Itoa(n)
			diffU64(t, name+" accA", accA, refA)
			diffU64(t, name+" accB", accB, refB)
		}
	}
}

// The fused MAC is a hot ladder-path call: it must hold the transform
// paths' 0 allocs/op at every tier the host runs.
func TestNegacyclicForwardMAC2DoesNotAllocate(t *testing.T) {
	if scratch.Race {
		t.Skip("race instrumentation allocates")
	}
	ps, err := modmath.FindNTTPrimes64(59, 512, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := modmath.MustModulus64(ps[0])
	const n = 256
	rng := rand.New(rand.NewSource(5))
	x := make([]uint64, n)
	wA := make([]uint64, n)
	preA := make([]uint64, n)
	wB := make([]uint64, n)
	preB := make([]uint64, n)
	fillCanonical(rng, x, m.Q)
	fillTwiddles(rng, m, wA, preA)
	fillTwiddles(rng, m, wB, preB)
	accA := make([]uint64, n)
	accB := make([]uint64, n)
	for _, tier := range []KernelTier{TierScalar, TierAVX2, TierAVX512} {
		if tier != TierScalar && DetectKernelTier() < tier {
			continue
		}
		p := MustPlan[uint64, Shoup64](NewShoup64Tier(m, tier), n)
		f := func() { NegacyclicForwardMAC2(p, accA, accB, x, wA, preA, wB, preB) }
		f()
		if got := testing.AllocsPerRun(20, f); got != 0 {
			t.Errorf("%s: NegacyclicForwardMAC2: %v allocs/op, want 0", tier, got)
		}
	}
}
