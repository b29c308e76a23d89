package fhe

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"mqxgo/internal/modmath"
	"mqxgo/internal/rns"
)

// The cross-backend differential harness for homomorphic multiplication:
// the same (keygen, encrypt, relin-keygen, MulCt, decrypt) trace runs
// through the 128-bit oracle backend — exact integer tensor, exact big-int
// rescale — and through the BEHZ RNS backend, and the decrypted plaintexts
// must be bit-identical (and equal to the schoolbook negacyclic product
// mod T). Table-driven over ring degree, tower count, and message
// pattern.

// msgPatterns enumerates the harness's message shapes.
var msgPatterns = []struct {
	name string
	fill func(msg []uint64, t uint64, rng *rand.Rand)
}{
	{"zero", func(msg []uint64, t uint64, rng *rand.Rand) {
		clear(msg)
	}},
	{"max", func(msg []uint64, t uint64, rng *rand.Rand) {
		for i := range msg {
			msg[i] = t - 1
		}
	}},
	{"random", func(msg []uint64, t uint64, rng *rand.Rand) {
		for i := range msg {
			msg[i] = rng.Uint64() % t
		}
	}},
	{"impulse", func(msg []uint64, t uint64, rng *rand.Rand) {
		clear(msg)
		msg[len(msg)/3] = t - 1
	}},
}

// mulTrace runs the full multiply trace on one backend with a seeded RNG
// and returns the decrypted product.
func mulTrace(t *testing.T, b Backend, seed int64, m1, m2 []uint64) []uint64 {
	t.Helper()
	s := NewBackendScheme(b, seed)
	sk := s.KeyGen()
	rlk, rlkErr := s.RelinKeyGen(sk)
	if rlkErr != nil {
		t.Fatal(rlkErr)
	}
	c1, err := s.Encrypt(sk, m1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := s.Encrypt(sk, m2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Decrypt(sk, mustCT(t)(s.MulCiphertextsCtx(context.Background(), c1, c2, rlk)))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestMulCtDifferentialAcrossBackends(t *testing.T) {
	const T = 257
	sizes := []int{64, 1024, 4096}
	if testing.Short() {
		sizes = []int{64, 1024}
	}
	for _, n := range sizes {
		params, err := NewParams(modmath.DefaultModulus128(), n, T)
		if err != nil {
			t.Fatal(err)
		}
		oracle := NewRingBackend(params)
		var rnsBackends []Backend
		for _, k := range []int{2, 3, 4} {
			c, err := rns.NewContext(59, k, n)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := NewRNSBackend(c, T)
			if err != nil {
				t.Fatal(err)
			}
			rnsBackends = append(rnsBackends, rb)
		}
		rng := rand.New(rand.NewSource(int64(n)))
		for _, pat := range msgPatterns {
			t.Run(fmt.Sprintf("n%d/%s", n, pat.name), func(t *testing.T) {
				m1 := make([]uint64, n)
				m2 := make([]uint64, n)
				pat.fill(m1, T, rng)
				pat.fill(m2, T, rng)
				want := NegacyclicProductModT(m1, m2, T)
				ref := mulTrace(t, oracle, 42, m1, m2)
				for i := range want {
					if ref[i] != want[i] {
						t.Fatalf("oracle coeff %d: got %d, want %d", i, ref[i], want[i])
					}
				}
				for _, rb := range rnsBackends {
					got := mulTrace(t, rb, 42, m1, m2)
					for i := range want {
						if got[i] != ref[i] {
							t.Fatalf("%s coeff %d: got %d, oracle %d", rb.Name(), i, got[i], ref[i])
						}
					}
				}
			})
		}
	}
}

// TestMulCtNoiseBudgetProperty pins the scheme's depth behavior to the
// documented bound (MulNoiseBoundBits) instead of folklore: a depth-1
// product of full-amplitude messages round-trips and its measured noise
// respects the bound; a deliberately over-deep squaring chain must
// exhaust the budget and fail decryption, with NoiseBudgetBits reading
// zero at the failure point.
func TestMulCtNoiseBudgetProperty(t *testing.T) {
	const n = 256
	// A large plaintext modulus burns budget fast, so the over-deep
	// failure arrives within a few squarings.
	const T = (1 << 30) + 3
	params, err := NewParams(modmath.DefaultModulus128(), n, T)
	if err != nil {
		t.Fatal(err)
	}
	c, err := rns.NewContext(59, 2, n)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := NewRNSBackend(c, T)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		b         Backend
		digits    int // relin gadget digits
		digitBits int // gadget digit magnitude
		overshoot int // base-conversion operand overshoot (0 oracle, 1 m~)
	}{
		{NewRingBackend(params), (params.Mod.Q.BitLen() + oracleDigitBits - 1) / oracleDigitBits, oracleDigitBits, 0},
		{rb, 2, 59, 1},
	}
	for _, tc := range cases {
		t.Run(tc.b.Name(), func(t *testing.T) {
			s := NewBackendScheme(tc.b, 99)
			sk := s.KeyGen()
			rlk, rlkErr := s.RelinKeyGen(sk)
			if rlkErr != nil {
				t.Fatal(rlkErr)
			}
			rng := rand.New(rand.NewSource(5))
			msg := make([]uint64, n)
			for i := range msg {
				msg[i] = rng.Uint64() % T
			}
			ct, err := s.Encrypt(sk, msg)
			if err != nil {
				t.Fatal(err)
			}
			freshNoise := noiseBitsOf(t, s, sk, ct, msg)
			budget, err := s.NoiseBudgetBits(sk, ct, msg)
			if err != nil {
				t.Fatal(err)
			}
			expected := append([]uint64(nil), msg...)

			// Depth 1: full-amplitude messages must round-trip, and the
			// measured noise must respect the documented bound.
			ct = mustCT(t)(s.MulCiphertextsCtx(context.Background(), ct, ct, rlk))
			expected = NegacyclicProductModT(expected, expected, T)
			got, err := s.Decrypt(sk, ct)
			if err != nil {
				t.Fatal(err)
			}
			for i := range expected {
				if got[i] != expected[i] {
					t.Fatalf("depth-1 coeff %d: got %d, want %d", i, got[i], expected[i])
				}
			}
			bound := MulNoiseBoundBits(n, T, freshNoise, tc.digits, tc.digitBits, tc.overshoot)
			if noise := noiseBitsOf(t, s, sk, ct, expected); noise > bound {
				t.Fatalf("depth-1 noise %d bits exceeds documented bound %d", noise, bound)
			}
			if bound >= tc.b.DeltaBits(0)-1 {
				t.Fatalf("bound %d leaves no depth-1 margin against DeltaBits %d", bound, tc.b.DeltaBits(0))
			}
			after, err := s.NoiseBudgetBits(sk, ct, expected)
			if err != nil {
				t.Fatal(err)
			}
			if after >= budget {
				t.Fatalf("budget did not drop: %d -> %d", budget, after)
			}

			// Over-deep chain: keep squaring; decryption must fail within
			// a few levels, with the budget reading zero when it does.
			failed := false
			for depth := 2; depth <= 6; depth++ {
				ct = mustCT(t)(s.MulCiphertextsCtx(context.Background(), ct, ct, rlk))
				expected = NegacyclicProductModT(expected, expected, T)
				got, err := s.Decrypt(sk, ct)
				if err != nil {
					t.Fatal(err)
				}
				mismatch := false
				for i := range expected {
					if got[i] != expected[i] {
						mismatch = true
						break
					}
				}
				if mismatch {
					b, err := s.NoiseBudgetBits(sk, ct, expected)
					if err != nil {
						t.Fatal(err)
					}
					if b != 0 {
						t.Fatalf("depth-%d decryption failed with %d budget bits left", depth, b)
					}
					failed = true
					break
				}
			}
			if !failed {
				t.Fatal("over-deep chain never exhausted the noise budget")
			}
		})
	}
}

// TestMtildeReclaimsNoiseBoundBits pins down what the m~-corrected base
// conversion (rns.MontBaseConverter) buys: the PR 4 FastBConv extended
// operands carrying up to (k-1)*Q of overshoot, which the noise constant
// had to absorb; with the correction the overshoot factor drops to 1. The
// gap only shows once the tensor term dominates (it scales with the
// operands' accumulated noise), so the property is asserted at depth 2 on
// a k=4 basis: the overshoot=1 bound must sit strictly below the PR 4
// overshoot=k-1 bound, and the measured depth-2 noise must respect the
// TIGHTENED bound — the reclaimed bits are real, not bookkeeping.
func TestMtildeReclaimsNoiseBoundBits(t *testing.T) {
	const n = 256
	const T = (1 << 30) + 3
	const k = 4
	c, err := rns.NewContext(59, k, n)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := NewRNSBackend(c, T)
	if err != nil {
		t.Fatal(err)
	}
	s := NewBackendScheme(rb, 2026)
	sk := s.KeyGen()
	rlk, rlkErr := s.RelinKeyGen(sk)
	if rlkErr != nil {
		t.Fatal(rlkErr)
	}
	rng := rand.New(rand.NewSource(11))
	msg := make([]uint64, n)
	for i := range msg {
		msg[i] = rng.Uint64() % T
	}
	ct, err := s.Encrypt(sk, msg)
	if err != nil {
		t.Fatal(err)
	}
	expected := append([]uint64(nil), msg...)
	ct = mustCT(t)(s.MulCiphertextsCtx(context.Background(), ct, ct, rlk))
	expected = NegacyclicProductModT(expected, expected, T)
	depth1Noise := noiseBitsOf(t, s, sk, ct, expected)
	ct = mustCT(t)(s.MulCiphertextsCtx(context.Background(), ct, ct, rlk))
	expected = NegacyclicProductModT(expected, expected, T)
	depth2Noise := noiseBitsOf(t, s, sk, ct, expected)

	tight := MulNoiseBoundBits(n, T, depth1Noise, k, 59, 1)
	pr4 := MulNoiseBoundBits(n, T, depth1Noise, k, 59, k-1)
	if tight >= pr4 {
		t.Fatalf("m~ correction reclaimed nothing: overshoot=1 bound %d vs overshoot=%d bound %d",
			tight, k-1, pr4)
	}
	if depth2Noise > tight {
		t.Fatalf("measured depth-2 noise %d bits exceeds the tightened bound %d", depth2Noise, tight)
	}
	t.Logf("depth-2 noise %d bits; bound %d (m~) vs %d (PR 4): %d bits reclaimed",
		depth2Noise, tight, pr4, pr4-tight)
}

func noiseBitsOf(t *testing.T, s *BackendScheme, sk BackendSecretKey, ct BackendCiphertext, msg []uint64) int {
	t.Helper()
	nb, err := s.NoiseBits(sk, ct, msg)
	if err != nil {
		t.Fatal(err)
	}
	return nb
}

// TestCanonicalKeySwitchOnWideTowers drives keySwitchAccumulate's
// canonical branch: five 61-bit towers leave no room for five lazy
// Shoup products (each < 2q) in a 64-bit accumulator, so level 0 turns
// relinLazy off. A level-0 multiply must still decrypt to the
// negacyclic product mod t, and a level-0 rotation and conjugation to
// the rotated and row-swapped slot vectors.
func TestCanonicalKeySwitchOnWideTowers(t *testing.T) {
	const n, pt = 64, 257
	c, err := rns.NewContext(61, 5, n)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRNSBackend(c, pt)
	if err != nil {
		t.Fatal(err)
	}
	if b.(*rnsBackend).levels[0].relinLazy {
		t.Fatal("level 0 of five 61-bit towers takes the lazy key-switch path")
	}
	s := NewBackendScheme(b, 61)
	sk := s.KeyGen()
	rlk, err := s.RelinKeyGen(sk)
	if err != nil {
		t.Fatal(err)
	}
	gk, err := s.GaloisKeyGen(sk)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	m1, m2 := make([]uint64, n), make([]uint64, n)
	for i := range m1 {
		m1[i], m2[i] = rng.Uint64()%pt, rng.Uint64()%pt
	}
	c1, err := s.Encrypt(sk, m1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := s.Encrypt(sk, m2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Decrypt(sk, mustCT(t)(s.MulCiphertextsCtx(context.Background(), c1, c2, rlk)))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range NegacyclicProductModT(m1, m2, pt) {
		if got[i] != want {
			t.Fatalf("multiply: coeff %d = %d, want %d", i, got[i], want)
		}
	}

	slots := make([]uint64, n)
	for i := range slots {
		slots[i] = rng.Uint64() % pt
	}
	msg, err := s.EncodeSlots(slots)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := s.Encrypt(sk, msg)
	if err != nil {
		t.Fatal(err)
	}
	rot, err := s.RotateSlotsCtx(context.Background(), ct, 3, gk)
	if err != nil {
		t.Fatal(err)
	}
	conj, err := conjugate(context.Background(), s, ct, gk)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		ct   BackendCiphertext
		want []uint64
	}{{"rotate 3", rot, rotatedModel(slots, 3)}, {"conjugate", conj, conjugatedModel(slots)}} {
		dec, err := s.Decrypt(sk, tc.ct)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.DecodeSlots(dec)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("%s: slot %d = %d, want %d", tc.name, i, got[i], tc.want[i])
			}
		}
	}
}
