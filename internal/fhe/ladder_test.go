package fhe

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"mqxgo/internal/modmath"
	"mqxgo/internal/rns"
	"mqxgo/internal/u128"
)

// The modulus-ladder differential harness: a depth-L squaring chain with
// a ModSwitch after every multiply runs through the 128-bit oracle
// backend (exact big-integer switching) and the RNS backend (Rescaler,
// residues only), and after EVERY DropLevel both decryptions must be
// bit-identical to each other and to the schoolbook plaintext product.

// ladderDepth picks the deepest chain both backends support with
// headroom: the last multiply needs at least two RNS towers, and the
// oracle needs a level whose Delta clears its relin noise.
func ladderDepth(oracle, rnsB Backend) int {
	depth := min(rnsB.Levels()-1, oracle.Levels()-1)
	return min(depth, 3)
}

func TestLadderDifferentialAcrossBackends(t *testing.T) {
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
		for _, k := range []int{3, 4, 5} {
			c, err := rns.NewContext(59, k, n)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := NewRNSBackend(c, T)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(fmt.Sprintf("n%d/k%d", n, k), func(t *testing.T) {
				depth := ladderDepth(oracle, rb)
				rng := rand.New(rand.NewSource(int64(n + k)))
				msg := make([]uint64, n)
				for i := range msg {
					msg[i] = rng.Uint64() % T
				}

				type chain struct {
					s   *BackendScheme
					sk  BackendSecretKey
					rlk BackendRelinKey
					ct  BackendCiphertext
				}
				chains := make([]*chain, 0, 2)
				for _, b := range []Backend{oracle, rb} {
					ch := &chain{s: NewBackendScheme(b, 42)}
					ch.sk = ch.s.KeyGen()
					rk, rkErr := ch.s.RelinKeyGen(ch.sk)
					if rkErr != nil {
						t.Fatal(rkErr)
					}
					ch.rlk = rk
					var err error
					if ch.ct, err = ch.s.Encrypt(ch.sk, msg); err != nil {
						t.Fatal(err)
					}
					chains = append(chains, ch)
				}

				compare := func(stage string, expected []uint64) {
					t.Helper()
					var ref []uint64
					for i, ch := range chains {
						got, err := ch.s.Decrypt(ch.sk, ch.ct)
						if err != nil {
							t.Fatalf("%s: %s decrypt: %v", stage, ch.s.B.Name(), err)
						}
						if i == 0 {
							ref = got
						}
						for j := range expected {
							if got[j] != expected[j] {
								t.Fatalf("%s: %s coeff %d: got %d, want %d",
									stage, ch.s.B.Name(), j, got[j], expected[j])
							}
							if got[j] != ref[j] {
								t.Fatalf("%s: %s coeff %d: %d differs from oracle %d",
									stage, ch.s.B.Name(), j, got[j], ref[j])
							}
						}
					}
				}

				expected := append([]uint64(nil), msg...)
				for level := 0; level < depth; level++ {
					for _, ch := range chains {
						ch.ct = mustCT(ch.s.MulCiphertextsCtx(context.Background(), ch.ct, ch.ct, ch.rlk))
					}
					expected = NegacyclicProductModT(expected, expected, T)
					compare(fmt.Sprintf("after mul at level %d", level), expected)
					for _, ch := range chains {
						ch.ct = mustCT(ch.s.ModSwitchCtx(context.Background(), ch.ct))
						if ch.ct.Level != level+1 {
							t.Fatalf("ModSwitch left %s at level %d, want %d",
								ch.s.B.Name(), ch.ct.Level, level+1)
						}
					}
					compare(fmt.Sprintf("after switch to level %d", level+1), expected)
				}
				for _, ch := range chains {
					budget, err := ch.s.NoiseBudgetBits(ch.sk, ch.ct, expected)
					if err != nil {
						t.Fatal(err)
					}
					if budget <= 0 {
						t.Fatalf("%s: depth-%d ladder ended with budget %d, want > 0",
							ch.s.B.Name(), depth, budget)
					}
				}
			})
		}
	}
}

// TestLadderDepth3BudgetProperty is the provisioning story the ladder
// exists for, as a property test. ModSwitch is budget-neutral in BFV
// (Delta and the noise shrink together), so the ladder cannot create
// headroom the top modulus didn't have — what it changes is the COST of
// that headroom: a k=4 basis switched down between multiplies finishes a
// depth-3 chain paying k=2 prices on the later levels, with positive
// budget at the bottom. With switching disabled you must pick a fixed
// basis instead, and the basis matching the ladder's final budget (k=2,
// the PR 4 single-multiply provisioning) exhausts its budget before
// depth 3: decryption breaks and NoiseBudgetBits reads zero.
func TestLadderDepth3BudgetProperty(t *testing.T) {
	n := 4096
	if testing.Short() {
		n = 1024
	}
	// T is chosen so each multiply burns ~25 budget bits: the fixed k=2
	// basis then dies between depth 2 and depth 3 with ~19 bits of
	// margin, while the ladder's final level keeps ~30 bits.
	const T = 4099
	const depth = 3

	// The ladder: k=4, a switch after every multiply.
	c4, err := rns.NewContext(59, 4, n)
	if err != nil {
		t.Fatal(err)
	}
	rb4, err := NewRNSBackend(c4, T)
	if err != nil {
		t.Fatal(err)
	}
	// Switching disabled: the fixed k=2 basis whose budget matches the
	// ladder's final level.
	c2, err := rns.NewContext(59, 2, n)
	if err != nil {
		t.Fatal(err)
	}
	rb2, err := NewRNSBackend(c2, T)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(777))
	msg := make([]uint64, n)
	for i := range msg {
		msg[i] = rng.Uint64() % T
	}
	expected := append([]uint64(nil), msg...)
	for d := 0; d < depth; d++ {
		expected = NegacyclicProductModT(expected, expected, T)
	}

	runChain := func(b Backend, switching bool) (ct BackendCiphertext, s *BackendScheme, sk BackendSecretKey) {
		s = NewBackendScheme(b, 9)
		sk = s.KeyGen()
		rlk, rlkErr := s.RelinKeyGen(sk)
		if rlkErr != nil {
			t.Fatal(rlkErr)
		}
		ct, err := s.Encrypt(sk, msg)
		if err != nil {
			t.Fatal(err)
		}
		for d := 0; d < depth; d++ {
			ct = mustCT(s.MulCiphertextsCtx(context.Background(), ct, ct, rlk))
			if switching && d < depth-1 {
				ct = mustCT(s.ModSwitchCtx(context.Background(), ct))
			}
		}
		return ct, s, sk
	}

	// With switching: depth 3 lands at level 2 (two towers) with budget
	// to spare and the right plaintext.
	ct, s, sk := runChain(rb4, true)
	if ct.Level != depth-1 {
		t.Fatalf("ladder chain ended at level %d, want %d", ct.Level, depth-1)
	}
	got, err := s.Decrypt(sk, ct)
	if err != nil {
		t.Fatal(err)
	}
	for i := range expected {
		if got[i] != expected[i] {
			t.Fatalf("switched depth-3 chain wrong at coeff %d: got %d, want %d", i, got[i], expected[i])
		}
	}
	budget, err := s.NoiseBudgetBits(sk, ct, expected)
	if err != nil {
		t.Fatal(err)
	}
	if budget <= 0 {
		t.Fatalf("switched depth-3 chain has budget %d, want > 0", budget)
	}

	// Without switching on the matched fixed basis: the same circuit
	// exhausts the budget and decrypts garbage.
	ct2, s2, sk2 := runChain(rb2, false)
	got2, err := s2.Decrypt(sk2, ct2)
	if err != nil {
		t.Fatal(err)
	}
	mismatch := false
	for i := range expected {
		if got2[i] != expected[i] {
			mismatch = true
			break
		}
	}
	if !mismatch {
		t.Fatal("unswitched k=2 depth-3 chain unexpectedly survived")
	}
	budget2, err := s2.NoiseBudgetBits(sk2, ct2, expected)
	if err != nil {
		t.Fatal(err)
	}
	if budget2 != 0 {
		t.Fatalf("unswitched k=2 depth-3 chain failed with budget %d, want 0", budget2)
	}
	t.Logf("depth-3: k=4 ladder budget %d bits at level %d; fixed k=2 budget %d", budget, ct.Level, budget2)
}

// TestOracleRescaleOutOfRangeIsDetected keeps the oracle rescale's range
// detection tested. A centered tensor coefficient beyond the level's
// vBound (2*n*q_l^2) cannot come from reduced operands: it means the wide
// CRT basis wrapped, and scaleRoundInto returns an error instead of
// rescaling garbage. The oracle crosses its operands to coefficient form
// at MulCt entry, and the inverse transform reduces whatever it is fed,
// so no handle — not even one carrying values up to 2^128 — can bring
// such a coefficient to the rescale through the backend seam; the
// detection is driven directly, on both sides of zero. The scheme layer's
// range validation refuses the unreduced handle before the backend sees
// it.
func TestOracleRescaleOutOfRangeIsDetected(t *testing.T) {
	const n, T = 64, 257
	params, err := NewParams(modmath.DefaultModulus128(), n, T)
	if err != nil {
		t.Fatal(err)
	}
	b := NewRingBackend(params)
	rb := b.(*ringBackend)
	lv := rb.levels[0]
	w := rb.wideCtx()
	halfWideQ := new(big.Int).Rsh(w.Q, 1)
	// rescale runs the detection on one tensor component whose coefficient
	// 3 holds v, as the wide basis reconstructs it (in [0, wideQ)).
	rescale := func(v *big.Int) error {
		coeffs := make([]*big.Int, n)
		for i := range coeffs {
			coeffs[i] = new(big.Int)
		}
		coeffs[3].Mod(v, w.Q)
		return rb.scaleRoundInto(lv, make([]u128.U128, n), coeffs, w.Q, halfWideQ)
	}
	over := new(big.Int).Add(lv.vBound, big.NewInt(1))
	for _, v := range []*big.Int{lv.vBound, new(big.Int).Neg(lv.vBound)} {
		if err := rescale(v); err != nil {
			t.Fatalf("tensor coefficient %v at the bound rejected: %v", v, err)
		}
	}
	for _, v := range []*big.Int{over, new(big.Int).Neg(over)} {
		if err := rescale(v); err == nil {
			t.Fatalf("tensor coefficient %v past the bound rescaled without an error", v)
		} else {
			t.Logf("detected (expected): %v", err)
		}
	}

	// Scheme layer: the provenance/range gate rejects an unreduced handle.
	s := NewBackendScheme(b, 5)
	sk := s.KeyGen()
	rlk, rlkErr := s.RelinKeyGen(sk)
	if rlkErr != nil {
		t.Fatal(rlkErr)
	}
	a := make([]u128.U128, n)
	bb := make([]u128.U128, n)
	for i := range a {
		a[i] = u128.New(^uint64(0), uint64(i)*0x9e3779b97f4a7c15)
		bb[i] = u128.New(^uint64(0)>>1, ^uint64(i))
	}
	good, err := s.Encrypt(sk, make([]uint64, n))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.MulCiphertextsCtx(context.Background(), BackendCiphertext{A: a, B: bb}, good, rlk); err == nil {
		t.Fatal("expected scheme-layer validation error for unreduced ciphertext")
	}
}
