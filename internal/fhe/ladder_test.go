package fhe

import (
	"context"
	"fmt"
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

// TestResidentLadderMatchesCoeffPath is the PR 6 differential gate for
// double-CRT residency: the same squaring-and-switching ladder runs twice
// against ONE backend with ONE key set — one handle left in its natural
// DomainNTT resting state, the other converted to DomainCoeff right after
// encryption and kept there. Every transform on the resident pipeline is
// exact, so after EVERY multiply and EVERY level drop the two handles
// must decrypt bit-identically to each other and to the schoolbook
// product — and, for the RNS backend, converting the resident handle
// back to coefficient form must reproduce the coefficient handle's
// residues bit for bit, not merely decrypt alike.
func TestResidentLadderMatchesCoeffPath(t *testing.T) {
	const T = 257
	sizes := []int{64, 4096}
	if testing.Short() {
		sizes = []int{64, 1024}
	}
	for _, n := range sizes {
		params, err := NewParams(modmath.DefaultModulus128(), n, T)
		if err != nil {
			t.Fatal(err)
		}
		backends := []Backend{NewRingBackend(params)}
		for _, k := range []int{3, 4} {
			c, err := rns.NewContext(59, k, n)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := NewRNSBackend(c, T)
			if err != nil {
				t.Fatal(err)
			}
			backends = append(backends, rb)
		}
		for _, b := range backends {
			b := b
			t.Run(fmt.Sprintf("n%d/%s/lv%d", n, b.Name(), b.Levels()), func(t *testing.T) {
				s := NewBackendScheme(b, 606)
				sk := s.KeyGen()
				rlk, rlkErr := s.RelinKeyGen(sk)
				if rlkErr != nil {
					t.Fatal(rlkErr)
				}
				rng := rand.New(rand.NewSource(int64(3*n + b.Levels())))
				msg := make([]uint64, n)
				for i := range msg {
					msg[i] = rng.Uint64() % T
				}
				res := mustCT(s.Encrypt(sk, msg))
				if res.Domain != DomainNTT {
					t.Fatalf("fresh encryption rests in %s, want %s", res.Domain, DomainNTT)
				}
				coe := mustCT(s.ConvertDomain(res, DomainCoeff))

				dec := func(ct BackendCiphertext) []uint64 {
					t.Helper()
					got, err := s.Decrypt(sk, ct)
					if err != nil {
						t.Fatal(err)
					}
					return got
				}
				check := func(stage string, expected []uint64) {
					t.Helper()
					gotR := dec(res)
					gotC := dec(coe)
					for j := range expected {
						if gotR[j] != expected[j] || gotC[j] != expected[j] {
							t.Fatalf("%s: coeff %d: resident %d, coeff-path %d, want %d",
								stage, j, gotR[j], gotC[j], expected[j])
						}
					}
					if _, isRNS := s.B.(*rnsBackend); !isRNS {
						return
					}
					// Residue-level identity, stronger than matching
					// decryptions: the resident handle crossed back into
					// coefficient form must BE the coefficient handle.
					down := mustCT(s.ConvertDomain(res, DomainCoeff))
					for name, pair := range map[string][2]Poly{
						"A": {down.A, coe.A}, "B": {down.B, coe.B},
					} {
						dp, cp := pair[0].(rns.Poly), pair[1].(rns.Poly)
						for tau := range cp.Res {
							for j := range cp.Res[tau] {
								if dp.Res[tau][j] != cp.Res[tau][j] {
									t.Fatalf("%s: component %s tower %d coeff %d: resident-converted %d != coeff-path %d",
										stage, name, tau, j, dp.Res[tau][j], cp.Res[tau][j])
								}
							}
						}
					}
				}

				expected := append([]uint64(nil), msg...)
				check("fresh", expected)
				depth := min(b.Levels()-1, 3)
				for level := 0; level < depth; level++ {
					res = mustCT(s.MulCiphertextsCtx(context.Background(), res, res, rlk))
					coe = mustCT(s.MulCiphertextsCtx(context.Background(), coe, coe, rlk))
					if res.Domain != DomainNTT || coe.Domain != DomainCoeff {
						t.Fatalf("multiply at level %d moved a handle: resident now %s, coeff-path now %s",
							level, res.Domain, coe.Domain)
					}
					expected = NegacyclicProductModT(expected, expected, T)
					check(fmt.Sprintf("after mul at level %d", level), expected)
					res = mustCT(s.ModSwitchCtx(context.Background(), res))
					coe = mustCT(s.ModSwitchCtx(context.Background(), coe))
					if res.Domain != DomainNTT || coe.Domain != DomainCoeff {
						t.Fatalf("drop to level %d moved a handle: resident now %s, coeff-path now %s",
							level+1, res.Domain, coe.Domain)
					}
					check(fmt.Sprintf("after drop to level %d", level+1), expected)
				}
			})
		}
	}
}

// TestOracleRescaleOutOfRangeIsDetected drives the once-unreachable
// "oracle rescale out of range" panic path with an adversarial ciphertext
// whose coefficients are NOT reduced modulo q (over-noisy in the most
// literal sense: the handle carries values up to 2^128). The tensor then
// overflows the oracle's wide CRT basis; since PR 5 the condition is
// detected and returned as an error from MulCt — and the scheme layer's
// range validation refuses the handle before it even gets there.
func TestOracleRescaleOutOfRangeIsDetected(t *testing.T) {
	const n, T = 64, 257
	params, err := NewParams(modmath.DefaultModulus128(), n, T)
	if err != nil {
		t.Fatal(err)
	}
	b := NewRingBackend(params)
	s := NewBackendScheme(b, 5)
	sk := s.KeyGen()
	rlk, rlkErr := s.RelinKeyGen(sk)
	if rlkErr != nil {
		t.Fatal(rlkErr)
	}

	evil := func() BackendCiphertext {
		a := make([]u128.U128, n)
		bb := make([]u128.U128, n)
		for i := range a {
			a[i] = u128.New(^uint64(0), uint64(i)*0x9e3779b97f4a7c15)
			bb[i] = u128.New(^uint64(0)>>1, ^uint64(i))
		}
		return BackendCiphertext{A: a, B: bb}
	}

	// Backend seam: the rescale detection fires instead of a panic.
	dst := BackendCiphertext{A: b.NewPoly(), B: b.NewPoly()}
	if err := b.MulCtCtx(context.Background(), &dst, evil(), evil(), rlk); err == nil {
		t.Fatal("expected oracle rescale range error for unreduced ciphertext")
	} else {
		t.Logf("backend error (expected): %v", err)
	}

	// Scheme layer: the provenance/range gate rejects the handle first.
	good, err := s.Encrypt(sk, make([]uint64, n))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.MulCiphertextsCtx(context.Background(), evil(), good, rlk); err == nil {
		t.Fatal("expected scheme-layer validation error for unreduced ciphertext")
	}
}
