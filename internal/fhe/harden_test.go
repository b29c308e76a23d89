package fhe

import (
	"context"
	"strings"
	"testing"

	"mqxgo/internal/modmath"
	"mqxgo/internal/rns"
	"mqxgo/internal/u128"
)

// The hardening pass's regression suite: every public scheme-layer entry
// point must return an error — never panic — on malformed input: handles
// from the other backend, nil components, truncated shapes, unreduced
// residues, out-of-range or mismatched levels, foreign relinearization
// keys, and switching off the bottom of the chain.

// errNotPanic runs f, converts any panic into a test failure, and asserts
// f reported an error.
func errNotPanic(t *testing.T, name string, f func() error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("%s: panicked instead of returning an error: %v", name, r)
		}
	}()
	if err := f(); err == nil {
		t.Errorf("%s: expected an error for malformed input", name)
	} else if !strings.HasPrefix(err.Error(), "fhe:") {
		t.Errorf("%s: error %q does not carry the fhe: prefix", name, err)
	}
}

func TestSchemeLayerRejectsMalformedInput(t *testing.T) {
	const n, T = 32, 257
	params, err := NewParams(modmath.DefaultModulus128(), n, T)
	if err != nil {
		t.Fatal(err)
	}
	ringB := NewRingBackend(params)
	c, err := rns.NewContext(59, 3, n)
	if err != nil {
		t.Fatal(err)
	}
	rnsB, err := NewRNSBackend(c, T)
	if err != nil {
		t.Fatal(err)
	}

	schemes := map[string]*BackendScheme{
		ringB.Name(): NewBackendScheme(ringB, 31),
		rnsB.Name():  NewBackendScheme(rnsB, 31),
	}
	keys := map[string]BackendSecretKey{}
	relin := map[string]BackendRelinKey{}
	good := map[string]BackendCiphertext{}
	msg := make([]uint64, n)
	for name, s := range schemes {
		keys[name] = s.KeyGen()
		rk, rkErr := s.RelinKeyGen(keys[name])
		if rkErr != nil {
			t.Fatal(rkErr)
		}
		relin[name] = rk
		ct, err := s.Encrypt(keys[name], msg)
		if err != nil {
			t.Fatal(err)
		}
		good[name] = ct
	}
	otherOf := map[string]string{ringB.Name(): rnsB.Name(), rnsB.Name(): ringB.Name()}

	for name, s := range schemes {
		s := s
		sk, rlk, ok := keys[name], relin[name], good[name]
		foreign := good[otherOf[name]]
		foreignKey := relin[otherOf[name]]
		t.Run(name, func(t *testing.T) {
			// Cross-backend ciphertext mixing at every entry point.
			errNotPanic(t, "Decrypt/foreign", func() error {
				_, err := s.Decrypt(sk, foreign)
				return err
			})
			errNotPanic(t, "AddCiphertexts/foreign", func() error {
				_, err := s.AddCiphertexts(ok, foreign)
				return err
			})
			errNotPanic(t, "MulCiphertexts/foreign", func() error {
				_, err := s.MulCiphertextsCtx(context.Background(), ok, foreign, rlk)
				return err
			})
			errNotPanic(t, "ModSwitch/foreign", func() error {
				_, err := s.ModSwitchCtx(context.Background(), foreign)
				return err
			})
			// Foreign relinearization key.
			errNotPanic(t, "MulCiphertexts/foreignKey", func() error {
				_, err := s.MulCiphertextsCtx(context.Background(), ok, ok, foreignKey)
				return err
			})
			// A key of the RIGHT type from a DIFFERENT backend instance:
			// it passes the type assertion, so the shape validation has
			// to catch it before the digit loop indexes out of range.
			errNotPanic(t, "MulCiphertexts/sameTypeOtherBackendKey", func() error {
				var otherB Backend
				switch s.B.(type) {
				case *rnsBackend:
					c2, err := rns.NewContext(59, 2, n)
					if err != nil {
						return err
					}
					if otherB, err = NewRNSBackend(c2, 257); err != nil {
						return err
					}
				default:
					p2, err := NewParams(modmath.DefaultModulus128(), 2*n, 257)
					if err != nil {
						return err
					}
					otherB = NewRingBackend(p2)
				}
				os := NewBackendScheme(otherB, 3)
				otherKey, keyErr := os.RelinKeyGen(os.KeyGen())
				if keyErr != nil {
					return keyErr
				}
				_, err := s.MulCiphertextsCtx(context.Background(), ok, ok, otherKey)
				return err
			})
			// Nil components.
			errNotPanic(t, "Decrypt/nil", func() error {
				_, err := s.Decrypt(sk, BackendCiphertext{})
				return err
			})
			errNotPanic(t, "ModSwitch/nil", func() error {
				_, err := s.ModSwitchCtx(context.Background(), BackendCiphertext{A: ok.A})
				return err
			})
			// Levels outside the chain.
			errNotPanic(t, "Decrypt/negativeLevel", func() error {
				_, err := s.Decrypt(sk, BackendCiphertext{A: ok.A, B: ok.B, Level: -1})
				return err
			})
			errNotPanic(t, "Decrypt/hugeLevel", func() error {
				_, err := s.Decrypt(sk, BackendCiphertext{A: ok.A, B: ok.B, Level: 99})
				return err
			})
			// Mismatched operand levels.
			errNotPanic(t, "AddCiphertexts/levelMismatch", func() error {
				down, err := s.ModSwitchCtx(context.Background(), ok)
				if err != nil {
					return err
				}
				_, err = s.AddCiphertexts(ok, down)
				return err
			})
			// Level-tagged handle whose shape belongs to another level.
			errNotPanic(t, "Decrypt/levelShapeLie", func() error {
				_, err := s.Decrypt(sk, BackendCiphertext{A: ok.A, B: ok.B, Level: 1})
				return err
			})
			// Switching off the bottom of the chain.
			errNotPanic(t, "ModSwitch/bottom", func() error {
				ct := ok
				var err error
				for ct.Level < s.B.Levels()-1 {
					if ct, err = s.ModSwitchCtx(context.Background(), ct); err != nil {
						return nil // unexpected, surfaced below by level check
					}
				}
				_, err = s.ModSwitchCtx(context.Background(), ct)
				return err
			})
			// Foreign plaintext polynomial.
			errNotPanic(t, "MulPlain/foreignPlain", func() error {
				_, err := s.MulPlain(ok, foreign.A)
				return err
			})
			// The plaintext and diagnostic calls validate their ciphertext
			// operand like the evaluation calls do.
			truncated, unreduced := corrupted(s, ok)
			for kind, bad := range map[string]BackendCiphertext{
				"foreign": foreign, "truncated": truncated, "unreduced": unreduced,
			} {
				errNotPanic(t, "MulPlain/"+kind, func() error {
					_, err := s.MulPlain(bad, s.B.NewPolyAt(0))
					return err
				})
				errNotPanic(t, "AddPlain/"+kind, func() error {
					_, err := s.AddPlain(bad, msg)
					return err
				})
				errNotPanic(t, "NoiseBits/"+kind, func() error {
					_, err := s.NoiseBits(sk, bad, msg)
					return err
				})
			}
			// In-place calls: a destination whose level tag disagrees
			// with the result is refused before any component is unpacked.
			errNotPanic(t, "MulCt/dstLevelMismatch", func() error {
				dst := BackendCiphertext{A: s.B.NewPolyAt(1), B: s.B.NewPolyAt(1), Level: 1}
				return s.MulCiphertextsInto(context.Background(), &dst, ok, ok, rlk)
			})
			errNotPanic(t, "ModSwitch/dstLevelMismatch", func() error {
				dst := BackendCiphertext{A: s.B.NewPolyAt(0), B: s.B.NewPolyAt(0)}
				return s.ModSwitchInto(context.Background(), &dst, ok)
			})
			errNotPanic(t, "AddCt/dstLevelMismatch", func() error {
				dst := BackendCiphertext{A: s.B.NewPolyAt(1), B: s.B.NewPolyAt(1), Level: 1}
				return s.AddCiphertextsInto(context.Background(), &dst, ok, ok)
			})
			// A destination of another backend's handles, tagged with the
			// right level, is refused by the backend's own check.
			errNotPanic(t, "AddCt/foreignDst", func() error {
				dst := BackendCiphertext{A: foreign.A, B: foreign.B}
				return s.AddCiphertextsInto(context.Background(), &dst, ok, ok)
			})
			errNotPanic(t, "AddCt/foreignOperand", func() error {
				dst := BackendCiphertext{A: s.B.NewPolyAt(0), B: s.B.NewPolyAt(0)}
				return s.AddCiphertextsInto(context.Background(), &dst, ok, foreign)
			})
		})
	}

	// Shape corruption, per backend representation.
	t.Run("u128/truncated", func(t *testing.T) {
		s := schemes[ringB.Name()]
		ok := good[ringB.Name()]
		errNotPanic(t, "Decrypt/truncated", func() error {
			_, err := s.Decrypt(keys[ringB.Name()],
				BackendCiphertext{A: ok.A.([]u128.U128)[:n-1], B: ok.B})
			return err
		})
	})
	t.Run("rns/missingTower", func(t *testing.T) {
		s := schemes[rnsB.Name()]
		ok := good[rnsB.Name()]
		errNotPanic(t, "Decrypt/missingTower", func() error {
			short := rns.Poly{Res: ok.A.(rns.Poly).Res[:1]}
			_, err := s.Decrypt(keys[rnsB.Name()], BackendCiphertext{A: short, B: ok.B})
			return err
		})
	})
}

// corrupted returns two malformed copies of ct in its backend's handle
// type: one with the A component a coefficient short, one with A's first
// residue set to the modulus.
func corrupted(s *BackendScheme, ct BackendCiphertext) (truncated, unreduced BackendCiphertext) {
	truncated, unreduced = ct, ct
	unreduced.A = s.B.Copy(ct.A)
	switch b := s.B.(type) {
	case *ringBackend:
		a := ct.A.([]u128.U128)
		truncated.A = a[:len(a)-1]
		unreduced.A.([]u128.U128)[0] = b.levels[ct.Level].mod.Q
	case *rnsBackend:
		res := append([][]uint64(nil), ct.A.(rns.Poly).Res...)
		res[0] = res[0][:len(res[0])-1]
		truncated.A = rns.Poly{Res: res}
		unreduced.A.(rns.Poly).Res[0][0] = b.levels[ct.Level].c.Mods[0].Q
	}
	return truncated, unreduced
}

// TestGaloisCallsRejectMalformedInput extends the hardening gate to the
// rotation seam: foreign ciphertexts and Galois keys, keys of the right
// type from a differently-shaped backend instance, nil keys, destination
// level tags that disagree with the source, and destinations
// aliasing the source must all be refused with an error — never a panic
// or a silently wrong permutation.
func TestGaloisCallsRejectMalformedInput(t *testing.T) {
	const n, T = 32, 257
	params, err := NewParams(modmath.DefaultModulus128(), n, T)
	if err != nil {
		t.Fatal(err)
	}
	ringB := NewRingBackend(params)
	c, err := rns.NewContext(59, 3, n)
	if err != nil {
		t.Fatal(err)
	}
	rnsB, err := NewRNSBackend(c, T)
	if err != nil {
		t.Fatal(err)
	}

	schemes := map[string]*BackendScheme{
		ringB.Name(): NewBackendScheme(ringB, 41),
		rnsB.Name():  NewBackendScheme(rnsB, 41),
	}
	galois := map[string]BackendGaloisKey{}
	good := map[string]BackendCiphertext{}
	for name, s := range schemes {
		sk := s.KeyGen()
		gk, gkErr := s.GaloisKeyGen(sk)
		if gkErr != nil {
			t.Fatal(gkErr)
		}
		galois[name] = gk
		ct, err := s.Encrypt(sk, make([]uint64, n))
		if err != nil {
			t.Fatal(err)
		}
		good[name] = ct
	}
	otherOf := map[string]string{ringB.Name(): rnsB.Name(), rnsB.Name(): ringB.Name()}

	for name, s := range schemes {
		s := s
		ok, gk := good[name], galois[name]
		foreign := good[otherOf[name]]
		foreignKey := galois[otherOf[name]]
		t.Run(name, func(t *testing.T) {
			errNotPanic(t, "RotateSlots/foreignCt", func() error {
				_, err := s.RotateSlotsCtx(context.Background(), foreign, 1, gk)
				return err
			})
			errNotPanic(t, "RotateSlots/foreignKey", func() error {
				_, err := s.RotateSlotsCtx(context.Background(), ok, 1, foreignKey)
				return err
			})
			errNotPanic(t, "Conjugate/nilKey", func() error {
				_, err := conjugate(context.Background(), s, ok, nil)
				return err
			})
			// A key of the RIGHT type from a backend with a different ring
			// degree: it passes the type assertion, so the shape check has
			// to catch it before the permutation tables index out of range.
			errNotPanic(t, "RotateSlots/sameTypeOtherBackendKey", func() error {
				var otherB Backend
				switch s.B.(type) {
				case *rnsBackend:
					c2, err := rns.NewContext(59, 2, 2*n)
					if err != nil {
						return err
					}
					if otherB, err = NewRNSBackend(c2, T); err != nil {
						return err
					}
				default:
					p2, err := NewParams(modmath.DefaultModulus128(), 2*n, T)
					if err != nil {
						return err
					}
					otherB = NewRingBackend(p2)
				}
				os := NewBackendScheme(otherB, 43)
				otherKey, keyErr := os.GaloisKeyGen(os.KeyGen())
				if keyErr != nil {
					return keyErr
				}
				_, err := s.RotateSlotsCtx(context.Background(), ok, 1, otherKey)
				return err
			})
			errNotPanic(t, "RotateSlots/nilCt", func() error {
				_, err := s.RotateSlotsCtx(context.Background(), BackendCiphertext{}, 1, gk)
				return err
			})
			errNotPanic(t, "RotateSlots/hugeLevel", func() error {
				_, err := s.RotateSlotsCtx(context.Background(), BackendCiphertext{A: ok.A, B: ok.B, Level: 99}, 1, gk)
				return err
			})

			// In-place calls: destination tags that disagree with the
			// source.
			b := s.B
			errNotPanic(t, "RotateSlots/dstLevelMismatch", func() error {
				dst := BackendCiphertext{A: b.NewPolyAt(1), B: b.NewPolyAt(1), Level: 1}
				return s.RotateSlotsInto(context.Background(), &dst, ok, 1, gk)
			})
			errNotPanic(t, "Conjugate/dstLevelMismatch", func() error {
				dst := BackendCiphertext{A: b.NewPolyAt(1), B: b.NewPolyAt(1), Level: 1}
				return s.ConjugateInto(context.Background(), &dst, ok, gk)
			})
			// The permutation writes tau(B) straight into dst: a destination
			// sharing storage with the source — whole, or one component
			// crossed onto the other — would come back silently wrong.
			errNotPanic(t, "RotateSlots/dstAliasesSource", func() error {
				dst := ok
				return s.RotateSlotsInto(context.Background(), &dst, ok, 1, gk)
			})
			errNotPanic(t, "Conjugate/dstComponentAliasesSource", func() error {
				dst := BackendCiphertext{A: b.NewPolyAt(0), B: ok.A}
				return s.ConjugateInto(context.Background(), &dst, ok, gk)
			})
		})
	}
}

// TestSchemeLayerRejectsUnreducedResidues covers the value-range half of
// the gate: handles with coefficients at or above the (level) modulus are
// adversarial inputs — on the oracle they are exactly what used to reach
// the rescale panic — and both backends must refuse them up front.
func TestSchemeLayerRejectsUnreducedResidues(t *testing.T) {
	const n, T = 32, 257
	params, err := NewParams(modmath.DefaultModulus128(), n, T)
	if err != nil {
		t.Fatal(err)
	}
	ringB := NewRingBackend(params)
	c, err := rns.NewContext(59, 2, n)
	if err != nil {
		t.Fatal(err)
	}
	rnsB, err := NewRNSBackend(c, T)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []Backend{ringB, rnsB} {
		t.Run(b.Name(), func(t *testing.T) {
			s := NewBackendScheme(b, 17)
			sk := s.KeyGen()
			ct, err := s.Encrypt(sk, make([]uint64, n))
			if err != nil {
				t.Fatal(err)
			}
			// Corrupt one residue past the modulus through the backend's
			// own representation.
			bad := BackendCiphertext{A: b.Copy(ct.A), B: b.Copy(ct.B)}
			switch p := bad.A.(type) {
			case rns.Poly:
				p.Res[0][3] = c.Mods[0].Q // == q_0: not a reduced residue
			case []u128.U128:
				p[3] = params.Mod.Q // == q: not a reduced residue
			default:
				t.Fatalf("unexpected handle type %T", bad.A)
			}
			errNotPanic(t, "Decrypt/unreduced", func() error {
				_, err := s.Decrypt(sk, bad)
				return err
			})
		})
	}
}
