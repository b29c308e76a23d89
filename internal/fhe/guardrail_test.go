package fhe

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"mqxgo/internal/modmath"
	"mqxgo/internal/rns"
)

// TestGuardrailPredictionsAreConservative pins the serving guardrail's
// noise model against the secret-key measurements on both backends: at
// every step (fresh, depth-1 multiply, modulus switch) the predicted
// noise bound must be at least the measured noise and the predicted
// budget at most the measured budget — the guardrail may refuse early,
// never late. Runs at both the legacy T=257 and the packed-friendly
// T=40961 — the larger plaintext modulus is where the modswitch Delta
// misalignment term (~T per coefficient) outgrows the rounding floor and
// caught the predictor being a bit optimistic.
func TestGuardrailPredictionsAreConservative(t *testing.T) {
	for _, T := range []uint64{257, 40961} {
		t.Run(fmt.Sprintf("T=%d", T), func(t *testing.T) { testGuardrailConservative(t, T) })
	}
}

func testGuardrailConservative(t *testing.T, T uint64) {
	const n = 256
	backends := map[string]Backend{}
	c, err := rns.NewContext(59, 2, n)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := NewRNSBackend(c, T)
	if err != nil {
		t.Fatal(err)
	}
	backends["rns"] = rb
	p, err := NewParams(modmath.DefaultModulus128(), n, T)
	if err != nil {
		t.Fatal(err)
	}
	backends["oracle"] = NewRingBackend(p)

	for name, b := range backends {
		t.Run(name, func(t *testing.T) {
			s := NewBackendScheme(b, 555)
			sk := s.KeyGen()
			rlk, err := s.RelinKeyGen(sk)
			if err != nil {
				t.Fatal(err)
			}
			msg := make([]uint64, n)
			for i := range msg {
				msg[i] = uint64(11*i+3) % T
			}
			ct, err := s.Encrypt(sk, msg)
			if err != nil {
				t.Fatal(err)
			}

			// Fresh: measured noise within the FreshNoiseBits bound,
			// predicted budget within the measured budget.
			freshNoise, err := s.NoiseBits(sk, ct, msg)
			if err != nil {
				t.Fatal(err)
			}
			if freshNoise > FreshNoiseBits {
				t.Fatalf("fresh noise %d bits exceeds FreshNoiseBits %d", freshNoise, FreshNoiseBits)
			}
			freshBudget, err := s.NoiseBudgetBits(sk, ct, msg)
			if err != nil {
				t.Fatal(err)
			}
			if pred := s.PredictedBudgetBits(0, FreshNoiseBits); pred > freshBudget {
				t.Fatalf("fresh predicted budget %d > measured %d", pred, freshBudget)
			}

			// Depth-1 multiply through the tracked bound.
			ct2, err := s.Encrypt(sk, msg)
			if err != nil {
				t.Fatal(err)
			}
			prod, err := s.MulCiphertextsCtx(context.Background(), ct, ct2, rlk)
			if err != nil {
				t.Fatal(err)
			}
			want := NegacyclicProductModT(msg, msg, T)
			predNoise := s.PredictMulNoiseBits(0, FreshNoiseBits)
			mulNoise, err := s.NoiseBits(sk, prod, want)
			if err != nil {
				t.Fatal(err)
			}
			if mulNoise > predNoise {
				t.Fatalf("depth-1 measured noise %d > predicted bound %d", mulNoise, predNoise)
			}
			mulBudget, err := s.NoiseBudgetBits(sk, prod, want)
			if err != nil {
				t.Fatal(err)
			}
			if pred := s.PredictedBudgetBits(0, predNoise); pred > mulBudget {
				t.Fatalf("depth-1 predicted budget %d > measured %d", pred, mulBudget)
			}

			// Modulus switch: the bound divides down with the modulus.
			low, err := s.ModSwitchCtx(context.Background(), prod)
			if err != nil {
				t.Fatal(err)
			}
			predLow := s.PredictModSwitchNoiseBits(0, predNoise)
			lowNoise, err := s.NoiseBits(sk, low, want)
			if err != nil {
				t.Fatal(err)
			}
			if lowNoise > predLow {
				t.Fatalf("post-switch measured noise %d > predicted bound %d", lowNoise, predLow)
			}
			lowBudget, err := s.NoiseBudgetBits(sk, low, want)
			if err != nil {
				t.Fatal(err)
			}
			if pred := s.PredictedBudgetBits(1, predLow); pred > lowBudget {
				t.Fatalf("post-switch predicted budget %d > measured %d", pred, lowBudget)
			}

			// Rotation: the predictor's key-switch hop chain must cover
			// the measured noise too. Only meaningful at a packed-friendly
			// T, where slot semantics give us the expected plaintext.
			if _, encErr := s.SlotEncoder(); encErr == nil {
				gk, err := s.GaloisKeyGen(sk)
				if err != nil {
					t.Fatal(err)
				}
				const steps = 3
				rot, err := s.RotateSlotsCtx(context.Background(), prod, steps, gk)
				if err != nil {
					t.Fatal(err)
				}
				slots, err := s.DecodeSlots(want)
				if err != nil {
					t.Fatal(err)
				}
				rotWant, err := s.EncodeSlots(rotatedModel(slots, steps))
				if err != nil {
					t.Fatal(err)
				}
				predRot := s.PredictRotateNoiseBits(0, predNoise, steps)
				rotNoise, err := s.NoiseBits(sk, rot, rotWant)
				if err != nil {
					t.Fatal(err)
				}
				if rotNoise > predRot {
					t.Fatalf("rotate measured noise %d > predicted bound %d", rotNoise, predRot)
				}
			}
		})
	}
}

// TestSecretKeyHandleValidation: every scheme entry point taking a secret
// key must reject nil and foreign handles, and keys missing their
// evaluation form, with an error — a serving
// process holding many tenants' keys cannot afford a panic (or worse, a
// silent wrong answer) when a handle is routed to the wrong backend.
func TestSecretKeyHandleValidation(t *testing.T) {
	const n, T = 256, 257
	c, err := rns.NewContext(59, 2, n)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := NewRNSBackend(c, T)
	if err != nil {
		t.Fatal(err)
	}
	s := NewBackendScheme(rb, 777)
	sk := s.KeyGen()
	msg := make([]uint64, n)
	ct, err := s.Encrypt(sk, msg)
	if err != nil {
		t.Fatal(err)
	}

	p, err := NewParams(modmath.DefaultModulus128(), n, T)
	if err != nil {
		t.Fatal(err)
	}
	foreignScheme := NewBackendScheme(NewRingBackend(p), 778)
	foreign := foreignScheme.KeyGen()

	for name, bad := range map[string]BackendSecretKey{
		"nil":     {},
		"foreign": foreign,
		// S alone, without the evaluation form KeyGen derives from it.
		"noEvalForm": {S: sk.S},
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := s.Encrypt(bad, msg); err == nil {
				t.Error("Encrypt accepted a bad secret key")
			}
			if _, err := s.Decrypt(bad, ct); err == nil {
				t.Error("Decrypt accepted a bad secret key")
			}
			if _, err := s.RelinKeyGen(bad); err == nil {
				t.Error("RelinKeyGen accepted a bad secret key")
			}
			if _, err := s.NoiseBits(bad, ct, msg); err == nil {
				t.Error("NoiseBits accepted a bad secret key")
			}
			if _, err := s.NoiseBudgetBits(bad, ct, msg); err == nil {
				t.Error("NoiseBudgetBits accepted a bad secret key")
			}
		})
	}

	// The error should say what went wrong, not just that something did.
	_, err = s.Decrypt(foreign, ct)
	if err == nil || !strings.Contains(err.Error(), "secret key") {
		t.Errorf("foreign-key error %q does not mention the secret key", err)
	}
}
