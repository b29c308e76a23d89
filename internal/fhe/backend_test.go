package fhe

import (
	"context"
	"slices"
	"testing"

	"mqxgo/internal/modmath"
	"mqxgo/internal/rns"
)

// The backend seam's acceptance test: the identical BackendScheme logic
// must run end to end on both of the paper's hardware philosophies — the
// 128-bit double-word ring and a basis of 64-bit RNS towers.

// mustCT unwraps an error-returning scheme entry point in tests where the
// inputs are well-formed by construction.
func mustCT(ct BackendCiphertext, err error) BackendCiphertext {
	if err != nil {
		panic(err)
	}
	return ct
}

// conjugate is ConjugateInto into a fresh ciphertext at ct's level.
func conjugate(ctx context.Context, s *BackendScheme, ct BackendCiphertext, gk BackendGaloisKey) (BackendCiphertext, error) {
	out := BackendCiphertext{A: s.B.NewPolyAt(ct.Level), B: s.B.NewPolyAt(ct.Level), Level: ct.Level}
	return out, s.ConjugateInto(ctx, &out, ct, gk)
}

func testBackends(t *testing.T, n int) []Backend {
	t.Helper()
	p, err := NewParams(modmath.DefaultModulus128(), n, 257)
	if err != nil {
		t.Fatal(err)
	}
	c, err := rns.NewContext(59, 3, n)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := NewRNSBackend(c, 257)
	if err != nil {
		t.Fatal(err)
	}
	return []Backend{NewRingBackend(p), rb}
}

func TestBackendSchemeRoundTripBothBackends(t *testing.T) {
	const n = 64
	for _, b := range testBackends(t, n) {
		t.Run(b.Name(), func(t *testing.T) {
			s := NewBackendScheme(b, 12345)
			sk := s.KeyGen()
			msg := make([]uint64, n)
			for i := range msg {
				msg[i] = uint64(i*7) % b.PlainModulus()
			}
			ct, err := s.Encrypt(sk, msg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.Decrypt(sk, ct)
			if err != nil {
				t.Fatal(err)
			}
			for i := range msg {
				if got[i] != msg[i] {
					t.Fatalf("coeff %d: got %d, want %d", i, got[i], msg[i])
				}
			}
		})
	}
}

func TestBackendSchemeHomomorphicOpsBothBackends(t *testing.T) {
	const n = 32
	for _, b := range testBackends(t, n) {
		t.Run(b.Name(), func(t *testing.T) {
			s := NewBackendScheme(b, 777)
			tt := b.PlainModulus()
			sk := s.KeyGen()
			m1 := make([]uint64, n)
			m2 := make([]uint64, n)
			for i := range m1 {
				m1[i] = uint64(i) % tt
				m2[i] = uint64(3*i+1) % tt
			}
			c1, err := s.Encrypt(sk, m1)
			if err != nil {
				t.Fatal(err)
			}
			c2, err := s.Encrypt(sk, m2)
			if err != nil {
				t.Fatal(err)
			}

			sum, err := s.Decrypt(sk, mustCT(s.AddCiphertexts(c1, c2)))
			if err != nil {
				t.Fatal(err)
			}
			plainSum, err := s.AddPlain(c1, m2)
			if err != nil {
				t.Fatal(err)
			}
			padded, err := s.Decrypt(sk, plainSum)
			if err != nil {
				t.Fatal(err)
			}
			for i := range m1 {
				if sum[i] != (m1[i]+m2[i])%tt {
					t.Fatalf("add coeff %d: got %d", i, sum[i])
				}
				if padded[i] != (m1[i]+m2[i])%tt {
					t.Fatalf("addplain coeff %d: got %d", i, padded[i])
				}
			}
		})
	}
}

func TestBackendSchemeMulPlainMonomialBothBackends(t *testing.T) {
	const n = 16
	for _, b := range testBackends(t, n) {
		t.Run(b.Name(), func(t *testing.T) {
			s := NewBackendScheme(b, 4242)
			tt := b.PlainModulus()
			sk := s.KeyGen()
			msg := make([]uint64, n)
			for i := range msg {
				msg[i] = uint64(i + 1)
			}
			ct, err := s.Encrypt(sk, msg)
			if err != nil {
				t.Fatal(err)
			}
			// The monomial x as a backend polynomial.
			mono := make([]int64, n)
			mono[1] = 1
			x := b.NewPolyAt(0)
			b.SetSigned(x, mono)
			got, err := s.Decrypt(sk, mustCT(s.MulPlain(ct, x)))
			if err != nil {
				t.Fatal(err)
			}
			// (x * m)(x): coefficient j of the product is m[j-1];
			// coefficient 0 is -m[n-1] mod T.
			if got[0] != (tt-msg[n-1])%tt {
				t.Fatalf("coeff 0: got %d, want %d", got[0], (tt-msg[n-1])%tt)
			}
			for j := 1; j < n; j++ {
				if got[j] != msg[j-1] {
					t.Fatalf("coeff %d: got %d, want %d", j, got[j], msg[j-1])
				}
			}
		})
	}
}

func TestBackendSchemeNoiseBudgetBothBackends(t *testing.T) {
	const n = 16
	for _, b := range testBackends(t, n) {
		t.Run(b.Name(), func(t *testing.T) {
			s := NewBackendScheme(b, 99)
			sk := s.KeyGen()
			m := make([]uint64, n)
			ct, err := s.Encrypt(sk, m)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := s.NoiseBudgetBits(sk, ct, m)
			if err != nil {
				t.Fatal(err)
			}
			if fresh <= 0 {
				t.Fatalf("fresh budget %d, want > 0", fresh)
			}
			// Repeated additions grow the noise and must not grow the budget.
			acc := ct
			for i := 0; i < 8; i++ {
				acc = mustCT(s.AddCiphertexts(acc, ct))
			}
			after, err := s.NoiseBudgetBits(sk, acc, m)
			if err != nil {
				t.Fatal(err)
			}
			if after > fresh {
				t.Fatalf("budget grew after additions: %d > %d", after, fresh)
			}
			// DecryptWithBudget is Decrypt and NoiseBudgetBits from one phase.
			for _, c := range []BackendCiphertext{ct, acc} {
				vals, budget, err := s.DecryptWithBudget(sk, c)
				if err != nil {
					t.Fatal(err)
				}
				want, _ := s.Decrypt(sk, c)
				wantBudget, _ := s.NoiseBudgetBits(sk, c, want)
				if !slices.Equal(vals, want) || budget != wantBudget {
					t.Fatalf("DecryptWithBudget = %v, %d; Decrypt, NoiseBudgetBits = %v, %d", vals, budget, want, wantBudget)
				}
			}
			if _, err := s.NoiseBudgetBits(sk, ct, make([]uint64, 5)); err == nil {
				t.Error("expected message length error")
			}
		})
	}
}

func TestRNSBackendValidation(t *testing.T) {
	c, err := rns.NewContext(59, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRNSBackend(c, 1); err == nil {
		t.Error("expected error for T < 2")
	}
	if _, err := NewRNSBackend(c, 1<<60); err == nil {
		t.Error("expected error for T above a tower prime")
	}
	b, err := NewRNSBackend(c, 257)
	if err != nil {
		t.Fatal(err)
	}
	s := NewBackendScheme(b, 7)
	sk := s.KeyGen()
	if _, err := s.Encrypt(sk, make([]uint64, 5)); err == nil {
		t.Error("expected message length error")
	}
	if _, err := s.Encrypt(sk, append(make([]uint64, 15), 9999)); err == nil {
		t.Error("expected out-of-range coefficient error")
	}
}
