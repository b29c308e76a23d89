package fhe

import (
	"context"
	"testing"

	"mqxgo/internal/modmath"
)

// The scheme-layer tests in this file run every operation one rung down
// the modulus ladder: the encryptor switches each fresh ciphertext to
// level 1, so the linear ops, the plaintext crossings of MulPlain and
// AddPlain, and Decrypt's and the noise diagnostics' inverse transforms
// all run on a lower level's modulus and plans. backend_test.go runs the
// same operations at level 0, where Encrypt leaves its ciphertexts.

// eachBackendLevel1 runs f once per backend with a fresh scheme and key
// and an encryptor that returns ciphertexts switched to level 1.
func eachBackendLevel1(t *testing.T, n int, f func(t *testing.T, s *BackendScheme, sk BackendSecretKey, enc func([]uint64) BackendCiphertext)) {
	t.Helper()
	for _, b := range testBackends(t, n) {
		t.Run(b.Name(), func(t *testing.T) {
			s := NewBackendScheme(b, 12345)
			sk := s.KeyGen()
			f(t, s, sk, func(msg []uint64) BackendCiphertext {
				t.Helper()
				ct, err := s.Encrypt(sk, msg)
				if err != nil {
					t.Fatal(err)
				}
				return mustCT(t)(s.ModSwitchCtx(context.Background(), ct))
			})
		})
	}
}

// wantDecrypt asserts ct is still at level 1 and decrypts to want.
func wantDecrypt(t *testing.T, s *BackendScheme, sk BackendSecretKey, ct BackendCiphertext, want func(i int) uint64) {
	t.Helper()
	if ct.Level != 1 {
		t.Fatalf("result at level %d, want 1", ct.Level)
	}
	got, err := s.Decrypt(sk, ct)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want(i) {
			t.Fatalf("coeff %d: got %d, want %d", i, got[i], want(i))
		}
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	eachBackendLevel1(t, 64, func(t *testing.T, s *BackendScheme, sk BackendSecretKey, enc func([]uint64) BackendCiphertext) {
		msg := make([]uint64, 64)
		for i := range msg {
			msg[i] = uint64(i*7) % s.B.PlainModulus()
		}
		wantDecrypt(t, s, sk, enc(msg), func(i int) uint64 { return msg[i] })
	})
}

func TestHomomorphicAddition(t *testing.T) {
	eachBackendLevel1(t, 32, func(t *testing.T, s *BackendScheme, sk BackendSecretKey, enc func([]uint64) BackendCiphertext) {
		T := s.B.PlainModulus()
		m1 := make([]uint64, 32)
		m2 := make([]uint64, 32)
		for i := range m1 {
			m1[i] = uint64(i) % T
			m2[i] = uint64(3*i+1) % T
		}
		sum := mustCT(t)(s.AddCiphertexts(enc(m1), enc(m2)))
		wantDecrypt(t, s, sk, sum, func(i int) uint64 { return (m1[i] + m2[i]) % T })
	})
}

// TestHomomorphicSubAndNeg checks the backend's Sub, the seam op Decrypt's
// B - A*S runs through, on ciphertext components one rung down: applied to
// both components it subtracts the plaintexts, and subtracting from the
// zero ciphertext negates one.
func TestHomomorphicSubAndNeg(t *testing.T) {
	eachBackendLevel1(t, 32, func(t *testing.T, s *BackendScheme, sk BackendSecretKey, enc func([]uint64) BackendCiphertext) {
		T := s.B.PlainModulus()
		m1 := make([]uint64, 32)
		m2 := make([]uint64, 32)
		for i := range m1 {
			m1[i] = uint64(200 + i)
			m2[i] = uint64(3 * i)
		}
		sub := func(x, y BackendCiphertext) BackendCiphertext {
			out := BackendCiphertext{A: s.B.NewPolyAt(1), B: s.B.NewPolyAt(1), Level: 1}
			s.B.Sub(1, out.A, x.A, y.A)
			s.B.Sub(1, out.B, x.B, y.B)
			return out
		}
		c1, c2 := enc(m1), enc(m2)
		zero := BackendCiphertext{A: s.B.NewPolyAt(1), B: s.B.NewPolyAt(1), Level: 1}
		wantDecrypt(t, s, sk, sub(c1, c2), func(i int) uint64 { return (m1[i] + T - m2[i]) % T })
		wantDecrypt(t, s, sk, sub(zero, c1), func(i int) uint64 { return (T - m1[i]%T) % T })
	})
}

// TestMulScalar multiplies by a small integer constant the way the scheme
// does it: MulPlain by the constant polynomial k.
func TestMulScalar(t *testing.T) {
	eachBackendLevel1(t, 16, func(t *testing.T, s *BackendScheme, sk BackendSecretKey, enc func([]uint64) BackendCiphertext) {
		T := s.B.PlainModulus()
		m := make([]uint64, 16)
		for i := range m {
			m[i] = uint64(i)
		}
		const k = 7
		kc := make([]int64, 16)
		kc[0] = k
		kp := s.B.NewPolyAt(0)
		s.B.SetSigned(kp, kc)
		wantDecrypt(t, s, sk, mustCT(t)(s.MulPlain(enc(m), s.B.SecretAt(1, kp))), func(i int) uint64 { return (m[i] * k) % T })
	})
}

func TestMulPlainByMonomial(t *testing.T) {
	// Multiplying by x rotates coefficients negacyclically; decryption
	// must match the rotated plaintext (with sign wrap mod T).
	eachBackendLevel1(t, 16, func(t *testing.T, s *BackendScheme, sk BackendSecretKey, enc func([]uint64) BackendCiphertext) {
		T := s.B.PlainModulus()
		msg := make([]uint64, 16)
		for i := range msg {
			msg[i] = uint64(i + 1)
		}
		mono := make([]int64, 16)
		mono[1] = 1
		x := s.B.NewPolyAt(0)
		s.B.SetSigned(x, mono)
		x = s.B.SecretAt(1, x) // shaped for the ciphertext's level
		// (x * m)(x): coefficient j of the product is m[j-1]; coefficient
		// 0 is -m[15] mod T.
		wantDecrypt(t, s, sk, mustCT(t)(s.MulPlain(enc(msg), x)), func(j int) uint64 {
			if j == 0 {
				return (T - msg[15]) % T
			}
			return msg[j-1]
		})
	})
}

func TestAddPlain(t *testing.T) {
	eachBackendLevel1(t, 16, func(t *testing.T, s *BackendScheme, sk BackendSecretKey, enc func([]uint64) BackendCiphertext) {
		T := s.B.PlainModulus()
		m := make([]uint64, 16)
		pt := make([]uint64, 16)
		for i := range m {
			m[i] = uint64(i*5) % T
			pt[i] = uint64(i*11) % T
		}
		ct := enc(m)
		wantDecrypt(t, s, sk, mustCT(t)(s.AddPlain(ct, pt)), func(i int) uint64 { return (m[i] + pt[i]) % T })
		if _, err := s.AddPlain(ct, make([]uint64, 3)); err == nil {
			t.Error("expected length error")
		}
		if _, err := s.AddPlain(ct, append(make([]uint64, 15), 99999)); err == nil {
			t.Error("expected range error")
		}
	})
}

func TestNoiseBudget(t *testing.T) {
	eachBackendLevel1(t, 32, func(t *testing.T, s *BackendScheme, sk BackendSecretKey, enc func([]uint64) BackendCiphertext) {
		m := make([]uint64, 32)
		ct := enc(m)
		fresh, err := s.NoiseBudgetBits(sk, ct, m)
		if err != nil {
			t.Fatal(err)
		}
		if fresh <= 0 {
			t.Fatalf("fresh ciphertext should have positive noise budget, got %d", fresh)
		}
		// Repeated additions consume budget monotonically (or keep it equal).
		acc := ct
		for i := 0; i < 8; i++ {
			acc = mustCT(t)(s.AddCiphertexts(acc, ct))
		}
		after, err := s.NoiseBudgetBits(sk, acc, m)
		if err != nil {
			t.Fatal(err)
		}
		if after > fresh {
			t.Fatalf("noise budget grew after additions: %d -> %d", fresh, after)
		}
		if _, err := s.NoiseBudgetBits(sk, ct, make([]uint64, 5)); err == nil {
			t.Error("expected length error")
		}
	})
}

func TestValidation(t *testing.T) {
	mod := modmath.DefaultModulus128()
	if _, err := NewParams(mod, 16, 1); err == nil {
		t.Error("expected error for T < 2")
	}
	if _, err := NewParams(mod, 3, 257); err == nil {
		t.Error("expected error for bad ring degree")
	}
	eachBackendLevel1(t, 16, func(t *testing.T, s *BackendScheme, sk BackendSecretKey, enc func([]uint64) BackendCiphertext) {
		if _, err := s.Encrypt(sk, make([]uint64, 7)); err == nil {
			t.Error("expected message length error")
		}
		if _, err := s.Encrypt(sk, append(make([]uint64, 15), 999999)); err == nil {
			t.Error("expected out-of-range coefficient error")
		}
		if _, err := s.Decrypt(sk, BackendCiphertext{}); err == nil {
			t.Error("expected malformed ciphertext error")
		}
		if _, err := s.MulPlain(enc(make([]uint64, 16)), nil); err == nil {
			t.Error("expected plaintext handle error")
		}
	})
}
