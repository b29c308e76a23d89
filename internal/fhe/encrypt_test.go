package fhe

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"mqxgo/internal/rns"
	"mqxgo/internal/u128"
)

// coeffMul is the coefficient-form negacyclic product dst = a*c at a level
// on either backend: the key product Encrypt and the decryption phase
// computed before the secret's evaluation form was kept with the key.
func coeffMul(t *testing.T, b Backend, level int, dst, a, c Poly) {
	t.Helper()
	switch b := b.(type) {
	case *rnsBackend:
		if err := b.levels[level].c.MulAll(dst.(rns.Poly), a.(rns.Poly), c.(rns.Poly)); err != nil {
			t.Fatal(err)
		}
	case *ringBackend:
		b.levels[level].plan.PolyMulNegacyclicInto(dst.([]u128.U128), a.([]u128.U128), c.([]u128.U128))
	default:
		t.Fatalf("no coefficient-form product for %T", b)
	}
}

// TestEncryptAndPhaseMatchCoefficientForm holds the evaluation-form
// ciphertext edges to the coefficient-form formulas they replace, residue
// for residue on both backends: Encrypt against a*s + e + Delta*m
// transformed, with a and e replayed from the scheme's seed, and the
// decryption phase, at every level of the chain, against B - A*S with
// both components inverse-transformed and the key product a convolution.
func TestEncryptAndPhaseMatchCoefficientForm(t *testing.T) {
	const n, seed = 64, 4242
	for _, b := range testBackends(t, n) {
		t.Run(b.Name(), func(t *testing.T) {
			s := NewBackendScheme(b, seed)
			sk := s.KeyGen()
			msg := make([]uint64, n)
			for i := range msg {
				msg[i] = uint64(11*i+3) % b.PlainModulus()
			}
			ct := mustCT(t)(s.Encrypt(sk, msg))

			// Replay the generator: KeyGen's n draws, then a, then e.
			rng := rand.New(rand.NewSource(seed))
			for range n {
				rng.Intn(3)
			}
			a := b.NewPolyAt(0)
			b.SampleUniform(a, rng)
			noise := make([]int64, n)
			for i := range noise {
				noise[i] = int64(rng.Intn(2*noiseBound+1) - noiseBound)
			}
			e, want := b.NewPolyAt(0), b.NewPolyAt(0)
			b.SetSigned(e, noise)
			coeffMul(t, b, 0, want, a, sk.S)
			b.Add(0, want, want, e)
			b.AddDeltaMsg(0, want, want, msg)
			b.ToNTT(0, a, a)
			b.ToNTT(0, want, want)
			if !reflect.DeepEqual(ct.A, a) || !reflect.DeepEqual(ct.B, want) {
				t.Fatal("Encrypt differs from NTT(a), NTT(a*s + e + Delta*m)")
			}

			for cur := ct; ; {
				l := cur.Level
				gp := s.phase(sk, cur)
				got := *gp
				ca, cb := b.Copy(cur.A), b.Copy(cur.B)
				b.ToCoeff(l, ca, ca)
				b.ToCoeff(l, cb, cb)
				old := b.NewPolyAt(l)
				coeffMul(t, b, l, old, ca, b.SecretAt(l, sk.S))
				b.Sub(l, old, cb, old)
				if !reflect.DeepEqual(got, old) {
					t.Fatalf("level %d: phase differs from INTT(B) - INTT(A)*S", l)
				}
				s.scratch[l].Put(gp)
				if l == b.Levels()-1 {
					break
				}
				var err error
				if cur, err = s.ModSwitchCtx(context.Background(), cur); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
