package fhe

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"mqxgo/internal/modmath"
	"mqxgo/internal/rns"
)

// Packed-workload differential tests: slot packing and Galois rotations
// must behave identically — bit-identical decrypted slot vectors — on the
// 128-bit oracle and the RNS backend, and must match the plaintext model.

// packedT is an NTT-friendly plaintext modulus for every packed-test
// degree used here: 40961 = 5*2^13 + 1 is prime, so 2n | T-1 holds up to
// n = 4096. (The legacy fixture modulus 257 only splits up to n = 128.)
const packedT = 40961

func packedBackends(t *testing.T, n int) []Backend {
	t.Helper()
	p, err := NewParams(modmath.DefaultModulus128(), n, packedT)
	if err != nil {
		t.Fatal(err)
	}
	c, err := rns.NewContext(59, 3, n)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := NewRNSBackend(c, packedT)
	if err != nil {
		t.Fatal(err)
	}
	return []Backend{NewRingBackend(p), rb}
}

func randomSlots(n int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	slots := make([]uint64, n)
	for i := range slots {
		slots[i] = rng.Uint64() % packedT
	}
	return slots
}

// rotatedModel is the plaintext model of RotateSlots: both rows of n/2
// rotate left by steps (slot j reads old slot j+steps within its row).
func rotatedModel(slots []uint64, steps int) []uint64 {
	n := len(slots)
	rows := n / 2
	steps = ((steps % rows) + rows) % rows
	out := make([]uint64, n)
	for j := 0; j < rows; j++ {
		out[j] = slots[(j+steps)%rows]
		out[j+rows] = slots[rows+(j+steps)%rows]
	}
	return out
}

// conjugatedModel swaps the two rows.
func conjugatedModel(slots []uint64) []uint64 {
	n := len(slots)
	rows := n / 2
	out := make([]uint64, n)
	copy(out[:rows], slots[rows:])
	copy(out[rows:], slots[:rows])
	return out
}

func TestSlotEncoderRoundTripAndSemantics(t *testing.T) {
	for _, n := range []int{64, 256, 1024} {
		enc, err := NewSlotEncoder(n, packedT)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if enc.n != n {
			t.Fatalf("n=%d: encoder has %d slots", n, enc.n)
		}
		slots := randomSlots(n, int64(n))
		msg, err := enc.Encode(slots)
		if err != nil {
			t.Fatal(err)
		}
		back, err := enc.Decode(msg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range slots {
			if back[i] != slots[i] {
				t.Fatalf("n=%d: slot %d round-trips to %d, want %d", n, i, back[i], slots[i])
			}
		}
		// The CRT semantics: the negacyclic product of two encodings
		// decodes to the slot-wise product.
		other := randomSlots(n, int64(n)+1)
		msg2, err := enc.Encode(other)
		if err != nil {
			t.Fatal(err)
		}
		mod := modmath.MustModulus64(packedT)
		prod := make([]uint64, n)
		// Schoolbook negacyclic product mod T keeps the check independent
		// of the encoder's own transform.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				p := mod.Mul(msg[i], msg2[j])
				if i+j < n {
					prod[i+j] = mod.Add(prod[i+j], p)
				} else {
					prod[i+j-n] = mod.Sub(prod[i+j-n], p)
				}
			}
		}
		got, err := enc.Decode(prod)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if want := mod.Mul(slots[i], other[i]); got[i] != want {
				t.Fatalf("n=%d: slot %d product %d, want %d", n, i, got[i], want)
			}
		}
		if n > 64 {
			break // the schoolbook check is O(n^2); once past 64 is enough
		}
	}
}

// TestSlotEncoderConcurrentUse shares one encoder between goroutines,
// each round-tripping its own slots through EncodeInto and DecodeInto.
// Under -race a pooled row used past its Put, or kept in a field or
// global across calls, is touched by two goroutines without ordering and
// is reported as a data race.
func TestSlotEncoderConcurrentUse(t *testing.T) {
	const n, goroutines, iters = 256, 6, 40
	enc, err := NewSlotEncoder(n, packedT)
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			slots := randomSlots(n, int64(g))
			msg, back := make([]uint64, n), make([]uint64, n)
			for it := 0; it < iters; it++ {
				if err := enc.EncodeInto(msg, slots); err != nil {
					errs <- err
					return
				}
				if err := enc.DecodeInto(back, msg); err != nil {
					errs <- err
					return
				}
				if !slices.Equal(back, slots) {
					errs <- fmt.Errorf("goroutine %d, call %d: slots do not round-trip", g, it)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestSlotEncoderRejects(t *testing.T) {
	if _, err := NewSlotEncoder(256, 257); err == nil {
		t.Fatal("T=257 at n=256 accepted (2n does not divide T-1)")
	}
	if _, err := NewSlotEncoder(64, 40963); err == nil {
		t.Fatal("composite plaintext modulus accepted")
	}
	if _, err := NewSlotEncoder(48, packedT); err == nil {
		t.Fatal("non-power-of-two degree accepted")
	}
	if _, err := NewSlotEncoder(2, 5); err == nil {
		t.Fatal("degree below the slot-row minimum accepted")
	}
	// The scheme seam's sticky validation: a backend over a non-friendly T
	// reports the error on every encode call.
	for _, b := range testBackends(t, 256) {
		s := NewBackendScheme(b, 1)
		if _, err := s.EncodeSlots(make([]uint64, 256)); err == nil {
			t.Fatalf("%s: EncodeSlots with T=257 at n=256 accepted", b.Name())
		}
		if _, err := s.DecodeSlots(make([]uint64, 256)); err == nil {
			t.Fatalf("%s: DecodeSlots with T=257 at n=256 accepted", b.Name())
		}
	}
}

// TestRotateSlotsAllAmountsCrossBackend is the acceptance sweep: at each
// degree, every rotation amount decrypts to the model rotation, and the
// two backends' decrypted slot vectors are bit-identical. The full
// all-amounts sweep runs on the RNS backend; the allocating oracle sweeps
// every amount at n = 64 and a deterministic stride above that (its
// per-hop big-ring transforms make the full 2048-amount sweep minutes
// long, and hop-chaining correctness is degree-independent once the
// binary ladder is exercised end to end).
func TestRotateSlotsAllAmountsCrossBackend(t *testing.T) {
	for _, n := range []int{64, 1024, 4096} {
		if testing.Short() && n > 1024 {
			continue
		}
		backends := packedBackends(t, n)
		slots := randomSlots(n, 99)
		rows := n / 2
		oracleStride := 1
		if n > 64 {
			oracleStride = rows / 16
		}

		// decrypted[r] from the oracle backend, to cross-check bitwise.
		oracleGot := make(map[int][]uint64)
		for bi, b := range backends {
			s := NewBackendScheme(b, 4242)
			sk := s.KeyGen()
			gk, err := s.GaloisKeyGen(sk)
			if err != nil {
				t.Fatal(err)
			}
			msg, err := s.EncodeSlots(slots)
			if err != nil {
				t.Fatal(err)
			}
			ct, err := s.Encrypt(sk, msg)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < rows; r++ {
				if bi == 0 && r%oracleStride != 0 {
					continue
				}
				rot, err := s.RotateSlotsCtx(context.Background(), ct, r, gk)
				if err != nil {
					t.Fatalf("%s n=%d rotate %d: %v", b.Name(), n, r, err)
				}
				dec, err := s.Decrypt(sk, rot)
				if err != nil {
					t.Fatal(err)
				}
				got, err := s.DecodeSlots(dec)
				if err != nil {
					t.Fatal(err)
				}
				want := rotatedModel(slots, r)
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s n=%d rotate %d: slot %d = %d, want %d", b.Name(), n, r, i, got[i], want[i])
					}
				}
				if bi == 0 {
					oracleGot[r] = got
				} else if ref, ok := oracleGot[r]; ok {
					for i := range got {
						if got[i] != ref[i] {
							t.Fatalf("n=%d rotate %d: backends disagree at slot %d", n, r, i)
						}
					}
				}
			}
			// Conjugation and negative steps on every backend.
			conj, err := conjugate(context.Background(), s, ct, gk)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := s.Decrypt(sk, conj)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.DecodeSlots(dec)
			if err != nil {
				t.Fatal(err)
			}
			want := conjugatedModel(slots)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s n=%d conjugate: slot %d = %d, want %d", b.Name(), n, i, got[i], want[i])
				}
			}
			neg, err := s.RotateSlotsCtx(context.Background(), ct, -3, gk)
			if err != nil {
				t.Fatal(err)
			}
			dec, err = s.Decrypt(sk, neg)
			if err != nil {
				t.Fatal(err)
			}
			got, err = s.DecodeSlots(dec)
			if err != nil {
				t.Fatal(err)
			}
			want = rotatedModel(slots, -3)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s n=%d rotate -3: slot %d = %d, want %d", b.Name(), n, i, got[i], want[i])
				}
			}
		}
	}
}

// TestRotateComposedDownLadder drives rotations through the full packed
// pipeline on both backends: slot-wise multiply, rotate, modulus-switch,
// rotate again at the lower level — the shape every packed reduction
// (dot products, aggregates) uses.
func TestRotateComposedDownLadder(t *testing.T) {
	const n = 64
	mod := modmath.MustModulus64(packedT)
	for _, b := range packedBackends(t, n) {
		t.Run(b.Name(), func(t *testing.T) {
			s := NewBackendScheme(b, 777)
			sk := s.KeyGen()
			rlk, err := s.RelinKeyGen(sk)
			if err != nil {
				t.Fatal(err)
			}
			gk, err := s.GaloisKeyGen(sk)
			if err != nil {
				t.Fatal(err)
			}
			x := randomSlots(n, 5)
			y := randomSlots(n, 6)
			ctX, err := s.Encrypt(sk, mustMsg(t, s, x))
			if err != nil {
				t.Fatal(err)
			}
			ctY, err := s.Encrypt(sk, mustMsg(t, s, y))
			if err != nil {
				t.Fatal(err)
			}
			// model: rot2(modswitch(rot1(x*y)))
			model := make([]uint64, n)
			for i := range model {
				model[i] = mod.Mul(x[i], y[i])
			}
			model = rotatedModel(model, 5)
			model = rotatedModel(model, n/2-5) // full-row cycle: back to x*y

			prod, err := s.MulCiphertextsCtx(context.Background(), ctX, ctY, rlk)
			if err != nil {
				t.Fatal(err)
			}
			r1, err := s.RotateSlotsCtx(context.Background(), prod, 5, gk)
			if err != nil {
				t.Fatal(err)
			}
			down, err := s.ModSwitchCtx(context.Background(), r1)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := s.RotateSlotsCtx(context.Background(), down, n/2-5, gk)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := s.Decrypt(sk, r2)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.DecodeSlots(dec)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if got[i] != model[i] {
					t.Fatalf("slot %d = %d, want %d", i, got[i], model[i])
				}
			}
		})
	}
}

func mustMsg(t *testing.T, s *BackendScheme, slots []uint64) []uint64 {
	t.Helper()
	msg, err := s.EncodeSlots(slots)
	if err != nil {
		t.Fatal(err)
	}
	return msg
}
