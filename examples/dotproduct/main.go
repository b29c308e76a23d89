// Dotproduct: an encrypted dot product over packed SIMD slots — the
// workload the slot-packing layer exists for. Each vector of n values is
// batched into one ciphertext via the plaintext CRT (one NTT at the
// plaintext modulus), a single homomorphic multiply forms all n slot-wise
// products at once, and a log2(n/2) chain of Galois rotations folds each
// rotation row down so every slot of a row holds that row's dot product.
// The whole pipeline runs twice — on the 128-bit oracle backend and on
// the RNS tower backend — and both decryptions are checked against the
// plaintext model.
package main

import (
	"context"
	"fmt"
	"log"

	"mqxgo/internal/fhe"
	"mqxgo/internal/modmath"
	"mqxgo/internal/rns"
)

const (
	n = 256
	// T is NTT-friendly at n: 40961 = 5*2^13 + 1 splits for 2n = 512, so
	// the plaintext ring CRT-decomposes into n independent slots.
	T = 40961
)

func run(name string, b fhe.Backend) error {
	ctx := context.Background()
	s := fhe.NewBackendScheme(b, 9001)
	sk := s.KeyGen()
	rlk, err := s.RelinKeyGen(sk)
	if err != nil {
		return err
	}
	gk, err := s.GaloisKeyGen(sk)
	if err != nil {
		return err
	}

	// Two packed vectors; slots split into two rotation rows of n/2.
	rows := n / 2
	x := make([]uint64, n)
	y := make([]uint64, n)
	for j := range x {
		x[j] = uint64(3*j+1) % T
		y[j] = uint64(5*j+2) % T
	}
	want := [2]uint64{}
	for j := 0; j < rows; j++ {
		want[0] = (want[0] + x[j]*y[j]) % T
		want[1] = (want[1] + x[rows+j]*y[rows+j]) % T
	}

	mx, err := s.EncodeSlots(x)
	if err != nil {
		return err
	}
	my, err := s.EncodeSlots(y)
	if err != nil {
		return err
	}
	cx, err := s.Encrypt(sk, mx)
	if err != nil {
		return err
	}
	cy, err := s.Encrypt(sk, my)
	if err != nil {
		return err
	}

	// One multiply: every slot-wise product at once.
	acc, err := s.MulCiphertextsCtx(ctx, cx, cy, rlk)
	if err != nil {
		return err
	}
	// log2(rows) rotate-and-add folds: after the chain, every slot of a
	// row holds the sum over that row. Each power-of-two amount is a
	// single key-switch hop.
	hops := 0
	for sh := rows / 2; sh >= 1; sh /= 2 {
		rot, err := s.RotateSlotsCtx(ctx, acc, sh, gk)
		if err != nil {
			return err
		}
		if acc, err = s.AddCiphertexts(acc, rot); err != nil {
			return err
		}
		hops++
	}

	dec, err := s.Decrypt(sk, acc)
	if err != nil {
		return err
	}
	slots, err := s.DecodeSlots(dec)
	if err != nil {
		return err
	}
	// Every slot of row r must hold row r's dot product.
	for j := 0; j < n; j++ {
		if got := slots[j]; got != want[j/rows] {
			return fmt.Errorf("slot %d: got %d, want %d", j, got, want[j/rows])
		}
	}
	fmt.Printf("%-8s n=%d  1 mul + %d rotations  dot(row0)=%d dot(row1)=%d  OK\n",
		name, n, hops, want[0], want[1])
	return nil
}

func main() {
	params, err := fhe.NewParams(modmath.DefaultModulus128(), n, T)
	if err != nil {
		log.Fatal(err)
	}
	if err := run("oracle", fhe.NewRingBackend(params)); err != nil {
		log.Fatalf("oracle: %v", err)
	}
	c, err := rns.NewContext(59, 3, n)
	if err != nil {
		log.Fatal(err)
	}
	rb, err := fhe.NewRNSBackend(c, T)
	if err != nil {
		log.Fatal(err)
	}
	if err := run("rns", rb); err != nil {
		log.Fatalf("rns: %v", err)
	}
}
