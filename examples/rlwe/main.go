// RLWE: encrypted computation on top of the library's negacyclic NTT — a
// miniature of the FHE pipelines that motivate the paper. Encrypts two
// vectors of small integers as ring elements, adds them under encryption,
// rotates one homomorphically, multiplies the two ciphertexts (BFV tensor
// product, rescale, relinearize), and decrypts; then runs the identical
// scheme again on the RNS tower backend — where the multiply is the BEHZ
// pipeline, never leaving residue form — the paper's two hardware
// philosophies as swappable Go backends. The finale is the PR 5 modulus
// ladder: a depth-3 multiply chain that a fixed two-tower basis cannot
// survive, carried to the end by a four-tower basis that switches down a
// level after every multiply, paying two-tower prices at the bottom.
package main

import (
	"context"
	"fmt"
	"log"
	"slices"

	"mqxgo/internal/fhe"
	"mqxgo/internal/modmath"
	"mqxgo/internal/rns"
	"mqxgo/internal/u128"
)

func main() {
	const n = 128
	params, err := fhe.NewParams(modmath.DefaultModulus128(), n, 257)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	scheme := fhe.NewBackendScheme(fhe.NewRingBackend(params), 42)
	sk := scheme.KeyGen()

	// Two plaintext vectors (packed as polynomial coefficients).
	m1 := make([]uint64, n)
	m2 := make([]uint64, n)
	for i := 0; i < n; i++ {
		m1[i] = uint64(i) % params.T
		m2[i] = uint64(100+i) % params.T
	}

	c1, err := scheme.Encrypt(sk, m1)
	if err != nil {
		log.Fatal(err)
	}
	c2, err := scheme.Encrypt(sk, m2)
	if err != nil {
		log.Fatal(err)
	}

	// Homomorphic addition.
	sum, err := scheme.AddCiphertexts(c1, c2)
	if err != nil {
		log.Fatal(err)
	}
	dec, err := scheme.Decrypt(sk, sum)
	if err != nil {
		log.Fatal(err)
	}
	ok := true
	for i := range dec {
		if dec[i] != (m1[i]+m2[i])%params.T {
			ok = false
			break
		}
	}
	fmt.Printf("homomorphic add of %d slots: correct = %v (slot 3: %d + %d = %d)\n",
		n, ok, m1[3], m2[3], dec[3])

	// Homomorphic rotation: multiply by the monomial x (negacyclic shift).
	x := make([]u128.U128, n) // the 128-bit backend's polynomial handle
	x[1] = u128.One
	rot, err := scheme.MulPlain(c1, x)
	if err != nil {
		log.Fatal(err)
	}
	decRot, err := scheme.Decrypt(sk, rot)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("homomorphic shift: slot 5 now holds previous slot 4: %d -> %d\n",
		m1[4], decRot[5])

	// Homomorphic multiplication: ciphertext x ciphertext, decrypting to
	// the negacyclic product of the plaintexts mod T.
	rlk, err := scheme.RelinKeyGen(sk)
	if err != nil {
		log.Fatal(err)
	}
	prodCT, err := scheme.MulCiphertextsCtx(ctx, c1, c2, rlk)
	if err != nil {
		log.Fatal(err)
	}
	prod, err := scheme.Decrypt(sk, prodCT)
	if err != nil {
		log.Fatal(err)
	}
	wantProd := fhe.NegacyclicProductModT(m1, m2, params.T)
	mulOK := true
	for i := range prod {
		if prod[i] != wantProd[i] {
			mulOK = false
			break
		}
	}
	fmt.Printf("homomorphic multiply of the two ciphertexts: correct = %v (slot 3: %d)\n",
		mulOK, prod[3])
	fmt.Printf("ring: Z_q[x]/(x^%d + 1) with a %d-bit q; every ciphertext op ran on the 128-bit NTT\n",
		n, params.Mod.Q.BitLen())

	// The same scheme, unchanged, on the other hardware philosophy: a
	// basis of 64-bit RNS towers behind the fhe.Backend seam.
	rc, err := rns.NewContext(59, 3, n)
	if err != nil {
		log.Fatal(err)
	}
	backend, err := fhe.NewRNSBackend(rc, 257)
	if err != nil {
		log.Fatal(err)
	}
	rs := fhe.NewBackendScheme(backend, 42)
	rsk := rs.KeyGen()
	rc1, err := rs.Encrypt(rsk, m1)
	if err != nil {
		log.Fatal(err)
	}
	rc2, err := rs.Encrypt(rsk, m2)
	if err != nil {
		log.Fatal(err)
	}
	rsum, err := rs.AddCiphertexts(rc1, rc2)
	if err != nil {
		log.Fatal(err)
	}
	rdec, err := rs.Decrypt(rsk, rsum)
	if err != nil {
		log.Fatal(err)
	}
	rok := true
	for i := range rdec {
		if rdec[i] != (m1[i]+m2[i])%257 {
			rok = false
			break
		}
	}
	fmt.Printf("same add on the %s backend (Q = product of 3 towers, %d bits): correct = %v\n",
		backend.Name(), rc.Q.BitLen(), rok)

	// The same multiply on the RNS backend runs the BEHZ pipeline:
	// m~-corrected base extension into a disjoint extension base, tensor
	// product per tower, divide-and-round by Q/T, exact Shenoy-Kumaresan
	// return to base Q, CRT-gadget relinearization with NTT-domain keys —
	// residues end to end, no big integers on the hot path.
	rrlk, err := rs.RelinKeyGen(rsk)
	if err != nil {
		log.Fatal(err)
	}
	rprodCT, err := rs.MulCiphertextsCtx(ctx, rc1, rc2, rrlk)
	if err != nil {
		log.Fatal(err)
	}
	rprod, err := rs.Decrypt(rsk, rprodCT)
	if err != nil {
		log.Fatal(err)
	}
	rmulOK := true
	for i := range rprod {
		if rprod[i] != wantProd[i] {
			rmulOK = false
			break
		}
	}
	fmt.Printf("same multiply via BEHZ on %s: correct = %v, bit-identical to the 128-bit oracle = %v\n",
		backend.Name(), rmulOK, slices.Equal(rprod, prod))

	// --- The PR 5 modulus ladder: depth 3 ---
	//
	// ModSwitch is budget-neutral (Delta and the noise divide by the
	// dropped tower together), so what the ladder buys is COST: each drop
	// removes one tower from every subsequent transform and tensor. The
	// provisioning story: a fixed k=2 basis (what a single multiply
	// needs) dies at depth 3; a k=4 basis switched down after every
	// multiply finishes the chain with budget to spare, and its last
	// multiply already runs at k=2 prices. T = 65537 makes every multiply
	// burn ~25 budget bits so the contrast fits three levels.
	const ladderT = 65537
	msg := make([]uint64, n)
	for i := range msg {
		msg[i] = uint64(i*i+7) % ladderT
	}
	expected := append([]uint64(nil), msg...)
	for d := 0; d < 3; d++ {
		expected = fhe.NegacyclicProductModT(expected, expected, ladderT)
	}

	runDepth3 := func(towers int, switching bool) (got []uint64, budget int, level int) {
		lc, err := rns.NewContext(59, towers, n)
		if err != nil {
			log.Fatal(err)
		}
		b, err := fhe.NewRNSBackend(lc, ladderT)
		if err != nil {
			log.Fatal(err)
		}
		s := fhe.NewBackendScheme(b, 2026)
		sk := s.KeyGen()
		rlk, err := s.RelinKeyGen(sk)
		if err != nil {
			log.Fatal(err)
		}
		ct, err := s.Encrypt(sk, msg)
		if err != nil {
			log.Fatal(err)
		}
		for d := 0; d < 3; d++ {
			if ct, err = s.MulCiphertextsCtx(ctx, ct, ct, rlk); err != nil {
				log.Fatal(err)
			}
			if switching && d < 2 {
				if ct, err = s.ModSwitchCtx(ctx, ct); err != nil {
					log.Fatal(err)
				}
			}
		}
		got, err = s.Decrypt(sk, ct)
		if err != nil {
			log.Fatal(err)
		}
		budget, err = s.NoiseBudgetBits(sk, ct, expected)
		if err != nil {
			log.Fatal(err)
		}
		return got, budget, ct.Level
	}

	gotFixed, budgetFixed, _ := runDepth3(2, false)
	gotLadder, budgetLadder, level := runDepth3(4, true)
	fmt.Printf("depth-3 chain on a fixed k=2 basis (no switching): correct = %v, budget = %d bits\n",
		slices.Equal(gotFixed, expected), budgetFixed)
	fmt.Printf("depth-3 chain on the k=4 ladder (ModSwitch after each multiply): correct = %v, budget = %d bits at level %d\n",
		slices.Equal(gotLadder, expected), budgetLadder, level)
	if !slices.Equal(gotFixed, expected) && slices.Equal(gotLadder, expected) {
		fmt.Println("the ladder carried the chain the fixed small basis could not — while its last multiply ran on 2 towers, not 4")
	}
}
