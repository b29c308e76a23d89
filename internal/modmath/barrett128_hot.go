package modmath

import "math/bits"

// Flattened Barrett multiplication (Eqs. 4 and 8) with every intermediate
// kept in machine words instead of u256 values: the two shift amounts n-1
// and n+1 are decomposed once per call into a word select plus a sub-word
// shift, and the final qhat*q product computes only the low 128 bits it
// needs. Cross-checked against math/big in TestMulFlatMatchesBig.

// rsh256lo returns the low 128 bits (as two words) of the 256-bit value
// w3:w2:w1:w0 shifted right by s, for 1 <= s < 128.
func rsh256lo(w0, w1, w2, w3 uint64, s uint) (lo, hi uint64) {
	switch {
	case s < 64:
		lo = w0>>s | w1<<(64-s)
		hi = w1>>s | w2<<(64-s)
	case s == 64:
		lo, hi = w1, w2
	default: // 64 < s < 128
		b := s - 64
		lo = w1>>b | w2<<(64-b)
		hi = w2>>b | w3<<(64-b)
	}
	return
}

// MulBarrett128Words returns a*b mod q for reduced a, b via schoolbook
// multiplication and Barrett reduction, fully flattened to word
// arithmetic, with every constant passed in registers: qHi:qLo is the
// modulus, muHi:muLo its Barrett constant, and nm1/np1 the shift amounts
// n-1 and n+1, which must lie in [1, 125] (guaranteed for any modulus
// NewModulus128 accepts). This is the one shared copy of the flattened
// carry-chain arithmetic: Modulus128.Mul binds it to its modulus, and
// internal/ring's fused Barrett128 span kernels call it directly with
// constants hoisted out of their loops.
func MulBarrett128Words(aHi, aLo, bHi, bLo, qHi, qLo, muHi, muLo uint64, nm1, np1 uint) (rHi, rLo uint64) {
	// t = a*b: four 64x64 word products (Eq. 8).
	llHi, llLo := bits.Mul64(aLo, bLo)
	lhHi, lhLo := bits.Mul64(aLo, bHi)
	hlHi, hlLo := bits.Mul64(aHi, bLo)
	hhHi, hhLo := bits.Mul64(aHi, bHi)
	t0 := llLo
	t1, c := bits.Add64(llHi, lhLo, 0)
	t2, c := bits.Add64(hhLo, lhHi, c)
	t3 := hhHi + c
	t1, c = bits.Add64(t1, hlLo, 0)
	t2, c = bits.Add64(t2, hlHi, c)
	t3 += c

	// t1hat = floor(t / 2^(n-1)); t < 2^(2n) so t1hat < 2^(n+1) fits in
	// 128 bits.
	xLo, xHi := rsh256lo(t0, t1, t2, t3, nm1)

	// u = t1hat * mu < 2^(2n+2) <= 2^250; qhat = floor(u / 2^(n+1)).
	llHi, llLo = bits.Mul64(xLo, muLo)
	lhHi, lhLo = bits.Mul64(xLo, muHi)
	hlHi, hlLo = bits.Mul64(xHi, muLo)
	hhHi, hhLo = bits.Mul64(xHi, muHi)
	u0 := llLo
	u1, c := bits.Add64(llHi, lhLo, 0)
	u2, c := bits.Add64(hhLo, lhHi, c)
	u3 := hhHi + c
	u1, c = bits.Add64(u1, hlLo, 0)
	u2, c = bits.Add64(u2, hlHi, c)
	u3 += c
	qhLo, qhHi := rsh256lo(u0, u1, u2, u3, np1)

	// qq = qhat*q mod 2^128: only the low half is needed because
	// r = t - qhat*q < 3q < 2^126 is exact modulo 2^128.
	qqHi, qqLo := bits.Mul64(qhLo, qLo)
	qqHi += qhLo*qHi + qhHi*qLo

	rLo, bb := bits.Sub64(t0, qqLo, 0)
	rHi, _ = bits.Sub64(t1, qqHi, bb)
	// The quotient estimate is within 2 of the truth: at most two
	// corrective subtractions, each a branchless mask select (the branch
	// is data-dependent and would mispredict on random residues).
	for k := 0; k < 2; k++ {
		sLo, b1 := bits.Sub64(rLo, qLo, 0)
		sHi, b2 := bits.Sub64(rHi, qHi, b1)
		mask := b2 - 1 // all ones when r >= q
		rHi ^= (rHi ^ sHi) & mask
		rLo ^= (rLo ^ sLo) & mask
	}
	return rHi, rLo
}
