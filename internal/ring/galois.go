package ring

import (
	"fmt"
	"math/bits"
	"sync"
)

// Galois automorphism machinery: the index maps for x -> x^g on
// Z_q[x]/(x^n + 1), precomputed once per (n, g) and applied as pure
// permutation loops. For odd g the map tau_g(m)(x) = m(x^g) permutes the
// 2n-th roots of unity, so it acts on BOTH representations a ciphertext
// polynomial can rest in:
//
//   - Coefficient form: x^j -> x^(j*g mod 2n) with the negacyclic fold
//     x^n = -1, i.e. out[j*g mod n] = ±in[j], negated when j*g mod 2n
//     lands in the upper half. A bijection because g is odd.
//   - Evaluation form: out[p] holds m(psi^e_p) where e_p = 2*bitrev(p)+1
//     (the constant-geometry forward transform emits bit-reversed order),
//     and tau_g(m)(psi^e) = m(psi^(e*g)), so the automorphism is the pure
//     position permutation p -> posOf(e_p * g mod 2n) — no arithmetic,
//     and valid for relaxed [0, 2q) values too, since values only move.
//
// The slot layer builds on the standard orbit structure of Z*_{2n}
// (n >= 4 a power of two): the subgroup generated by SlotGenerator = 3
// has order n/2 and together with -1 covers every odd exponent, giving
// two rows of n/2 slots. Applying tau with g = 3^r rotates both rows
// left by r; g = 2n-1 (-1) swaps the rows (the "conjugate").
//
// The tables are index maps only — no modulus anywhere — so one cache
// entry per (n, g) serves every tower of an RNS basis and the 128-bit
// oracle ring alike.

// SlotGenerator generates the rotation subgroup of Z*_{2n}: the Galois
// element for a rotation by r is 3^r mod 2n.
const SlotGenerator = 3

// GaloisTables holds the precomputed index maps of one automorphism
// x -> x^g. Build via GaloisTablesFor; the tables are immutable and
// shared process-wide.
type GaloisTables struct {
	N int
	G uint64

	coeffSrc []int32 // coefficient form: out[p] = ±in[coeffSrc[p]]
	coeffNeg []bool  // negate out[p] (the x^n = -1 fold)
	evalPerm []int32 // evaluation form: out[p] = in[evalPerm[p]]
}

type galoisCacheKey struct {
	n int
	g uint64
}

var galoisCache sync.Map // galoisCacheKey -> *GaloisTables

// bitrev reverses the low m bits of x.
func bitrev(x uint64, m int) uint64 {
	return bits.Reverse64(x) >> (64 - m)
}

// GaloisTablesFor returns the cached index maps for x -> x^g on a ring of
// degree n. g is taken mod 2n and must be odd (even g is not a ring
// automorphism of x^n + 1); n must be a power of two >= 2.
func GaloisTablesFor(n int, g uint64) (*GaloisTables, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("ring: galois tables need a power-of-two degree >= 2, got %d", n)
	}
	twoN := uint64(2 * n)
	g %= twoN
	if g&1 == 0 {
		return nil, fmt.Errorf("ring: galois element %d is even (not an automorphism of x^%d+1)", g, n)
	}
	key := galoisCacheKey{n: n, g: g}
	if t, ok := galoisCache.Load(key); ok {
		return t.(*GaloisTables), nil
	}
	t, _ := galoisCache.LoadOrStore(key, buildGaloisTables(n, g))
	return t.(*GaloisTables), nil
}

func buildGaloisTables(n int, g uint64) *GaloisTables {
	twoN := uint64(2 * n)
	m := bits.TrailingZeros64(uint64(n))
	t := &GaloisTables{
		N:        n,
		G:        g,
		coeffSrc: make([]int32, n),
		coeffNeg: make([]bool, n),
		evalPerm: make([]int32, n),
	}
	for j := 0; j < n; j++ {
		e := uint64(j) * g % twoN
		p := e % uint64(n)
		t.coeffSrc[p] = int32(j)
		t.coeffNeg[p] = e >= uint64(n)
	}
	for p := 0; p < n; p++ {
		e := 2*bitrev(uint64(p), m) + 1
		eg := e * g % twoN
		t.evalPerm[p] = int32(bitrev((eg-1)/2, m))
	}
	return t
}

// AutomorphismCoeffInto applies tau_g to a COEFFICIENT-form polynomial:
// dst[p] = ±src[coeffSrc[p]]. src must hold canonical residues (the
// negation is single-correction) and dst must not alias src — the map is
// a full permutation. Steady-state it allocates nothing.
func (p *Plan[T, R]) AutomorphismCoeffInto(t *GaloisTables, dst, src []T) {
	p.checkLen(len(dst))
	p.checkLen(len(src))
	p.checkGalois(t)
	r := p.R
	srcIdx, neg := t.coeffSrc, t.coeffNeg
	for i := range dst {
		v := src[srcIdx[i]]
		if neg[i] {
			v = r.Neg(v)
		}
		dst[i] = v
	}
}

// AutomorphismEvalInto applies tau_g to an EVALUATION-form (negacyclic
// NTT, bit-reversed order) polynomial: dst[p] = src[evalPerm[p]]. A pure
// permutation — correct for relaxed residues too. dst must not alias src.
// Steady-state it allocates nothing.
func (p *Plan[T, R]) AutomorphismEvalInto(t *GaloisTables, dst, src []T) {
	p.checkLen(len(dst))
	p.checkLen(len(src))
	p.checkGalois(t)
	perm := t.evalPerm
	for i := range dst {
		dst[i] = src[perm[i]]
	}
}

func (p *Plan[T, R]) checkGalois(t *GaloisTables) {
	if t.N != p.N {
		panic("ring: galois tables built for another degree")
	}
}

// RotationElement returns the Galois element whose automorphism rotates
// both slot rows left by steps: 3^steps mod 2n. steps is normalized mod
// the row length n/2 (negative steps rotate right).
func RotationElement(n, steps int) uint64 {
	twoN := uint64(2 * n)
	rows := n / 2
	steps = ((steps % rows) + rows) % rows
	g := uint64(1)
	for i := 0; i < steps; i++ {
		g = g * SlotGenerator % twoN
	}
	return g
}

// ConjugationElement returns 2n-1 (= -1 mod 2n), the Galois element that
// swaps the two slot rows.
func ConjugationElement(n int) uint64 { return uint64(2*n - 1) }

// SlotPositions maps slot index -> evaluation-order position for the
// plaintext-CRT slot layout: slot j < n/2 reads the evaluation at
// psi^(3^j) (row 0), slot n/2 + j the evaluation at psi^(-3^j) (row 1).
// n must be a power of two >= 4 (the orbit structure of 3 needs it).
func SlotPositions(n int) ([]int32, error) {
	if n < 4 || n&(n-1) != 0 {
		return nil, fmt.Errorf("ring: slot layout needs a power-of-two degree >= 4, got %d", n)
	}
	twoN := uint64(2 * n)
	m := bits.TrailingZeros64(uint64(n))
	rows := n / 2
	pos := make([]int32, n)
	e := uint64(1)
	for j := 0; j < rows; j++ {
		pos[j] = int32(bitrev((e-1)/2, m))
		pos[j+rows] = int32(bitrev((twoN-e-1)/2, m))
		e = e * SlotGenerator % twoN
	}
	return pos, nil
}
