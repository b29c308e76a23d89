package rns

import (
	"fmt"
	"math/big"

	"mqxgo/internal/ring"
	"mqxgo/internal/scratch"
)

// Poly is a polynomial in RNS form: Res[i][j] is coefficient j modulo
// prime i. Whether the rows hold coefficient-domain or evaluation-domain
// values is a caller convention: NegacyclicNTTAll/NegacyclicINTTAll move a
// Poly between the two, and MulAll consumes coefficient-domain inputs.
// Polys allocated by NewPoly keep all towers in one contiguous backing
// array, the layout the tower-parallel dispatch and future SIMD tiers
// want.
type Poly struct {
	Res [][]uint64
}

// NewPoly allocates a zero polynomial shaped for the context: k tower
// rows of n coefficients backed by a single flat array.
func (c *Context) NewPoly() Poly {
	return Poly{Res: ring.AllocBatch[uint64](c.N, c.Channels())}
}

// checkPoly validates that every argument has the context's tower count
// and row lengths.
func (c *Context) checkPoly(ps ...Poly) error {
	for _, p := range ps {
		if len(p.Res) != c.Channels() {
			return fmt.Errorf("rns: got %d towers, want %d", len(p.Res), c.Channels())
		}
		for i := range p.Res {
			if len(p.Res[i]) != c.N {
				return fmt.Errorf("rns: tower %d has %d coefficients, want %d", i, len(p.Res[i]), c.N)
			}
		}
	}
	return nil
}

// decScratch pools the big.Int temporaries of the wide-coefficient
// fallback and of ReconstructInto, so steady-state conversions allocate
// nothing.
type decScratch struct {
	t, term big.Int
}

var decPool = scratch.Pool[decScratch]{
	New: func() *decScratch { return new(decScratch) },
	Poison: func(sc *decScratch) {
		scratch.Fill(sc.t.Bits())
		scratch.Fill(sc.term.Bits())
	},
}

// DecomposeInto writes the RNS decomposition of coeffs into dst.
// Coefficients whose magnitude is below 2^(64*limbs(Q)) take the fast
// path: their 64-bit limbs are split into 32-bit halves (already reduced
// residues, since every basis prime exceeds 2^32) and folded against the
// precomputed Barrett limb tables 2^(32m) mod q_i — no big.Int
// arithmetic, zero steady-state allocations, with negative inputs
// finished by a single modular negation. Wider coefficients, bases with
// primes <= 2^32, and 32-bit-word platforms fall back to big.Int
// reduction.
func (c *Context) DecomposeInto(dst Poly, coeffs []*big.Int) error {
	if len(coeffs) != c.N {
		return fmt.Errorf("rns: got %d coefficients, want %d", len(coeffs), c.N)
	}
	if err := c.checkPoly(dst); err != nil {
		return err
	}
	sc := decPool.Get()
	for i, mod := range c.Mods {
		pw := c.pow32[i]
		row := dst.Res[i]
		for j, x := range coeffs {
			words := x.Bits()
			if !c.limbFast || len(words) > c.qLimbs {
				row[j] = sc.t.Mod(x, c.qBig[i]).Uint64()
				continue
			}
			r := uint64(0)
			for m, w := range words {
				r = mod.Add(r, mod.Mul(uint64(w)&0xffffffff, pw[2*m]))
				r = mod.Add(r, mod.Mul(uint64(w)>>32, pw[2*m+1]))
			}
			if x.Sign() < 0 {
				r = mod.Neg(r)
			}
			row[j] = r
		}
	}
	decPool.Put(sc)
	return nil
}

// ReconstructInto writes the CRT reconstruction of p into dst as
// big-integer coefficients in [0, Q): x = sum_i Qi * ((x_i * QiInv) mod
// q_i), corrected into range by at most k-1 subtractions of Q (the sum of
// k terms each below Q never reaches k*Q, so no division is needed). Nil
// entries of dst are allocated on first use; with reused dst buffers the
// steady state allocates nothing beyond big.Int capacity growth.
func (c *Context) ReconstructInto(dst []*big.Int, p Poly) error {
	if len(dst) != c.N {
		return fmt.Errorf("rns: got %d destination coefficients, want %d", len(dst), c.N)
	}
	if err := c.checkPoly(p); err != nil {
		return err
	}
	sc := decPool.Get()
	for j := 0; j < c.N; j++ {
		acc := dst[j]
		if acc == nil {
			acc = new(big.Int)
			dst[j] = acc
		}
		acc.SetUint64(0)
		for i, mod := range c.Mods {
			t := mod.Mul(p.Res[i][j], c.qiInv[i])
			sc.t.SetUint64(t)
			sc.term.Mul(c.qi[i], &sc.t)
			acc.Add(acc, &sc.term)
		}
		for acc.Cmp(c.Q) >= 0 {
			acc.Sub(acc, c.Q)
		}
	}
	decPool.Put(sc)
	return nil
}

// towerOp is one tower dispatch: step runs tower i on the operands.
type towerOp struct {
	step   func(t *towerOp, i int)
	c      *Context
	r      *Rescaler
	sc     *convScratch
	dst, a Poly
}

// towerCall is the pooled frame of one tower dispatch.
type towerCall struct {
	fan ring.Fanout
	towerOp
}

// towerCalls holds no data buffers, so it has no poison.
var towerCalls = scratch.Pool[towerCall]{New: func() *towerCall { return new(towerCall) }}

func (t *towerCall) RunRange(start, end int) {
	for i := start; i < end; i++ {
		t.step(&t.towerOp, i)
	}
}

// runTowers is the tower dispatch of NegacyclicNTTAll, NegacyclicINTTAll
// and Rescaler.RescaleNTTInto: op.step runs for every tower of op.c on at
// most workers goroutines (0 means GOMAXPROCS, 1 runs every tower on the
// caller), through one pooled frame whose ring.Fanout allocates nothing
// at any width.
func runTowers(workers int, op towerOp) {
	t := towerCalls.Get()
	t.towerOp = op
	t.fan.Run(op.c.Channels(), workers, t)
	t.towerOp = towerOp{}
	towerCalls.Put(t)
}

func forwardTower(t *towerOp, i int) {
	t.c.Plans[i].Generic().NegacyclicForwardInto(t.dst.Res[i], t.a.Res[i])
}

func inverseTower(t *towerOp, i int) {
	t.c.Plans[i].Generic().NegacyclicInverseInto(t.dst.Res[i], t.a.Res[i])
}

// MulAll computes the negacyclic product dst = a*b in Z_Q[x]/(x^n + 1),
// one tower after another, each running its twisted-NTT convolution.
// dst may alias a or b.
func (c *Context) MulAll(dst, a, b Poly) error {
	if err := c.checkPoly(dst, a, b); err != nil {
		return err
	}
	for i, p := range c.Plans {
		p.Generic().PolyMulNegacyclicInto(dst.Res[i], a.Res[i], b.Res[i])
	}
	return nil
}

// NegacyclicNTTAll converts every tower of a to the twisted evaluation
// domain into dst — the double-CRT resting state of an NTT-resident
// ciphertext, where pointwise products (PMulInto) are negacyclic
// convolutions. It is the domain MulAll uses internally. dst may alias a.
func (c *Context) NegacyclicNTTAll(dst, a Poly, workers int) error {
	if err := c.checkPoly(dst, a); err != nil {
		return err
	}
	runTowers(workers, towerOp{step: forwardTower, c: c, dst: dst, a: a})
	return nil
}

// NegacyclicINTTAll converts every tower of a from the twisted evaluation
// domain back to coefficient form into dst, with 1/N folded into the
// untwist pass. dst may alias a.
func (c *Context) NegacyclicINTTAll(dst, a Poly, workers int) error {
	if err := c.checkPoly(dst, a); err != nil {
		return err
	}
	runTowers(workers, towerOp{step: inverseTower, c: c, dst: dst, a: a})
	return nil
}

// AddInto computes dst = a + b tower-wise. dst may alias a or b.
func (c *Context) AddInto(dst, a, b Poly) error {
	if err := c.checkPoly(dst, a, b); err != nil {
		return err
	}
	for i, mod := range c.Mods {
		dr := dst.Res[i]
		ar, br := a.Res[i][:len(dr)], b.Res[i][:len(dr)]
		for j := range dr {
			dr[j] = mod.Add(ar[j], br[j])
		}
	}
	return nil
}

// SubInto computes dst = a - b tower-wise. dst may alias a or b.
func (c *Context) SubInto(dst, a, b Poly) error {
	if err := c.checkPoly(dst, a, b); err != nil {
		return err
	}
	for i, mod := range c.Mods {
		dr := dst.Res[i]
		ar, br := a.Res[i][:len(dr)], b.Res[i][:len(dr)]
		for j := range dr {
			dr[j] = mod.Sub(ar[j], br[j])
		}
	}
	return nil
}

// PMulInto computes the coefficient-wise (evaluation-form) product
// dst = a ∘ b, each tower on its plan's fused-kernel path. dst may alias
// a or b.
func (c *Context) PMulInto(dst, a, b Poly) error {
	if err := c.checkPoly(dst, a, b); err != nil {
		return err
	}
	for i, p := range c.Plans {
		p.Generic().PointwiseMulInto(dst.Res[i], a.Res[i], b.Res[i])
	}
	return nil
}
