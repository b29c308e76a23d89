package rns

import (
	"fmt"
	"math/big"

	"mqxgo/internal/ring"
	"mqxgo/internal/scratch"
)

// This file implements the RNS base-management trio that a BFV-style
// homomorphic multiply needs on top of the tower machinery in poly.go,
// following the BEHZ construction [Bajard-Eynard-Hasan-Zucca 2016]:
//
//   - BaseConverter: the approximate fast base conversion FastBConv from a
//     base Q to a disjoint base P. Given residues x_i of x in [0, Q), it
//     computes residues of x + alpha*Q in base P for some overshoot
//     0 <= alpha < k. The overshoot is the defining trade of FastBConv: no
//     per-coefficient big-integer reconstruction, just a weighted sum of k
//     digit rows per output tower, and the alpha*Q error is either harmless
//     (it vanishes mod Q, and divides down to an additive error < k after
//     a divide-by-Q rescale) or repaired by the exact converter below.
//   - MontBaseConverter: FastBConv with the overshoot removed by a small
//     Montgomery reduction modulo an auxiliary power of two m~.
//   - SKConverter: the exact Shenoy-Kumaresan conversion out of an
//     extension base whose last tower is a redundant modulus m_sk. Because
//     the converted value's residue mod m_sk is carried alongside base P,
//     the FastBConv overshoot gamma can be recovered exactly
//     (gamma = (FastBConv(y) - y) * P^-1 mod m_sk, valid while
//     gamma < m_sk) and subtracted, so values |y| < P/2 convert without
//     error — the step that brings a rescaled ciphertext product back to
//     base Q bit-exactly.
//   - Rescaler: divide-and-round by the last tower of a base
//     (round(x / q_{k-1}) into the prefix base), the BGV/CKKS-style
//     modulus-switch primitive.
//
// Every output tower of every step is the canonical residue of an
// integer-linear expression in rows that already exist, so each is ONE
// call to ring.AffineRows — dst = c0 + sum_r rows[r]*w[r] mod p, on the
// plan's kernel tier — with the constants folded into weights at build:
//
//	step                    rows                     weights (mod the output prime)
//	FastBConv tower j       z_0..z_{k-1}             (Q/q_i)
//	m~-corrected tower j    z_0..z_{k-1}, r, [r>m~/2]  (Q/q_i)*m~^-1, Q*m~^-1, -Q
//	SK overshoot gamma      z_0..z_{l-1}, y_sk       (P/p_i)*P^-1, -P^-1   (mod m_sk)
//	SK output tower j       z_0..z_{l-1}, gamma      (P/p_i), -P
//	rescale tower i         a_i, u                   q_k^-1, -q_k^-1;  c0 = h*q_k^-1
//
// The kernel's lazy Shoup product is exact for ANY 64-bit row entry,
// which is what lets a digit z_i < q_i feed a tower with a smaller prime
// p_j, a remainder u < q_k feed every prefix tower unreduced, and every
// entry point tolerate lazy [0, 2q) inputs; it has no headroom condition
// on prime width or row count. With pooled scratch, all conversions are
// allocation-free in steady state.

// convScratch pools the rows a conversion works on, one batch: the digit
// rows (z views them as a Poly) followed by the rows the converter
// appends to the sum. list is the row list handed to ring.AffineRows: a
// copy of the batch's headers (z's rows, then extra's), so a converter may
// point an entry at a caller's row for one call.
type convScratch struct {
	z     Poly
	extra [][]uint64
	list  [][]uint64
}

// initConvPool sets p to hand out frames of digits+extra rows of n words.
// Only the rows are poisoned: list may hold a caller's row after a call.
func initConvPool(p *scratch.Pool[convScratch], n, digits, extra int) {
	p.New = func() *convScratch {
		rows := ring.AllocBatch[uint64](n, digits+extra)
		return &convScratch{
			z:     Poly{Res: rows[:digits:digits]},
			extra: rows[digits:],
			list:  append([][]uint64(nil), rows...),
		}
	}
	p.Poison = func(sc *convScratch) {
		scratch.FillRows(sc.z.Res)
		scratch.FillRows(sc.extra)
	}
}

// crtWeights returns (Q/q_i) mod p for every tower i of from.
func crtWeights(from *Context, p uint64) []uint64 {
	pb := new(big.Int).SetUint64(p)
	t := new(big.Int)
	w := make([]uint64, from.Channels())
	for i := range w {
		w[i] = t.Mod(from.qi[i], pb).Uint64()
	}
	return w
}

// BaseConverter converts polynomials from base Q (the from context) to a
// base P (the to context) by approximate fast base conversion.
type BaseConverter struct {
	from, to *Context

	// sum[j] weighs the digit rows into tower j: (Q/q_i) mod p_j.
	sum []ring.Affine

	scratch scratch.Pool[convScratch]
}

// NewBaseConverter precomputes the conversion tables between two contexts
// of the same transform size.
func NewBaseConverter(from, to *Context) (*BaseConverter, error) {
	if from.N != to.N {
		return nil, fmt.Errorf("rns: base sizes differ: %d vs %d", from.N, to.N)
	}
	bc := &BaseConverter{from: from, to: to}
	for _, mod := range to.Mods {
		bc.sum = append(bc.sum, ring.NewAffine(mod, 0, crtWeights(from, mod.Q)...))
	}
	initConvPool(&bc.scratch, from.N, from.Channels(), 0)
	return bc, nil
}

// ConvertInto writes the fast base conversion of src (in the from base)
// into dst (in the to base): residues of x + alpha*Q with 0 <= alpha < k,
// where x in [0, Q) is the value src represents and k is the source tower
// count. src rows may carry lazy [0, 2q) residues; dst is canonical.
// Steady-state it allocates nothing.
func (bc *BaseConverter) ConvertInto(dst, src Poly) error {
	if err := bc.from.checkPoly(src); err != nil {
		return err
	}
	if err := bc.to.checkPoly(dst); err != nil {
		return err
	}
	sc := bc.scratch.Get()
	// Digits z_i = x_i * (Q/q_i)^-1 mod q_i, canonical.
	for i, plan := range bc.from.Plans {
		plan.Generic().ScalarMulInto(sc.z.Res[i], src.Res[i], bc.from.qiInv[i])
	}
	// dst_j = sum_i z_i * (Q/q_i) mod p_j, one kernel call per tower.
	for j, plan := range bc.to.Plans {
		ring.AffineRows(plan.Generic(), dst.Res[j], bc.sum[j], sc.z.Res)
	}
	bc.scratch.Put(sc)
	return nil
}

// MontBaseConverter is the m-tilde-corrected fast base conversion of BEHZ
// §3.2 (the small Montgomery reduction SmMRq): it converts x in base Q to a
// base P with the FastBConv overshoot alpha*Q (0 <= alpha < k) removed, at
// the cost of one extra residue channel modulo a small auxiliary modulus
// m~ and two more rows in every tower's sum.
//
// The trick, folded into the digit constants so no caller-side scaling is
// needed: instead of converting x, convert X = [m~ * x]_Q (its digits are
// just x_i * (m~ * (Q/q_i)^-1) mod q_i, one fused scalar multiply per
// tower). The weighted digit sum V = sum_i z_i*(Q/q_i) equals
// m~*x + (alpha - beta)*Q for overshoots alpha < k, beta < m~, and V's
// residue modulo m~ is computable from the digits alone. Choosing
// r = [-V * Q^-1]_m~ (centered) makes V + r*Q divisible by m~, and
//
//	y = (V + r*Q) / m~ = x + gamma*Q  with gamma in {-1, 0}
//
// (the multiple of m~ nearest alpha - beta + r is 0 or -m~ because
// alpha < m~/2). So the converted operand's magnitude is bounded by Q
// instead of k*Q — the operand overshoot PR 4 documented and absorbed into
// the multiply noise constant is gone, which is what lets
// fhe.MulNoiseBoundBits tighten its conversion term.
//
// Per output tower, (V + r*Q - [r > m~/2]*m~*Q) * m~^-1 is one kernel call
// over the digit rows, the r row and a 0/1 centering row, with m~^-1
// folded into every weight. Inputs may be lazy ([0, 2q)) and steady-state
// conversions allocate nothing; r itself is a masked multiply-accumulate
// per coefficient (m~ is a power of two).
type MontBaseConverter struct {
	from, to *Context
	mt       uint64 // m~, a power of two > 2*k

	digitMul []uint64 // (m~ * (Q/q_i)^-1) mod q_i: digits of [m~ x]_Q
	mRowMt   []uint64 // (Q/q_i) mod m~
	negQInv  uint64   // (-Q^-1) mod m~

	// sum[j] weighs (z_0..z_{k-1}, r, [r > m~/2]) into tower j:
	// (Q/q_i)*m~^-1, Q*m~^-1, -Q, all mod p_j.
	sum []ring.Affine

	scratch scratch.Pool[convScratch]
}

// NewMontBaseConverter precomputes the m-tilde-corrected conversion tables.
// mtilde must be a power of two with 2*k < mtilde <= 2^31 (k the source
// tower count); 1<<16 is a safe default for any basis this package builds.
func NewMontBaseConverter(from, to *Context, mtilde uint64) (*MontBaseConverter, error) {
	if from.N != to.N {
		return nil, fmt.Errorf("rns: base sizes differ: %d vs %d", from.N, to.N)
	}
	if mtilde == 0 || mtilde&(mtilde-1) != 0 || mtilde > 1<<31 {
		return nil, fmt.Errorf("rns: m~ %d is not a power of two <= 2^31", mtilde)
	}
	if mtilde <= 2*uint64(from.Channels()) {
		return nil, fmt.Errorf("rns: m~ %d too small for %d towers", mtilde, from.Channels())
	}
	bc := &MontBaseConverter{from: from, to: to, mt: mtilde}
	t := new(big.Int)
	mtBig := new(big.Int).SetUint64(mtilde)
	// Q is odd (product of odd primes), so Q^-1 mod the power of two exists.
	qInvMt := new(big.Int).ModInverse(from.Q, mtBig)
	if qInvMt == nil {
		return nil, fmt.Errorf("rns: Q not invertible mod m~ %d", mtilde)
	}
	bc.negQInv = (mtilde - qInvMt.Uint64()) & (mtilde - 1)
	for i, mod := range from.Mods {
		if mod.Q <= mtilde {
			return nil, fmt.Errorf("rns: source prime %d not above m~ %d", mod.Q, mtilde)
		}
		bc.digitMul = append(bc.digitMul, mod.Mul(mtilde%mod.Q, from.qiInv[i]))
		bc.mRowMt = append(bc.mRowMt, t.Mod(from.qi[i], mtBig).Uint64())
	}
	for _, mod := range to.Mods {
		inv := mod.Inv(mtilde % mod.Q)
		qModP := t.Mod(from.Q, new(big.Int).SetUint64(mod.Q)).Uint64()
		w := crtWeights(from, mod.Q)
		for i := range w {
			w[i] = mod.Mul(w[i], inv)
		}
		w = append(w, mod.Mul(qModP, inv), mod.Neg(qModP))
		bc.sum = append(bc.sum, ring.NewAffine(mod, 0, w...))
	}
	initConvPool(&bc.scratch, from.N, from.Channels(), 2)
	return bc, nil
}

// ConvertInto writes the m-tilde-corrected conversion of src into dst: for
// every coefficient x in [0, Q) of src, dst receives the residues of
// y = x + gamma*Q with gamma in {-1, 0} (so |y| < Q — no k*Q overshoot).
// src rows may carry lazy [0, 2q) residues; dst is canonical. Steady-state
// it allocates nothing.
func (bc *MontBaseConverter) ConvertInto(dst, src Poly) error {
	if err := bc.from.checkPoly(src); err != nil {
		return err
	}
	if err := bc.to.checkPoly(dst); err != nil {
		return err
	}
	sc := bc.scratch.Get()
	z, r, center := sc.z, sc.extra[0], sc.extra[1]
	mask := bc.mt - 1
	// Digits of X = [m~ x]_Q, one fused scalar multiply per tower.
	for i, plan := range bc.from.Plans {
		plan.Generic().ScalarMulInto(z.Res[i], src.Res[i], bc.digitMul[i])
	}
	// r = [-V * Q^-1]_m~ per coefficient, from the digit residues mod m~.
	// Row-sequential accumulation with plain wrapping adds: m~ is a power
	// of two dividing 2^64, so overflow mod 2^64 preserves the residue
	// mod m~ and a single final mask suffices — same r, streaming passes
	// instead of a strided per-coefficient walk over the digit rows.
	clear(r)
	for i, zr := range z.Res {
		zr = zr[:len(r)]
		wmt := bc.mRowMt[i]
		for j := range r {
			r[j] += (zr[j] & mask) * wmt
		}
	}
	// r is centered in (-m~/2, m~/2]: values above m~/2 stand for r - m~,
	// which the 0/1 row carries into the sum with weight -m~*Q*m~^-1 = -Q.
	half := bc.mt / 2
	center = center[:len(r)]
	for j := range r {
		v := ((r[j] & mask) * bc.negQInv) & mask
		r[j] = v
		center[j] = (half - v) >> 63
	}
	for j, plan := range bc.to.Plans {
		ring.AffineRows(plan.Generic(), dst.Res[j], bc.sum[j], sc.list)
	}
	bc.scratch.Put(sc)
	return nil
}

// SKConverter converts exactly from an extension base {p_0..p_{l-1}, m_sk}
// — the from context, whose LAST tower is the redundant Shenoy-Kumaresan
// modulus — to a base Q (the to context). P denotes the product of the
// first l towers only.
type SKConverter struct {
	from, to *Context
	l        int // towers of P (from minus the redundant modulus)

	piInv []uint64 // (P/p_i)^-1 mod p_i

	// gamma weighs (z_0..z_{l-1}, y_sk) into the overshoot count mod m_sk:
	// (P/p_i)*P^-1, -P^-1. sum[j] weighs (z_0..z_{l-1}, gamma) into tower
	// j: (P/p_i), -P, mod q_j.
	gamma ring.Affine
	sum   []ring.Affine

	scratch scratch.Pool[convScratch]
}

// NewSKConverter precomputes the exact-conversion tables. The from context
// must have at least two towers (base P plus the redundant modulus).
func NewSKConverter(from, to *Context) (*SKConverter, error) {
	if from.N != to.N {
		return nil, fmt.Errorf("rns: base sizes differ: %d vs %d", from.N, to.N)
	}
	if from.Channels() < 2 {
		return nil, fmt.Errorf("rns: Shenoy-Kumaresan base needs >= 2 towers, got %d", from.Channels())
	}
	l := from.Channels() - 1
	p := big.NewInt(1)
	for i := 0; i < l; i++ {
		p.Mul(p, new(big.Int).SetUint64(from.Mods[i].Q))
	}
	sk := &SKConverter{from: from, to: to, l: l}
	t := new(big.Int)
	pis := make([]*big.Int, l) // pis[i] = P/p_i
	for i := 0; i < l; i++ {
		mod := from.Mods[i]
		qb := new(big.Int).SetUint64(mod.Q)
		pis[i] = new(big.Int).Div(p, qb)
		sk.piInv = append(sk.piInv, mod.Inv(t.Mod(pis[i], qb).Uint64()))
	}
	// weights returns (P/p_i) mod q for every i, then P mod q.
	weights := func(q uint64) []uint64 {
		qb := new(big.Int).SetUint64(q)
		w := make([]uint64, l+1)
		for i := 0; i < l; i++ {
			w[i] = t.Mod(pis[i], qb).Uint64()
		}
		w[l] = t.Mod(p, qb).Uint64()
		return w
	}
	skMod := from.Mods[l]
	w := weights(skMod.Q)
	pInv := skMod.Inv(w[l])
	for i := 0; i < l; i++ {
		w[i] = skMod.Mul(w[i], pInv)
	}
	w[l] = skMod.Neg(pInv)
	sk.gamma = ring.NewAffine(skMod, 0, w...)
	for _, mod := range to.Mods {
		w := weights(mod.Q)
		w[l] = mod.Neg(w[l])
		sk.sum = append(sk.sum, ring.NewAffine(mod, 0, w...))
	}
	initConvPool(&sk.scratch, from.N, l, 1)
	return sk, nil
}

// ConvertInto writes the exact conversion of src into dst. src must hold
// consistent residues (across all from towers, including m_sk) of a
// centered value y with |y| < P/2; dst receives y mod q_j exactly —
// negative y wrap to q_j - |y| as ordinary signed residues do. src rows
// may carry lazy [0, 2q) residues. Steady-state it allocates nothing.
func (sk *SKConverter) ConvertInto(dst, src Poly) error {
	if err := sk.from.checkPoly(src); err != nil {
		return err
	}
	if err := sk.to.checkPoly(dst); err != nil {
		return err
	}
	sc := sk.scratch.Get()
	// Digits over base P only.
	for i := 0; i < sk.l; i++ {
		sk.from.Plans[i].Generic().ScalarMulInto(sc.z.Res[i], src.Res[i], sk.piInv[i])
	}
	// gamma = (FastBConv_{P->m_sk}(y) - y) * P^-1 mod m_sk: the exact
	// overshoot count, recoverable because 0 <= gamma <= l < m_sk. The
	// redundant tower's row takes the list's last slot for this one call.
	g := sc.extra[0]
	sc.list[sk.l] = src.Res[sk.l]
	ring.AffineRows(sk.from.Plans[sk.l].Generic(), g, sk.gamma, sc.list)
	sc.list[sk.l] = g
	// dst_j = sum_i z_i*(P/p_i) - gamma*P mod q_j.
	for j, plan := range sk.to.Plans {
		ring.AffineRows(plan.Generic(), dst.Res[j], sk.sum[j], sc.list)
	}
	sk.scratch.Put(sc)
	return nil
}

// Rescaler divides polynomials in the from base by the from base's last
// tower prime, rounding to nearest, into the to base (the prefix of from
// with the last tower dropped).
type Rescaler struct {
	from, to *Context

	half uint64 // h = floor(q_{k-1} / 2)

	// With inv[i] = q_{k-1}^-1 mod q_i and the remainder u = [x_{k-1} + h]:
	// coef[i] weighs (a_i, u) into (a_i + h - u)*inv, the coefficient-domain
	// tower; corr[i] weighs (u) into the correction (h - u)*inv, which the
	// resident path transforms and adds to a_i*inv.
	inv        []uint64
	coef, corr []ring.Affine

	scratch scratch.Pool[convScratch]
}

// NewRescaler validates that to is the prefix of from with the last tower
// dropped and precomputes the rescale constants.
func NewRescaler(from, to *Context) (*Rescaler, error) {
	if from.N != to.N {
		return nil, fmt.Errorf("rns: base sizes differ: %d vs %d", from.N, to.N)
	}
	if to.Channels() != from.Channels()-1 {
		return nil, fmt.Errorf("rns: rescale target must drop exactly the last tower: %d vs %d towers",
			to.Channels(), from.Channels())
	}
	qk := from.Mods[from.Channels()-1].Q
	r := &Rescaler{from: from, to: to, half: qk / 2}
	for i, mod := range to.Mods {
		if mod.Q != from.Mods[i].Q {
			return nil, fmt.Errorf("rns: rescale target tower %d prime %d != source %d", i, mod.Q, from.Mods[i].Q)
		}
		inv := mod.Inv(qk % mod.Q)
		negInv := mod.Neg(inv)
		hInv := mod.Mul(r.half%mod.Q, inv)
		r.inv = append(r.inv, inv)
		r.coef = append(r.coef, ring.NewAffine(mod, hInv, inv, negInv))
		r.corr = append(r.corr, ring.NewAffine(mod, hInv, negInv))
	}
	// extra[0] is the remainder row u, extra[1+i] tower i's correction row.
	initConvPool(&r.scratch, from.N, 0, 1+to.Channels())
	return r, nil
}

// remainderInto writes u[j] = (x_{k-1} + h) mod q_{k-1}, the
// rounded-division remainder, from the dropped tower's coefficients
// (lazy [0, 2q) tolerated).
func (r *Rescaler) remainderInto(u, last []uint64) {
	qk := r.from.Mods[r.from.Channels()-1].Q
	last = last[:len(u)]
	for j := range u {
		v := last[j]
		if v >= qk {
			v -= qk
		}
		s := v + r.half // < 2*q_k, no overflow: q_k < 2^62
		if s >= qk {
			s -= qk
		}
		u[j] = s
	}
}

// RescaleInto writes round(x / q_{k-1}) into dst for every coefficient x
// of a: dst_i = (x_i + h - [x_{k-1} + h]_{q_{k-1}}) * q_{k-1}^-1 mod q_i
// with h = floor(q_{k-1}/2), the divide-and-round that drops the last
// tower. Input rows may be lazy ([0, 2q)); dst is canonical. dst rows may
// alias a's prefix rows. Steady-state it allocates nothing.
func (r *Rescaler) RescaleInto(dst, a Poly) error {
	if err := r.from.checkPoly(a); err != nil {
		return err
	}
	if err := r.to.checkPoly(dst); err != nil {
		return err
	}
	sc := r.scratch.Get()
	u := sc.extra[0]
	r.remainderInto(u, a.Res[r.from.Channels()-1])
	rows := sc.list[:2]
	rows[1] = u
	for i, plan := range r.to.Plans {
		rows[0] = a.Res[i]
		ring.AffineRows(plan.Generic(), dst.Res[i], r.coef[i], rows)
	}
	r.scratch.Put(sc)
	return nil
}

// RescaleNTTInto is RescaleInto for an NTT-RESIDENT polynomial: a's towers
// hold twisted-evaluation (double-CRT) values and dst receives the rescale
// result in the same domain, without ever materializing the prefix towers
// in coefficient form. Only the dropped tower is inverse-transformed (its
// remainder u is inherently positional); each prefix tower then builds the
// correction polynomial w_i = (h - u) * q_k^-1 mod q_i, forward-transforms
// it, and lands dst_i = a_i * q_k^-1 + NTT(w_i) — bit-identical to
// RescaleInto composed with transforms, by NTT linearity. The per-tower
// work (one transform between two span passes) is one tower dispatch
// (runTowers): workers 0 means GOMAXPROCS, 1 runs on the caller. dst
// rows may alias a's prefix rows. Input rows may be lazy ([0, 2q)); dst
// is canonical.
func (r *Rescaler) RescaleNTTInto(dst, a Poly, workers int) error {
	if err := r.from.checkPoly(a); err != nil {
		return err
	}
	if err := r.to.checkPoly(dst); err != nil {
		return err
	}
	sc := r.scratch.Get()
	u := sc.extra[0]
	kq := r.from.Channels() - 1
	r.from.Plans[kq].Generic().NegacyclicInverseInto(u, a.Res[kq])
	r.remainderInto(u, u)
	runTowers(workers, towerOp{step: rescaleNTTTower, c: r.to, r: r, sc: sc, dst: dst, a: a})
	r.scratch.Put(sc)
	return nil
}

// rescaleNTTTower finishes one prefix tower of a resident rescale from the
// shared remainder row.
func rescaleNTTTower(t *towerOp, i int) {
	plan := t.c.Plans[i].Generic()
	w := t.sc.extra[1+i]
	ring.AffineRows(plan, w, t.r.corr[i], t.sc.extra[:1])
	plan.NegacyclicForwardInto(w, w)
	// w is canonical; the scale-accumulate's Shoup product is exact for any
	// 64-bit multiplicand, so a_i may be lazy.
	plan.ScaleAddInto(t.dst.Res[i], w, t.a.Res[i], t.r.inv[i])
}
