package kernels

import (
	"fmt"

	"mqxgo/internal/modmath"
)

// DWPair is a double-word value in a backend's word type: Hi holds bits
// 64..127 of each lane, Lo bits 0..63 (the paper's [x0, x1] notation).
type DWPair[W any] struct {
	Hi, Lo W
}

// MulAlgorithm selects the 128x128 widening product inside DW.MulMod.
type MulAlgorithm int

const (
	// Schoolbook uses four 64x64 multiplications (Eq. 8). The paper finds
	// it faster than Karatsuba on CPUs in nearly every configuration
	// (Section 5.5), and it is the product every runtime path computes
	// (modmath.Modulus128.Mul, the ring's Barrett128 spans).
	Schoolbook MulAlgorithm = iota
	// Karatsuba uses three 64x64 multiplications plus extra additions
	// (Eq. 9). Only the modeled Section 5.5 comparison records it.
	Karatsuba
)

// DW provides double-word modular arithmetic over a backend, holding the
// broadcast modulus and Barrett constants. Construct before BeginLoop.
type DW[W, C any] struct {
	O   Ops[W, C]
	Mod *modmath.Modulus128

	QHi, QLo   W
	MuHi, MuLo W
	zeroW      W
	n          uint
	alg        MulAlgorithm
}

// NewDW broadcasts the modulus and Barrett constants for the backend;
// alg selects MulMod's widening product.
func NewDW[W, C any](o Ops[W, C], mod *modmath.Modulus128, alg MulAlgorithm) *DW[W, C] {
	return &DW[W, C]{
		O:     o,
		Mod:   mod,
		QHi:   o.Broadcast(mod.Q.Hi),
		QLo:   o.Broadcast(mod.Q.Lo),
		MuHi:  o.Broadcast(mod.Mu.Hi),
		MuLo:  o.Broadcast(mod.Mu.Lo),
		zeroW: o.Broadcast(0),
		n:     mod.N,
		alg:   alg,
	}
}

// AddMod computes (a + b) mod q for reduced double-word inputs, following
// the structure of Listings 2 and 3: full-width add with carry, compare
// against the modulus, conditional subtract. Unlike Listing 3 the
// equal-high-words case is handled exactly.
func (d *DW[W, C]) AddMod(a, b DWPair[W]) DWPair[W] {
	o := d.O
	el, c1 := o.AddOut(a.Lo, b.Lo)
	eh, c2 := o.Adc(a.Hi, b.Hi, c1)

	// ctrl = carry-out | (sum >= q), comparing (eh, el) against (QHi, QLo).
	gt := o.CmpLt(d.QHi, eh)
	eq := o.CmpEq(d.QHi, eh)
	ge := o.CmpLe(d.QLo, el)
	ctrl := o.COr(c2, o.COr(gt, o.CAnd(eq, ge)))

	dl, b1 := o.SubOut(el, d.QLo)
	cl := o.Select(ctrl, el, dl)
	var ch W
	if p, ok := o.(PredOps[W, C]); ok && p.HasPredication() {
		// +P: the predicated subtract replaces the sub+blend pair.
		ch = p.PredSub(ctrl, eh, d.QHi, b1)
	} else {
		dh := d.subPair(eh, d.QHi, b1)
		ch = o.Select(ctrl, eh, dh)
	}
	return DWPair[W]{Hi: ch, Lo: cl}
}

// subPair returns a - b - bi without a borrow-out.
func (d *DW[W, C]) subPair(a, b W, bi C) W {
	t := d.O.Sub(a, b)
	return d.O.SubCW(t, bi)
}

// SubMod computes (a - b) mod q for reduced inputs (Eq. 7 plus the
// conditional add-back of Eq. 3).
func (d *DW[W, C]) SubMod(a, b DWPair[W]) DWPair[W] {
	o := d.O
	dl, b1 := o.SubOut(a.Lo, b.Lo)
	dh, b2 := o.Sbb(a.Hi, b.Hi, b1) // b2 set where a < b

	el, c1 := o.AddOut(dl, d.QLo)
	cl := o.Select(b2, dl, el)
	var ch W
	if p, ok := o.(PredOps[W, C]); ok && p.HasPredication() {
		ch = p.PredAdd(b2, dh, d.QHi, c1)
	} else {
		eh := o.AddCW(o.Add(dh, d.QHi), c1)
		ch = o.Select(b2, dh, eh)
	}
	return DWPair[W]{Hi: ch, Lo: cl}
}

// quad is a 256-bit lane value, least significant word first.
type quad[W any] struct{ w0, w1, w2, w3 W }

// MulMod computes (a * b) mod q via Barrett reduction (Eq. 4), with the
// 128x128 widening product chosen by the DW's multiplication algorithm
// (schoolbook Eq. 8 or Karatsuba Eq. 9).
func (d *DW[W, C]) MulMod(a, b DWPair[W]) DWPair[W] {
	o := d.O
	var t quad[W]
	if d.alg == Karatsuba {
		t = d.mul128Karatsuba(a, b)
	} else {
		t = d.mul128Schoolbook(a, b)
	}

	// u = t >> (n-1): a 128-bit value (the shift amount is in [64, 128)).
	u := d.shrQuadTo128(t, d.n-1)

	// v = u * mu, then qhat = (v >> (n+1)) low 128 bits.
	var v quad[W]
	if d.alg == Karatsuba {
		v = d.mul128Karatsuba(u, DWPair[W]{Hi: d.MuHi, Lo: d.MuLo})
	} else {
		v = d.mul128Schoolbook(u, DWPair[W]{Hi: d.MuHi, Lo: d.MuLo})
	}
	qhat := d.shrQuadTo128(v, d.n+1)

	// w = low 128 bits of qhat * q.
	ph, pl := o.MulWide(qhat.Lo, d.QLo)
	x1 := o.MulLo(qhat.Lo, d.QHi)
	x2 := o.MulLo(qhat.Hi, d.QLo)
	wHi := o.Add(o.Add(ph, x1), x2)

	// r = (t mod 2^128) - w; the true remainder is < 3q < 2^126, so the
	// low 128 bits are exact.
	rl, br := o.SubOut(t.w0, pl)
	rh := d.subPair(t.w1, wHi, br)

	// At most two corrective subtractions of q (Barrett bound).
	r := DWPair[W]{Hi: rh, Lo: rl}
	r = d.condSubQ(r)
	r = d.condSubQ(r)
	return r
}

// condSubQ subtracts q when r >= q: subtract, then keep the original where
// the subtraction borrowed.
func (d *DW[W, C]) condSubQ(r DWPair[W]) DWPair[W] {
	o := d.O
	dl, b1 := o.SubOut(r.Lo, d.QLo)
	dh, b2 := o.Sbb(r.Hi, d.QHi, b1) // b2 set where r < q: keep r
	return DWPair[W]{
		Hi: o.Select(b2, dh, r.Hi),
		Lo: o.Select(b2, dl, r.Lo),
	}
}

// shrQuadTo128 returns (t >> s) truncated to 128 bits for 1 <= s < 128.
// Callers guarantee the true shifted value fits in 128 bits (the Barrett
// bounds: t >> (n-1) < 2^(n+1) and v >> (n+1) < 2^(n+1) with n <= 124).
func (d *DW[W, C]) shrQuadTo128(t quad[W], s uint) DWPair[W] {
	if s == 0 || s >= 128 {
		panic(fmt.Sprintf("kernels: shift %d outside [1,128)", s))
	}
	o := d.O
	w0, w1, w2 := t.w0, t.w1, t.w2
	if s >= 64 {
		w0, w1, w2 = t.w1, t.w2, t.w3
		s -= 64
	}
	if s == 0 {
		return DWPair[W]{Hi: w1, Lo: w0}
	}
	sl := 64 - s
	lo := o.Or(o.Shr(w0, s), o.Shl(w1, sl))
	hi := o.Or(o.Shr(w1, s), o.Shl(w2, sl))
	return DWPair[W]{Hi: hi, Lo: lo}
}

// mul128Schoolbook is the Eq. 8 widening product: four per-lane 64x64
// multiplications plus carry recombination.
func (d *DW[W, C]) mul128Schoolbook(a, b DWPair[W]) quad[W] {
	o := d.O
	hhH, hhL := o.MulWide(a.Hi, b.Hi)
	hlH, hlL := o.MulWide(a.Hi, b.Lo)
	lhH, lhL := o.MulWide(a.Lo, b.Hi)
	llH, llL := o.MulWide(a.Lo, b.Lo)

	s1, c1 := o.AddOut(llH, hlL)
	t1, c2 := o.AddOut(s1, lhL)

	s2, c3 := o.Adc(hhL, hlH, c1)
	t2, c4 := o.Adc(s2, lhH, c2)

	t3 := o.AddCW(o.AddCW(hhH, c3), c4)
	return quad[W]{w0: llL, w1: t1, w2: t2, w3: t3}
}

// mul128Karatsuba is the Eq. 9 widening product: three 64x64
// multiplications, at the price of the carry bookkeeping that the paper
// finds uncompetitive on CPUs (Section 5.5).
func (d *DW[W, C]) mul128Karatsuba(a, b DWPair[W]) quad[W] {
	o := d.O
	hhH, hhL := o.MulWide(a.Hi, b.Hi)
	llH, llL := o.MulWide(a.Lo, b.Lo)

	sa, ca := o.AddOut(a.Hi, a.Lo)
	sb, cb := o.AddOut(b.Hi, b.Lo)
	mH, mL := o.MulWide(sa, sb)

	// middle (192-bit) = m + ca*sb*2^64 + cb*sa*2^64 + (ca&cb)*2^128.
	mH, e1 := o.CondAddOut(mH, ca, sb)
	mH, e2 := o.CondAddOut(mH, cb, sa)
	ccBoth := o.CAnd(ca, cb)
	m2 := o.AddCW(o.AddCW(o.AddCW(d.zeroW, ccBoth), e1), e2)

	// middle -= hh + ll (never underflows).
	mL, b1 := o.SubOut(mL, llL)
	mH, b2 := o.Sbb(mH, llH, b1)
	m2 = o.SubCW(m2, b2)
	mL, b3 := o.SubOut(mL, hhL)
	mH, b4 := o.Sbb(mH, hhH, b3)
	m2 = o.SubCW(m2, b4)

	// result = hh*2^128 + middle*2^64 + ll.
	t1, c1 := o.AddOut(llH, mL)
	t2, c2 := o.Adc(hhL, mH, c1)
	t2b, c4 := o.AddOut(t2, m2)
	t3 := o.AddCW(o.AddCW(hhH, c2), c4)
	return quad[W]{w0: llL, w1: t1, w2: t2b, w3: t3}
}
