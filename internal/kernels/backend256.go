package kernels

import "mqxgo/internal/vm"

// B256 is the AVX2 backend: four 64-bit lanes, no mask registers, no
// unsigned compares. Conditions are lane masks (all-ones/all-zeros) held in
// ordinary vector registers; unsigned comparisons pay the sign-flip
// emulation; carry insertion exploits that an all-ones mask is -1, so
// subtracting a condition adds one.
type B256 struct {
	M *vm.Machine

	signFlip vm.V4 // broadcast 2^63
	allOnes  vm.V4
}

var _ Ops[vm.V4, vm.V4] = (*B256)(nil)

// NewB256 builds the AVX2 backend. Call before m.BeginLoop.
func NewB256(m *vm.Machine) *B256 {
	return &B256{
		M:        m,
		signFlip: m.Set1x4(1 << 63),
		allOnes:  m.Set1x4(^uint64(0)),
	}
}

// Lanes implements Ops.
func (b *B256) Lanes() int { return 4 }

// Broadcast implements Ops.
func (b *B256) Broadcast(x uint64) vm.V4 { return b.M.Set1x4(x) }

// Load implements Ops.
func (b *B256) Load(s []uint64, i int) vm.V4 { return b.M.Load4(s, i) }

// Store implements Ops.
func (b *B256) Store(s []uint64, i int, w vm.V4) { b.M.Store4(s, i, w) }

// Add implements Ops.
func (b *B256) Add(a, x vm.V4) vm.V4 { return b.M.Add4(a, x) }

// Sub implements Ops.
func (b *B256) Sub(a, x vm.V4) vm.V4 { return b.M.Sub4(a, x) }

// MulWide implements Ops via the VPMULUDQ decomposition.
func (b *B256) MulWide(a, x vm.V4) (hi, lo vm.V4) {
	m := b.M
	sa := m.SrlI4(a, 32)
	sx := m.SrlI4(x, 32)
	ll := m.MulUDQ4(a, x)
	hl := m.MulUDQ4(sa, x)
	lh := m.MulUDQ4(a, sx)
	hh := m.MulUDQ4(sa, sx)
	mid := m.Add4(hl, m.SrlI4(ll, 32))
	midLo := m.SrlI4(m.SllI4(mid, 32), 32)
	mid2 := m.Add4(lh, midLo)
	hi = m.Add4(m.Add4(hh, m.SrlI4(mid, 32)), m.SrlI4(mid2, 32))
	lo = m.Or4(m.SllI4(mid2, 32), m.SrlI4(m.SllI4(ll, 32), 32))
	return hi, lo
}

// MulLo implements Ops. AVX2 has no 64-bit multiply-low, so it is
// synthesized from three VPMULUDQ partial products.
func (b *B256) MulLo(a, x vm.V4) vm.V4 {
	m := b.M
	ll := m.MulUDQ4(a, x)
	hl := m.MulUDQ4(m.SrlI4(a, 32), x)
	lh := m.MulUDQ4(a, m.SrlI4(x, 32))
	cross := m.SllI4(m.Add4(hl, lh), 32)
	return m.Add4(ll, cross)
}

// ltU is the emulated unsigned a < x (two sign flips + signed compare).
func (b *B256) ltU(a, x vm.V4) vm.V4 {
	af := b.M.Xor4(a, b.signFlip)
	xf := b.M.Xor4(x, b.signFlip)
	return b.M.CmpGtQ4(xf, af)
}

// AddOut implements Ops.
func (b *B256) AddOut(a, x vm.V4) (vm.V4, vm.V4) {
	s := b.M.Add4(a, x)
	return s, b.ltU(s, a)
}

// Adc implements Ops. Adding the carry is a subtraction of the mask
// (all-ones == -1).
func (b *B256) Adc(a, x vm.V4, ci vm.V4) (vm.V4, vm.V4) {
	t0 := b.M.Add4(a, x)
	t1 := b.M.Sub4(t0, ci)
	q0 := b.ltU(t1, a)
	q1 := b.ltU(t1, x)
	return t1, b.M.Or4(q0, q1)
}

// AddCW implements Ops.
func (b *B256) AddCW(a vm.V4, ci vm.V4) vm.V4 { return b.M.Sub4(a, ci) }

// SubOut implements Ops.
func (b *B256) SubOut(a, x vm.V4) (vm.V4, vm.V4) {
	return b.M.Sub4(a, x), b.ltU(a, x)
}

// Sbb implements Ops.
func (b *B256) Sbb(a, x vm.V4, bi vm.V4) (vm.V4, vm.V4) {
	d := b.M.Sub4(a, x)
	d2 := b.M.Add4(d, bi) // subtracting the borrow == adding the mask (-1)
	lt := b.ltU(a, x)
	eq := b.M.CmpEqQ4(a, x)
	return d2, b.M.Or4(lt, b.M.And4(eq, bi))
}

// SubCW implements Ops.
func (b *B256) SubCW(a vm.V4, bi vm.V4) vm.V4 { return b.M.Add4(a, bi) }

// CondAddOut implements Ops.
func (b *B256) CondAddOut(a vm.V4, cond vm.V4, x vm.V4) (vm.V4, vm.V4) {
	masked := b.M.And4(cond, x)
	s := b.M.Add4(a, masked)
	return s, b.ltU(s, a)
}

// CmpLt implements Ops.
func (b *B256) CmpLt(a, x vm.V4) vm.V4 { return b.ltU(a, x) }

// CmpLe implements Ops: !(x < a).
func (b *B256) CmpLe(a, x vm.V4) vm.V4 { return b.cnot(b.ltU(x, a)) }

// CmpEq implements Ops.
func (b *B256) CmpEq(a, x vm.V4) vm.V4 { return b.M.CmpEqQ4(a, x) }

// COr implements Ops.
func (b *B256) COr(a, x vm.V4) vm.V4 { return b.M.Or4(a, x) }

// CAnd implements Ops.
func (b *B256) CAnd(a, x vm.V4) vm.V4 { return b.M.And4(a, x) }

// cnot inverts a lane mask.
func (b *B256) cnot(a vm.V4) vm.V4 { return b.M.Xor4(a, b.allOnes) }

// Select implements Ops.
func (b *B256) Select(c vm.V4, a, x vm.V4) vm.V4 { return b.M.BlendV4(c, a, x) }

// Interleave implements Ops: unpack within 128-bit halves, then fix the
// half order with VPERM2I128.
func (b *B256) Interleave(even, odd vm.V4) (vm.V4, vm.V4) {
	lo := b.M.UnpackLo4(even, odd)    // [e0 o0 e2 o2]
	hi := b.M.UnpackHi4(even, odd)    // [e1 o1 e3 o3]
	r0 := b.M.Perm2x128(lo, hi, 0, 2) // [e0 o0 e1 o1]
	r1 := b.M.Perm2x128(lo, hi, 1, 3) // [e2 o2 e3 o3]
	return r0, r1
}

// Shr implements Ops.
func (b *B256) Shr(a vm.V4, n uint) vm.V4 { return b.M.SrlI4(a, n) }

// Shl implements Ops.
func (b *B256) Shl(a vm.V4, n uint) vm.V4 { return b.M.SllI4(a, n) }

// Or implements Ops.
func (b *B256) Or(a, x vm.V4) vm.V4 { return b.M.Or4(a, x) }
