package kernels

import (
	"mqxgo/internal/isa"
	"mqxgo/internal/vm"
)

// B512 is the 512-bit backend covering AVX-512 and every MQX variant: the
// feature flags select which primitives lower to native MQX instructions
// and which fall back to the AVX-512 emulation sequences, directly
// implementing the Figure 6 ablation grid.
type B512 struct {
	M *vm.Machine

	// NativeMulWide enables _mm512_mul_epi64 (+M).
	NativeMulWide bool
	// NativeMulHi enables the multiply-high alternative (+Mh): MulWide
	// lowers to a vpmullq/vpmulhq pair.
	NativeMulHi bool
	// NativeCarry enables _mm512_adc_epi64 / _mm512_sbb_epi64 (+C).
	NativeCarry bool
	// Predicated enables the +P predicated carry instructions.
	Predicated bool

	one    vm.V // broadcast 1, for emulated carry insertion
	zeroW  vm.V // broadcast 0, for native adc-based AddCW
	zeroC  vm.M
	idxEvn vm.V // permutation indices for Interleave
	idxOdd vm.V
}

var _ Ops[vm.V, vm.M] = (*B512)(nil)

// NewB512 builds a 512-bit backend for the given level. It must be called
// before m.BeginLoop so constants land in the preamble.
func NewB512(m *vm.Machine, level isa.Level) *B512 {
	b := &B512{M: m}
	switch level {
	case isa.LevelAVX512:
	case isa.LevelMQX:
		b.NativeMulWide, b.NativeCarry = true, true
	case isa.LevelMQXMulOnly:
		b.NativeMulWide = true
	case isa.LevelMQXCarryOnly:
		b.NativeCarry = true
	case isa.LevelMQXMulHi:
		b.NativeMulHi, b.NativeCarry = true, true
	case isa.LevelMQXPredicated:
		b.NativeMulWide, b.NativeCarry, b.Predicated = true, true, true
	default:
		panic("kernels: B512 does not implement level " + level.String())
	}
	b.one = m.Set1(1)
	b.zeroW = m.Set1(0)
	b.zeroC = m.SetMask(0)
	// Index-vector constants for the interleave permutes (loaded once,
	// hoisted to the preamble like any other constant).
	b.idxEvn = m.Set1(0)
	b.idxOdd = m.Set1(0)
	b.idxEvn.X = vm.Vec{0, 8, 1, 9, 2, 10, 3, 11}
	b.idxOdd.X = vm.Vec{4, 12, 5, 13, 6, 14, 7, 15}
	return b
}

// Lanes implements Ops.
func (b *B512) Lanes() int { return 8 }

// Broadcast implements Ops.
func (b *B512) Broadcast(x uint64) vm.V { return b.M.Set1(x) }

// Load implements Ops.
func (b *B512) Load(s []uint64, i int) vm.V { return b.M.Load(s, i) }

// Store implements Ops.
func (b *B512) Store(s []uint64, i int, w vm.V) { b.M.Store(s, i, w) }

// Add implements Ops.
func (b *B512) Add(a, x vm.V) vm.V { return b.M.Add(a, x) }

// Sub implements Ops.
func (b *B512) Sub(a, x vm.V) vm.V { return b.M.Sub(a, x) }

// MulWide implements Ops. Without MQX it is the classic VPMULUDQ
// decomposition: four 32x32 partial products recombined with shifts and
// adds (no carries needed; see the mulhu identity).
func (b *B512) MulWide(a, x vm.V) (hi, lo vm.V) {
	if b.NativeMulWide {
		return b.M.MulWide(a, x)
	}
	if b.NativeMulHi {
		return b.M.MulHi(a, x), b.M.MulLo(a, x)
	}
	m := b.M
	sa := m.SrlI(a, 32)
	sx := m.SrlI(x, 32)
	ll := m.MulUDQ(a, x)
	hl := m.MulUDQ(sa, x)
	lh := m.MulUDQ(a, sx)
	hh := m.MulUDQ(sa, sx)
	mid := m.Add(hl, m.SrlI(ll, 32))
	// mid2 = lh + (mid & 0xffffffff): mask via shift pair to avoid another
	// broadcast constant.
	midLo := m.SrlI(m.SllI(mid, 32), 32)
	mid2 := m.Add(lh, midLo)
	hi = m.Add(m.Add(hh, m.SrlI(mid, 32)), m.SrlI(mid2, 32))
	lo = m.Or(m.SllI(mid2, 32), m.SrlI(m.SllI(ll, 32), 32))
	return hi, lo
}

// MulLo implements Ops: VPMULLQ (AVX-512DQ) at every level.
func (b *B512) MulLo(a, x vm.V) vm.V { return b.M.MulLo(a, x) }

// AddOut implements Ops.
func (b *B512) AddOut(a, x vm.V) (vm.V, vm.M) {
	if b.NativeCarry {
		return b.M.Adc(a, x, b.zeroC)
	}
	s := b.M.Add(a, x)
	return s, b.M.CmpU(vm.CmpLt, s, a)
}

// Adc implements Ops: the Table 1 sequence when carries are emulated.
func (b *B512) Adc(a, x vm.V, ci vm.M) (vm.V, vm.M) {
	if b.NativeCarry {
		return b.M.Adc(a, x, ci)
	}
	m := b.M
	t0 := m.Add(a, x)
	t1 := m.MaskAdd(t0, ci, t0, b.one)
	q0 := m.CmpU(vm.CmpLt, t1, a)
	q1 := m.CmpU(vm.CmpLt, t1, x)
	return t1, m.KOr(q0, q1)
}

// AddCW implements Ops.
func (b *B512) AddCW(a vm.V, ci vm.M) vm.V {
	if b.NativeCarry {
		s, _ := b.M.Adc(a, b.zeroW, ci)
		return s
	}
	return b.M.MaskAdd(a, ci, a, b.one)
}

// SubOut implements Ops.
func (b *B512) SubOut(a, x vm.V) (vm.V, vm.M) {
	if b.NativeCarry {
		return b.M.Sbb(a, x, b.zeroC)
	}
	d := b.M.Sub(a, x)
	return d, b.M.CmpU(vm.CmpLt, a, x)
}

// Sbb implements Ops.
func (b *B512) Sbb(a, x vm.V, bi vm.M) (vm.V, vm.M) {
	if b.NativeCarry {
		return b.M.Sbb(a, x, bi)
	}
	m := b.M
	d := m.Sub(a, x)
	d2 := m.MaskSub(d, bi, d, b.one)
	lt := m.CmpU(vm.CmpLt, a, x)
	eq := m.CmpU(vm.CmpEq, a, x)
	return d2, m.KOr(lt, m.KAnd(eq, bi))
}

// SubCW implements Ops.
func (b *B512) SubCW(a vm.V, bi vm.M) vm.V {
	if b.NativeCarry {
		d, _ := b.M.Sbb(a, b.zeroW, bi)
		return d
	}
	return b.M.MaskSub(a, bi, a, b.one)
}

// CondAddOut implements Ops.
func (b *B512) CondAddOut(a vm.V, cond vm.M, x vm.V) (vm.V, vm.M) {
	s := b.M.MaskAdd(a, cond, a, x)
	return s, b.M.CmpU(vm.CmpLt, s, a)
}

// CmpLt implements Ops.
func (b *B512) CmpLt(a, x vm.V) vm.M { return b.M.CmpU(vm.CmpLt, a, x) }

// CmpLe implements Ops.
func (b *B512) CmpLe(a, x vm.V) vm.M { return b.M.CmpU(vm.CmpLe, a, x) }

// CmpEq implements Ops.
func (b *B512) CmpEq(a, x vm.V) vm.M { return b.M.CmpU(vm.CmpEq, a, x) }

// COr implements Ops.
func (b *B512) COr(a, x vm.M) vm.M { return b.M.KOr(a, x) }

// CAnd implements Ops.
func (b *B512) CAnd(a, x vm.M) vm.M { return b.M.KAnd(a, x) }

// Select implements Ops.
func (b *B512) Select(c vm.M, a, x vm.V) vm.V { return b.M.Blend(c, a, x) }

// Interleave implements Ops with two VPERMI2Q permutes.
func (b *B512) Interleave(even, odd vm.V) (vm.V, vm.V) {
	r0 := b.M.Permute2(b.idxEvn, even, odd)
	r1 := b.M.Permute2(b.idxOdd, even, odd)
	return r0, r1
}

// MinU implements MinUOps: VPMINUQ, native at every 512-bit level.
func (b *B512) MinU(a, x vm.V) vm.V { return b.M.MinU(a, x) }

// Shr implements Ops.
func (b *B512) Shr(a vm.V, n uint) vm.V { return b.M.SrlI(a, n) }

// Shl implements Ops.
func (b *B512) Shl(a vm.V, n uint) vm.V { return b.M.SllI(a, n) }

// Or implements Ops.
func (b *B512) Or(a, x vm.V) vm.V { return b.M.Or(a, x) }

// HasPredication implements PredOps.
func (b *B512) HasPredication() bool { return b.Predicated }

// PredAdd implements PredOps when the +P variant is selected.
func (b *B512) PredAdd(pred vm.M, a, x vm.V, ci vm.M) vm.V {
	if !b.Predicated {
		panic("kernels: PredAdd requires the predicated MQX variant")
	}
	return b.M.PredAdc(pred, a, x, ci)
}

// PredSub implements PredOps when the +P variant is selected.
func (b *B512) PredSub(pred vm.M, a, x vm.V, bi vm.M) vm.V {
	if !b.Predicated {
		panic("kernels: PredSub requires the predicated MQX variant")
	}
	return b.M.PredSbb(pred, a, x, bi)
}
