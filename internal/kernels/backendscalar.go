package kernels

import "mqxgo/internal/vm"

// BScalar is the optimized scalar x86-64 backend (Section 3.1, Listing 1):
// one element per iteration, hardware ADC/SBB carry chains, CMOV for
// branch-free selection, widening MUL.
//
// Register-pressure model: the double-word kernels keep ~25 values live
// (Listing 1) against the ~15 allocatable general-purpose registers of
// x86-64, so compiled code spills to the stack. The backend injects one
// spill store+reload pair every spillEvery value-producing operations
// (register-register moves are not modeled: Ice Lake and Zen 4 eliminate
// them at rename). The 512-bit backend has 32 architectural registers and
// needs no such traffic — one of the structural reasons vector code wins
// beyond lane parallelism.
type BScalar struct {
	M     *vm.Machine
	zeroW vm.S

	scratch  []uint64 // spill slots
	pressure int
}

// spillEveryScalar is the value-producing-op period between modeled spill
// store/reload pairs (about 25 live values over 15 GPRs in the Listing 1
// kernels works out to roughly one spill per four operations).
const spillEveryScalar = 4

var _ Ops[vm.S, vm.F] = (*BScalar)(nil)

// NewBScalar builds the scalar backend. Call before m.BeginLoop.
func NewBScalar(m *vm.Machine) *BScalar {
	return &BScalar{M: m, zeroW: m.SImm(0), scratch: make([]uint64, 4)}
}

// tick implements the spill model; call once per value-producing op.
func (b *BScalar) tick() {
	if !b.M.InLoop() {
		return
	}
	b.pressure++
	if b.pressure%spillEveryScalar == 0 {
		s := b.M.SLoad(b.scratch, 0)
		b.M.SStore(b.scratch, 1, s)
	}
}

// Lanes implements Ops.
func (b *BScalar) Lanes() int { return 1 }

// Broadcast implements Ops.
func (b *BScalar) Broadcast(x uint64) vm.S { return b.M.SImm(x) }

// Load implements Ops.
func (b *BScalar) Load(s []uint64, i int) vm.S { return b.M.SLoad(s, i) }

// Store implements Ops.
func (b *BScalar) Store(s []uint64, i int, w vm.S) { b.M.SStore(s, i, w) }

// Add implements Ops.
func (b *BScalar) Add(a, x vm.S) vm.S {
	b.tick()
	s, _ := b.M.SAdd(a, x)
	return s
}

// Sub implements Ops.
func (b *BScalar) Sub(a, x vm.S) vm.S {
	b.tick()
	d, _ := b.M.SSub(a, x)
	return d
}

// MulWide implements Ops: a single widening MUL.
func (b *BScalar) MulWide(a, x vm.S) (hi, lo vm.S) {
	b.tick()
	b.tick() // two result registers
	return b.M.SMulWide(a, x)
}

// MulLo implements Ops.
func (b *BScalar) MulLo(a, x vm.S) vm.S {
	b.tick()
	return b.M.SMulLo(a, x)
}

// AddOut implements Ops.
func (b *BScalar) AddOut(a, x vm.S) (vm.S, vm.F) {
	b.tick()
	return b.M.SAdd(a, x)
}

// Adc implements Ops.
func (b *BScalar) Adc(a, x vm.S, ci vm.F) (vm.S, vm.F) {
	b.tick()
	return b.M.SAdc(a, x, ci)
}

// AddCW implements Ops: ADC with a zero register.
func (b *BScalar) AddCW(a vm.S, ci vm.F) vm.S {
	b.tick()
	s, _ := b.M.SAdc(a, b.zeroW, ci)
	return s
}

// SubOut implements Ops.
func (b *BScalar) SubOut(a, x vm.S) (vm.S, vm.F) {
	b.tick()
	return b.M.SSub(a, x)
}

// Sbb implements Ops.
func (b *BScalar) Sbb(a, x vm.S, bi vm.F) (vm.S, vm.F) {
	b.tick()
	return b.M.SSbb(a, x, bi)
}

// SubCW implements Ops.
func (b *BScalar) SubCW(a vm.S, bi vm.F) vm.S {
	b.tick()
	d, _ := b.M.SSbb(a, b.zeroW, bi)
	return d
}

// CondAddOut implements Ops: CMOV picks 0 or x, then ADD supplies the carry.
func (b *BScalar) CondAddOut(a vm.S, cond vm.F, x vm.S) (vm.S, vm.F) {
	b.tick()
	pick := b.M.SCmov(cond, b.zeroW, x)
	return b.M.SAdd(a, pick)
}

// CmpLt implements Ops.
func (b *BScalar) CmpLt(a, x vm.S) vm.F { return b.M.SCmpLt(a, x) }

// CmpLe implements Ops.
func (b *BScalar) CmpLe(a, x vm.S) vm.F { return b.M.SCmpLe(a, x) }

// CmpEq implements Ops.
func (b *BScalar) CmpEq(a, x vm.S) vm.F { return b.M.SCmpEq(a, x) }

// COr implements Ops.
func (b *BScalar) COr(a, x vm.F) vm.F { return b.M.SFOr(a, x) }

// CAnd implements Ops.
func (b *BScalar) CAnd(a, x vm.F) vm.F { return b.M.SFAnd(a, x) }

// Select implements Ops.
func (b *BScalar) Select(c vm.F, a, x vm.S) vm.S {
	b.tick()
	return b.M.SCmov(c, a, x)
}

// Interleave implements Ops: with one lane, outputs are already in
// consecutive-storage order.
func (b *BScalar) Interleave(even, odd vm.S) (vm.S, vm.S) { return even, odd }

// Shr implements Ops.
func (b *BScalar) Shr(a vm.S, n uint) vm.S {
	b.tick()
	return b.M.SShr(a, n)
}

// Shl implements Ops.
func (b *BScalar) Shl(a vm.S, n uint) vm.S {
	b.tick()
	return b.M.SShl(a, n)
}

// Or implements Ops.
func (b *BScalar) Or(a, x vm.S) vm.S {
	b.tick()
	return b.M.SOr(a, x)
}
