package perfmodel

import (
	"mqxgo/internal/blas"
	"mqxgo/internal/isa"
	"mqxgo/internal/kernels"
	"mqxgo/internal/modmath"
	"mqxgo/internal/u128"
	"mqxgo/internal/vm"
)

// Body is one recorded steady-state loop iteration of a kernel.
type Body struct {
	Level  isa.Level
	Lanes  int // elements processed per iteration
	Instrs []vm.Instr
	Bytes  int64 // bytes loaded + stored per iteration
}

// ButterflyBody records one forward-NTT stage iteration (Section 3.2):
// three double-word loads (inputs and twiddle), the butterfly, the output
// interleave, and the interleaved stores. This is the unit the paper
// reports as "runtime per butterfly". alg selects the butterfly's
// widening product: Section 5.5 compares the two.
func ButterflyBody(level isa.Level, mod *modmath.Modulus128, alg kernels.MulAlgorithm) *Body {
	return record(level, mod, alg, true, func(o dwAny) { o.butterflyIter() })
}

// BLASBody records one iteration of a Figure 4 BLAS kernel.
func BLASBody(level isa.Level, mod *modmath.Modulus128, op blas.Op) *Body {
	return record(level, mod, kernels.Schoolbook, true, func(o dwAny) { o.blasIter(op) })
}

// ModOp selects a bare double-word modular operation for ModOpBody.
type ModOp int

// Bare modular operations (the Listing 1-3 kernels, without loads/stores).
const (
	ModAdd ModOp = iota
	ModSub
	ModMul
	ModButterfly
)

func (op ModOp) String() string {
	switch op {
	case ModAdd:
		return "addmod128"
	case ModSub:
		return "submod128"
	case ModMul:
		return "mulmod128"
	case ModButterfly:
		return "butterfly"
	}
	return "modop?"
}

// ModOpBody records one bare modular operation on register inputs — the
// unit the paper's Listing 4 analyzes with LLVM-MCA. No loads or stores
// are included.
func ModOpBody(level isa.Level, mod *modmath.Modulus128, op ModOp) *Body {
	return record(level, mod, kernels.Schoolbook, false, func(o dwAny) { o.modOp(op) })
}

// dwAny adapts the three generic backend instantiations to one interface
// for body recording.
type dwAny interface {
	butterflyIter()
	blasIter(op blas.Op)
	modOp(op ModOp)
	lanes() int
}

type dwRunner[W, C any] struct {
	d   *kernels.DW[W, C]
	buf blas.Vector // scratch arrays for loads/stores
	a   kernels.DWPair[W]
	// Register-resident operands, loaded in the preamble so ModOpBody
	// captures the bare arithmetic the way Listing 4 does.
	ra, rb, rw kernels.DWPair[W]
}

func newRunner[W, C any](o kernels.Ops[W, C], mod *modmath.Modulus128, alg kernels.MulAlgorithm) *dwRunner[W, C] {
	d := kernels.NewDW[W, C](o, mod, alg)
	// Scratch data: reduced values so kernels stay in-range.
	n := 4 * o.Lanes()
	buf := blas.NewVector(n)
	x := mod.Q.Sub64(3)
	for i := 0; i < n; i++ {
		buf.Set(i, x)
		x = mod.Sub(x, u128.From64(uint64(i+1)))
	}
	L := o.Lanes()
	r := &dwRunner[W, C]{d: d, buf: buf, a: blas.Broadcast128(o, mod.Q.Sub64(5))}
	r.ra = kernels.DWPair[W]{Hi: o.Load(buf.Hi, 0), Lo: o.Load(buf.Lo, 0)}
	r.rb = kernels.DWPair[W]{Hi: o.Load(buf.Hi, L), Lo: o.Load(buf.Lo, L)}
	r.rw = kernels.DWPair[W]{Hi: o.Load(buf.Hi, 2*L), Lo: o.Load(buf.Lo, 2*L)}
	return r
}

func (r *dwRunner[W, C]) lanes() int { return r.d.O.Lanes() }

func (r *dwRunner[W, C]) butterflyIter() {
	o := r.d.O
	L := o.Lanes()
	a := kernels.DWPair[W]{Hi: o.Load(r.buf.Hi, 0), Lo: o.Load(r.buf.Lo, 0)}
	b := kernels.DWPair[W]{Hi: o.Load(r.buf.Hi, L), Lo: o.Load(r.buf.Lo, L)}
	w := kernels.DWPair[W]{Hi: o.Load(r.buf.Hi, 2*L), Lo: o.Load(r.buf.Lo, 2*L)}
	even, odd := r.d.Butterfly(a, b, w)
	hi0, hi1 := o.Interleave(even.Hi, odd.Hi)
	lo0, lo1 := o.Interleave(even.Lo, odd.Lo)
	o.Store(r.buf.Hi, 0, hi0)
	o.Store(r.buf.Lo, 0, lo0)
	o.Store(r.buf.Hi, L, hi1)
	o.Store(r.buf.Lo, L, lo1)
}

func (r *dwRunner[W, C]) modOp(op ModOp) {
	switch op {
	case ModAdd:
		r.d.AddMod(r.ra, r.rb)
	case ModSub:
		r.d.SubMod(r.ra, r.rb)
	case ModMul:
		r.d.MulMod(r.ra, r.rb)
	case ModButterfly:
		r.d.Butterfly(r.ra, r.rb, r.rw)
	}
}

func (r *dwRunner[W, C]) blasIter(op blas.Op) {
	o := r.d.O
	L := o.Lanes()
	x := kernels.DWPair[W]{Hi: o.Load(r.buf.Hi, 0), Lo: o.Load(r.buf.Lo, 0)}
	y := kernels.DWPair[W]{Hi: o.Load(r.buf.Hi, L), Lo: o.Load(r.buf.Lo, L)}
	var z kernels.DWPair[W]
	switch op {
	case blas.OpVecAdd:
		z = r.d.AddMod(x, y)
	case blas.OpVecSub:
		z = r.d.SubMod(x, y)
	case blas.OpVecPMul:
		z = r.d.MulMod(x, y)
	case blas.OpAxpy:
		z = r.d.MulAddMod(r.a, x, y)
	}
	o.Store(r.buf.Hi, 2*L, z.Hi)
	o.Store(r.buf.Lo, 2*L, z.Lo)
}

// SWButterflyBody records one steady-state iteration of the single-word
// (64-bit, RNS-channel) NTT stage: two data loads, a Shoup twiddle pair,
// the 64-bit butterfly, interleave and stores. Used for the
// RNS-vs-double-word comparison (Section 1).
func SWButterflyBody(level isa.Level, mod64 *modmath.Modulus64) *Body {
	return recordSW(level, mod64, swAny.strictIter)
}

// LazySWButterflyBody records one steady-state iteration of the PR 3
// lazy-reduction forward stage (ring.Shoup64.CTSpan) on a tier: four
// streamed loads (inputs plus the dense twiddle/precomputation pair), the
// relaxed [0, 2q) butterfly, interleave and stores. This is the candidate
// body the vector span kernels implement, costed in the VM before the
// assembly is written.
func LazySWButterflyBody(level isa.Level, mod64 *modmath.Modulus64) *Body {
	return recordSW(level, mod64, swAny.lazyIter)
}

// LazySWButterflyBlkBody is the blocked-kernel variant
// (ring.BlockedSpanKernels.CTSpanBlk): the compact-table twiddle pair is
// hoisted out of the run loop into broadcast registers, so the steady
// state streams only the two data inputs — half the loads of the dense
// body. This is the body the n=4096 hot stages (blk >= 8) execute.
func LazySWButterflyBlkBody(level isa.Level, mod64 *modmath.Modulus64) *Body {
	return recordSW(level, mod64, swAny.lazyBlkIter)
}

// swAny adapts the per-tier SW runners for body recording, like dwAny for
// the double-word bodies.
type swAny interface {
	strictIter()
	lazyIter()
	lazyBlkIter()
}

type swRunner[W, C any] struct {
	s     *kernels.SW[W, C]
	buf   []uint64
	w, wp W // broadcast twiddle pair for the blocked body (preamble)
}

func newSWRunner[W, C any](o kernels.Ops[W, C], mod64 *modmath.Modulus64) *swRunner[W, C] {
	s := kernels.NewSW[W, C](o, mod64)
	buf := make([]uint64, 8*o.Lanes())
	for i := range buf {
		buf[i] = uint64(i+1) % mod64.Q
	}
	wv := buf[1]
	return &swRunner[W, C]{
		s:   s,
		buf: buf,
		w:   o.Broadcast(wv),
		wp:  o.Broadcast(mod64.ShoupPrecompute(wv)),
	}
}

func (r *swRunner[W, C]) strictIter() { r.denseIter(r.s.Butterfly) }

func (r *swRunner[W, C]) lazyIter() { r.denseIter(r.s.LazyButterfly) }

// denseIter streams both inputs and the dense twiddle pair through one
// butterfly, then interleaves and stores its outputs.
func (r *swRunner[W, C]) denseIter(butterfly func(a, b, w, wPre W) (even, odd W)) {
	o := r.s.O
	L := o.Lanes()
	a := o.Load(r.buf, 0)
	b := o.Load(r.buf, L)
	w := o.Load(r.buf, 2*L)
	wp := o.Load(r.buf, 3*L)
	even, odd := butterfly(a, b, w, wp)
	r0, r1 := o.Interleave(even, odd)
	o.Store(r.buf, 4*L, r0)
	o.Store(r.buf, 5*L, r1)
}

func (r *swRunner[W, C]) lazyBlkIter() {
	o := r.s.O
	L := o.Lanes()
	a := o.Load(r.buf, 0)
	b := o.Load(r.buf, L)
	even, odd := r.s.LazyButterfly(a, b, r.w, r.wp)
	r0, r1 := o.Interleave(even, odd)
	o.Store(r.buf, 4*L, r0)
	o.Store(r.buf, 5*L, r1)
}

func recordSW(level isa.Level, mod64 *modmath.Modulus64, run func(swAny)) *Body {
	m := vm.New(vm.TraceFull)
	var runner swAny
	switch level {
	case isa.LevelScalar:
		runner = newSWRunner[vm.S, vm.F](kernels.NewBScalar(m), mod64)
	case isa.LevelAVX2:
		runner = newSWRunner[vm.V4, vm.V4](kernels.NewB256(m), mod64)
	default:
		runner = newSWRunner[vm.V, vm.M](kernels.NewB512(m, level), mod64)
	}
	m.BeginLoop()
	run(runner)
	loopOverhead(m)
	return &Body{
		Level:  level,
		Lanes:  level.Lanes(),
		Instrs: m.Body(),
		Bytes:  m.BytesLoaded() + m.BytesStored(),
	}
}

func record(level isa.Level, mod *modmath.Modulus128, alg kernels.MulAlgorithm, withLoop bool, run func(o dwAny)) *Body {
	m := vm.New(vm.TraceFull)
	var runner dwAny
	switch level {
	case isa.LevelScalar:
		runner = newRunner[vm.S, vm.F](kernels.NewBScalar(m), mod, alg)
	case isa.LevelAVX2:
		runner = newRunner[vm.V4, vm.V4](kernels.NewB256(m), mod, alg)
	default:
		runner = newRunner[vm.V, vm.M](kernels.NewB512(m, level), mod, alg)
	}
	m.BeginLoop()
	run(runner)
	if withLoop {
		loopOverhead(m)
	}
	return &Body{
		Level:  level,
		Lanes:  runner.lanes(),
		Instrs: m.Body(),
		Bytes:  m.BytesLoaded() + m.BytesStored(),
	}
}

// loopOverhead appends the per-iteration scalar loop machinery every tier
// pays (two pointer increments, an index compare, a fused test/branch).
// Vector tiers amortize it over 4 or 8 elements per iteration; the scalar
// tier pays it per element — one of the structural costs that favors SIMD.
func loopOverhead(m *vm.Machine) {
	i := m.SImm(0)
	j, _ := m.SAdd(i, i)
	k, _ := m.SAdd(j, j)
	_ = m.SCmpLt(k, j)
	_ = m.SFOr(vm.FalseFlag(), vm.FalseFlag())
}
