package kernels

import (
	"math/bits"
	"math/rand"
	"testing"

	"mqxgo/internal/isa"
	"mqxgo/internal/vm"
)

// Primitive-level conformance: every backend's carry/borrow/select
// primitives must implement the same abstract semantics, checked directly
// rather than through the composed kernels. The B512 emulated-carry paths
// assume at least one operand is below 2^64-1 when a carry-in is set
// (Table 1's documented precondition), so operands here are drawn
// accordingly.

func randOperand(r *rand.Rand) uint64 {
	// Bias toward boundary-rich values but respect the Table 1
	// precondition (never all-ones).
	switch r.Intn(4) {
	case 0:
		return r.Uint64() >> 32
	case 1:
		return ^uint64(0) - uint64(r.Intn(1000)) - 1
	default:
		return r.Uint64() &^ 1 // clear bit 0: cannot be all-ones
	}
}

func TestPrimitives512Conformance(t *testing.T) {
	r := rand.New(rand.NewSource(171))
	for _, level := range []isa.Level{isa.LevelAVX512, isa.LevelMQX, isa.LevelMQXCarryOnly} {
		m := vm.New(vm.TraceOff)
		b := NewB512(m, level)
		m.BeginLoop()
		for iter := 0; iter < 500; iter++ {
			x, y := randOperand(r), randOperand(r)
			ci := r.Intn(2)
			xv, yv := b.Broadcast(x), b.Broadcast(y)
			ciM := m.SetMask(0)
			if ci == 1 {
				ciM = m.SetMask(0xff)
			}

			sum, co := b.Adc(xv, yv, ciM)
			wantS, wantC := bits.Add64(x, y, uint64(ci))
			if sum.X[0] != wantS || (co.K&1 == 1) != (wantC == 1) {
				t.Fatalf("%v Adc(%x, %x, %d): got (%x, %v), want (%x, %d)",
					level, x, y, ci, sum.X[0], co.K&1, wantS, wantC)
			}

			diff, bo := b.Sbb(xv, yv, ciM)
			wantD, wantB := bits.Sub64(x, y, uint64(ci))
			if diff.X[0] != wantD || (bo.K&1 == 1) != (wantB == 1) {
				t.Fatalf("%v Sbb(%x, %x, %d): got (%x, %v), want (%x, %d)",
					level, x, y, ci, diff.X[0], bo.K&1, wantD, wantB)
			}

			s2, c2 := b.AddOut(xv, yv)
			w2, wc2 := bits.Add64(x, y, 0)
			if s2.X[0] != w2 || (c2.K&1 == 1) != (wc2 == 1) {
				t.Fatalf("%v AddOut(%x, %x) wrong", level, x, y)
			}

			d2, b2 := b.SubOut(xv, yv)
			wd2, wb2 := bits.Sub64(x, y, 0)
			if d2.X[0] != wd2 || (b2.K&1 == 1) != (wb2 == 1) {
				t.Fatalf("%v SubOut(%x, %x) wrong", level, x, y)
			}

			if got := b.AddCW(xv, ciM); got.X[0] != x+uint64(ci) {
				t.Fatalf("%v AddCW wrong", level)
			}
			if got := b.SubCW(xv, ciM); got.X[0] != x-uint64(ci) {
				t.Fatalf("%v SubCW wrong", level)
			}

			ca, cout := b.CondAddOut(xv, ciM, yv)
			wantCA, wantCout := x, uint64(0)
			if ci == 1 {
				wantCA, wantCout = bits.Add64(x, y, 0)
			}
			if ca.X[0] != wantCA || (cout.K&1 == 1) != (wantCout == 1) {
				t.Fatalf("%v CondAddOut(%x, %d, %x): got (%x, %v), want (%x, %d)",
					level, x, ci, y, ca.X[0], cout.K&1, wantCA, wantCout)
			}

			hi, lo := b.MulWide(xv, yv)
			wh, wl := bits.Mul64(x, y)
			if hi.X[0] != wh || lo.X[0] != wl {
				t.Fatalf("%v MulWide(%x, %x) wrong", level, x, y)
			}
		}
	}
}

func TestPrimitivesAVX2Conformance(t *testing.T) {
	r := rand.New(rand.NewSource(172))
	m := vm.New(vm.TraceOff)
	b := NewB256(m)
	m.BeginLoop()
	zero, ones := m.Set1x4(0), m.Set1x4(^uint64(0))
	for iter := 0; iter < 500; iter++ {
		x, y := randOperand(r), randOperand(r)
		ci := r.Intn(2)
		xv, yv := b.Broadcast(x), b.Broadcast(y)
		ciM := zero
		if ci == 1 {
			ciM = ones
		}

		sum, co := b.Adc(xv, yv, ciM)
		wantS, wantC := bits.Add64(x, y, uint64(ci))
		if sum.X[0] != wantS || (co.X[0] != 0) != (wantC == 1) {
			t.Fatalf("avx2 Adc(%x, %x, %d): got (%x, %x), want (%x, %d)",
				x, y, ci, sum.X[0], co.X[0], wantS, wantC)
		}
		diff, bo := b.Sbb(xv, yv, ciM)
		wantD, wantB := bits.Sub64(x, y, uint64(ci))
		if diff.X[0] != wantD || (bo.X[0] != 0) != (wantB == 1) {
			t.Fatalf("avx2 Sbb(%x, %x, %d) wrong", x, y, ci)
		}
		hi, lo := b.MulWide(xv, yv)
		wh, wl := bits.Mul64(x, y)
		if hi.X[0] != wh || lo.X[0] != wl {
			t.Fatalf("avx2 MulWide(%x, %x) wrong", x, y)
		}
		if got := b.MulLo(xv, yv); got.X[0] != x*y {
			t.Fatalf("avx2 MulLo(%x, %x) wrong", x, y)
		}
	}
}

func TestPrimitivesScalarConformance(t *testing.T) {
	r := rand.New(rand.NewSource(173))
	m := vm.New(vm.TraceOff)
	b := NewBScalar(m)
	m.BeginLoop()
	for iter := 0; iter < 500; iter++ {
		x, y := r.Uint64(), r.Uint64() // scalar ADC is exact: no precondition
		xv, yv := b.Broadcast(x), b.Broadcast(y)
		_, cf := b.AddOut(xv, yv)
		sum, co := b.Adc(xv, yv, cf)
		first, c1 := bits.Add64(x, y, 0)
		wantS, wantC := bits.Add64(x, y, c1)
		_ = first
		if sum.X != wantS || co.B != (wantC == 1) {
			t.Fatalf("scalar Adc chain wrong for %x + %x", x, y)
		}
	}
}
