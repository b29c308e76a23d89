package perfmodel

import (
	"math/rand"
	"testing"

	"mqxgo/internal/blas"
	"mqxgo/internal/isa"
	"mqxgo/internal/kernels"
	"mqxgo/internal/modmath"
	"mqxgo/internal/ntt"
	"mqxgo/internal/u128"
	"mqxgo/internal/vm"
)

func vmForward(t *testing.T, level isa.Level, p *ntt.Plan, x []u128.U128) []u128.U128 {
	t.Helper()
	m := vm.New(vm.TraceOff)
	xv := blas.FromSlice(x)
	var out blas.Vector
	var err error
	switch level {
	case isa.LevelScalar:
		d := kernels.NewDW[vm.S, vm.F](kernels.NewBScalar(m), p.R.M)
		m.BeginLoop()
		out, err = ForwardVM(d, p, xv)
	case isa.LevelAVX2:
		d := kernels.NewDW[vm.V4, vm.V4](kernels.NewB256(m), p.R.M)
		m.BeginLoop()
		out, err = ForwardVM(d, p, xv)
	default:
		d := kernels.NewDW[vm.V, vm.M](kernels.NewB512(m, level), p.R.M)
		m.BeginLoop()
		out, err = ForwardVM(d, p, xv)
	}
	if err != nil {
		t.Fatal(err)
	}
	got := make([]u128.U128, out.Len())
	for i := range got {
		got[i] = out.At(i)
	}
	return got
}

func TestVMForwardMatchesNativeAllLevels(t *testing.T) {
	mod := modmath.DefaultModulus128()
	r := rand.New(rand.NewSource(46))
	levels := []isa.Level{
		isa.LevelScalar, isa.LevelAVX2, isa.LevelAVX512, isa.LevelMQX,
		isa.LevelMQXMulOnly, isa.LevelMQXCarryOnly, isa.LevelMQXMulHi,
		isa.LevelMQXPredicated,
	}
	for _, n := range []int{16, 64, 512} {
		p := mustPlan(t, mod, n)
		x := make([]u128.U128, n)
		for i := range x {
			x[i] = u128.New(r.Uint64(), r.Uint64()).Mod(mod.Q)
		}
		want := make([]u128.U128, n)
		p.ForwardInto(want, x)
		for _, level := range levels {
			got := vmForward(t, level, p, x)
			for i := 0; i < n; i++ {
				if !got[i].Equal(want[i]) {
					t.Fatalf("level %v n=%d: output %d = %s, want %s", level, n, i, got[i], want[i])
				}
			}
		}
	}
}

func TestVMInputLengthErrors(t *testing.T) {
	mod := modmath.DefaultModulus128()
	p := mustPlan(t, mod, 16)
	m := vm.New(vm.TraceOff)
	b := kernels.NewB512(m, isa.LevelAVX512)
	d := kernels.NewDW[vm.V, vm.M](b, mod)
	m.BeginLoop()
	if _, err := ForwardVM(d, p, blas.NewVector(8)); err == nil {
		t.Error("expected length error")
	}
	// n/2 < lanes: an 8-point plan cannot run on the 8-lane backend.
	p8 := mustPlan(t, mod, 8)
	if _, err := ForwardVM(d, p8, blas.NewVector(8)); err == nil {
		t.Error("expected lane-count error")
	}
}
