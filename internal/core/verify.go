package core

import (
	"fmt"

	"mqxgo/internal/blas"
	"mqxgo/internal/isa"
	"mqxgo/internal/kernels"
	"mqxgo/internal/modmath"
	"mqxgo/internal/ntt"
	"mqxgo/internal/perfmodel"
	"mqxgo/internal/u128"
	"mqxgo/internal/vm"
)

// VerifyAllTiers functionally executes the forward NTT of size n modulo
// mod.Q on the trace machine for every standard ISA tier and compares the
// results bit-for-bit against the native transform. It returns the first
// divergence found, or nil when every tier agrees — the library's
// equivalent of the paper's functional-correctness flag (Section 4.2).
func VerifyAllTiers(mod *modmath.Modulus128, n int) error {
	plan, err := ntt.CachedPlan(mod, n)
	if err != nil {
		return err
	}
	x := make([]u128.U128, n)
	v := u128.From64(7)
	for i := range x {
		x[i] = v
		v = mod.Add(mod.Mul(v, u128.From64(0x9e3779b9)), u128.One)
	}
	want := make([]u128.U128, n)
	plan.ForwardInto(want, x)
	xv := blas.FromSlice(x)

	for _, level := range isa.AllLevels {
		m := vm.New(vm.TraceOff)
		var got blas.Vector
		switch level {
		case isa.LevelScalar:
			b := kernels.NewBScalar(m)
			d := kernels.NewDW[vm.S, vm.F](b, mod, kernels.Schoolbook)
			m.BeginLoop()
			got, err = perfmodel.ForwardVM(d, plan, xv)
		case isa.LevelAVX2:
			b := kernels.NewB256(m)
			d := kernels.NewDW[vm.V4, vm.V4](b, mod, kernels.Schoolbook)
			m.BeginLoop()
			got, err = perfmodel.ForwardVM(d, plan, xv)
		default:
			b := kernels.NewB512(m, level)
			d := kernels.NewDW[vm.V, vm.M](b, mod, kernels.Schoolbook)
			m.BeginLoop()
			got, err = perfmodel.ForwardVM(d, plan, xv)
		}
		if err != nil {
			return fmt.Errorf("core: %v tier failed: %w", level, err)
		}
		for i := 0; i < n; i++ {
			if !got.At(i).Equal(want[i]) {
				return fmt.Errorf("core: %v tier diverges from native at index %d", level, i)
			}
		}
	}
	return nil
}
