package perfmodel

import (
	"testing"

	"mqxgo/internal/blas"
	"mqxgo/internal/isa"
	"mqxgo/internal/kernels"
	"mqxgo/internal/modmath"
	"mqxgo/internal/ntt"
	"mqxgo/internal/u128"
	"mqxgo/internal/vm"
)

// mustPlan builds the 128-bit plan for (mod, n) or fails the test.
func mustPlan(t *testing.T, mod *modmath.Modulus128, n int) *ntt.Plan {
	t.Helper()
	p, err := ntt.NewPlan(mod, n)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// forwardVMCounts runs a complete functional ForwardVM of x at level and
// returns the per-op counts the machine tallied, loop-invariant setup
// included.
func forwardVMCounts(t *testing.T, level isa.Level, mod *modmath.Modulus128, plan *ntt.Plan, x blas.Vector) map[isa.Op]int64 {
	t.Helper()
	m := vm.New(vm.TraceCounts)
	var err error
	if level == isa.LevelAVX2 {
		d := kernels.NewDW[vm.V4, vm.V4](kernels.NewB256(m), mod)
		m.BeginLoop()
		_, err = ForwardVM(d, plan, x)
	} else {
		d := kernels.NewDW[vm.V, vm.M](kernels.NewB512(m, level), mod)
		m.BeginLoop()
		_, err = ForwardVM(d, plan, x)
	}
	if err != nil {
		t.Fatal(err)
	}
	return m.Counts()
}

// TestModelMatchesFullTrace validates the analytic composition the NTT
// model relies on: (ops per butterfly-body iteration) x (iterations) must
// equal the instruction counts of a complete functional ForwardVM run,
// op for op. This pins the performance model to the real instruction
// stream rather than to an idealized formula.
func TestModelMatchesFullTrace(t *testing.T) {
	mod := modmath.DefaultModulus128()
	const n = 256
	plan := mustPlan(t, mod, n)
	x := blas.NewVector(n)
	v := u128.From64(9)
	for i := 0; i < n; i++ {
		x.Set(i, v)
		v = mod.Mul(v, mod.Q.Sub64(12345))
	}

	for _, level := range []isa.Level{isa.LevelAVX2, isa.LevelAVX512, isa.LevelMQX} {
		// Per-iteration op counts from the model's body (vector ops only;
		// the body also carries modeled scalar loop overhead that the
		// functional emulation does not execute).
		body := ButterflyBody(level, mod)
		perIter := map[isa.Op]int64{}
		for _, in := range body.Instrs {
			if in.Op >= 100 { // vector ops
				perIter[in.Op]++
			}
		}

		got := forwardVMCounts(t, level, mod, plan, x)
		iters := int64(plan.M) * int64(n/2) / int64(level.Lanes())
		for op, c := range perIter {
			if got[op] != c*iters {
				t.Errorf("%v %v: full trace has %d, model predicts %d x %d = %d",
					level, op, got[op], c, iters, c*iters)
			}
		}
		// No vector op may appear in the full run that the model missed,
		// except the loop-invariant constant setup (broadcasts and mask
		// materialization), which TraceCounts tallies but the model
		// rightly excludes from the steady-state body.
		for op, c := range got {
			if op == isa.AVX512Bcast || op == isa.AVX512KMov || op == isa.AVX2Bcast {
				continue
			}
			if op >= 100 && perIter[op] == 0 && c > 0 {
				t.Errorf("%v: op %v appears %d times in the full trace but not in the model body", level, op, c)
			}
		}
	}
}
