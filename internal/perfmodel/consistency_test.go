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

// TestModelMatchesFullTrace validates the analytic composition the NTT
// model relies on: (ops per butterfly-body iteration) x (iterations) must
// equal the instruction counts of a complete functional ForwardVM run,
// op for op. This pins the performance model to the real instruction
// stream rather than to an idealized formula.
func TestModelMatchesFullTrace(t *testing.T) {
	mod := modmath.DefaultModulus128()
	const n = 256

	for _, level := range []isa.Level{isa.LevelAVX512, isa.LevelMQX} {
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

		// Full functional run with counting.
		m := vm.New(vm.TraceCounts)
		b := kernels.NewB512(m, level)
		d := kernels.NewDW[vm.V, vm.M](b, mod)
		plan := mustPlan(t, mod, n)
		m.BeginLoop()
		x := blas.NewVector(n)
		v := u128.From64(9)
		for i := 0; i < n; i++ {
			x.Set(i, v)
			v = mod.Mul(v, mod.Q.Sub64(12345))
		}
		if _, err := ntt.ForwardVM(d, plan, x); err != nil {
			t.Fatal(err)
		}
		got := m.Counts()

		stages := plan.M
		iters := int64(stages) * int64(n/2) / 8
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
			if op == isa.AVX512Bcast || op == isa.AVX512KMov {
				continue
			}
			if op >= 100 && perIter[op] == 0 && c > 0 {
				t.Errorf("%v: op %v appears %d times in the full trace but not in the model body", level, op, c)
			}
		}
	}
}

// TestNTTDominatesPolyMulPipeline reproduces the paper's Section 1 claim
// that NTTs account for the overwhelming majority of FHE polynomial
// arithmetic: in the full negacyclic multiplication pipeline, the three
// transforms dominate the instruction count (>85% at size 1024, growing
// with size since the transforms are the only O(n log n) part).
func TestNTTDominatesPolyMulPipeline(t *testing.T) {
	mod := modmath.DefaultModulus128()
	const n = 1024
	plan := mustPlan(t, mod, n)

	countOps := func(run func(d *kernels.DW[vm.V, vm.M], x blas.Vector)) int64 {
		m := vm.New(vm.TraceCounts)
		b := kernels.NewB512(m, isa.LevelAVX512)
		d := kernels.NewDW[vm.V, vm.M](b, mod)
		m.BeginLoop()
		x := blas.NewVector(n)
		v := u128.From64(11)
		for i := 0; i < n; i++ {
			x.Set(i, v)
			v = mod.Mul(v, mod.Q.Sub64(999))
		}
		run(d, x)
		return m.TotalOps()
	}

	nttOps := countOps(func(d *kernels.DW[vm.V, vm.M], x blas.Vector) {
		if _, err := ntt.ForwardVM(d, plan, x); err != nil {
			t.Fatal(err)
		}
	})
	pipelineOps := countOps(func(d *kernels.DW[vm.V, vm.M], x blas.Vector) {
		if _, err := ntt.PolyMulNegacyclicVM(d, plan, x, x); err != nil {
			t.Fatal(err)
		}
	})

	// The pipeline runs 2 forward + 1 inverse transforms plus the twists
	// and the point-wise product. The transforms are the only
	// O(n log n) component, so their share grows with n; at n=1024 it is
	// already the bulk of the work (the paper's >90%-of-runtime figure is
	// at application level, where each homomorphic op runs many NTTs).
	share := float64(3*nttOps) / float64(pipelineOps)
	if share < 0.75 {
		t.Errorf("NTT share of polymul pipeline = %.1f%%, expected > 75%%", share*100)
	}
	t.Logf("NTT share of the negacyclic polymul pipeline at n=%d: %.1f%% (paper: >90%% of FHE runtime)", n, share*100)
}
