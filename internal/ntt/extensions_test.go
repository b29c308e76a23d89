package ntt

import (
	"math/rand"
	"testing"

	"mqxgo/internal/blas"
	"mqxgo/internal/isa"
	"mqxgo/internal/kernels"
	"mqxgo/internal/ring"
	"mqxgo/internal/u128"
	"mqxgo/internal/vm"
)

func TestBatchTransforms(t *testing.T) {
	mod := testMod(t)
	r := rand.New(rand.NewSource(94))
	n := 128
	p := mustPlan(t, mod, n)
	const batch = 9 // deliberately not a multiple of workers
	inputs := make([][]u128.U128, batch)
	for i := range inputs {
		inputs[i] = randPoly(r, mod, n)
	}
	for _, workers := range []int{0, 1, 3, 16} {
		fwd := ring.AllocBatch[u128.U128](n, batch)
		p.BatchForwardInto(fwd, inputs, workers)
		for i := range inputs {
			want := forward(p, inputs[i])
			for j := 0; j < n; j++ {
				if !fwd[i][j].Equal(want[j]) {
					t.Fatalf("workers=%d: batch forward %d differs at %d", workers, i, j)
				}
			}
		}
	}
}

func TestPolyMulNegacyclicVMAllLevels(t *testing.T) {
	mod := testMod(t)
	r := rand.New(rand.NewSource(95))
	n := 64
	p := mustPlan(t, mod, n)
	a := randPoly(r, mod, n)
	b := randPoly(r, mod, n)
	want := polyMul(p, a, b)
	av, bv := blas.FromSlice(a), blas.FromSlice(b)

	check := func(level string, got blas.Vector, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if !got.At(i).Equal(want[i]) {
				t.Fatalf("%s: VM polymul differs at %d", level, i)
			}
		}
	}

	{
		m := vm.New(vm.TraceOff)
		bk := kernels.NewBScalar(m)
		d := kernels.NewDW[vm.S, vm.F](bk, mod)
		m.BeginLoop()
		got, err := PolyMulNegacyclicVM(d, p, av, bv)
		check("scalar", got, err)
	}
	{
		m := vm.New(vm.TraceOff)
		bk := kernels.NewB256(m)
		d := kernels.NewDW[vm.V4, vm.V4](bk, mod)
		m.BeginLoop()
		got, err := PolyMulNegacyclicVM(d, p, av, bv)
		check("avx2", got, err)
	}
	for _, level := range []isa.Level{isa.LevelAVX512, isa.LevelMQX} {
		m := vm.New(vm.TraceOff)
		bk := kernels.NewB512(m, level)
		d := kernels.NewDW[vm.V, vm.M](bk, mod)
		m.BeginLoop()
		got, err := PolyMulNegacyclicVM(d, p, av, bv)
		check(level.String(), got, err)
	}

	// Length validation.
	m := vm.New(vm.TraceOff)
	bk := kernels.NewB512(m, isa.LevelAVX512)
	d := kernels.NewDW[vm.V, vm.M](bk, mod)
	m.BeginLoop()
	if _, err := PolyMulNegacyclicVM(d, p, blas.NewVector(8), bv); err == nil {
		t.Error("expected length error")
	}
}
