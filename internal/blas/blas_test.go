package blas

import (
	"math/rand"
	"testing"

	"mqxgo/internal/isa"
	"mqxgo/internal/kernels"
	"mqxgo/internal/modmath"
	"mqxgo/internal/u128"
	"mqxgo/internal/vm"
)

func randResidues(r *rand.Rand, mod *modmath.Modulus128, n int) []u128.U128 {
	xs := make([]u128.U128, n)
	for i := range xs {
		xs[i] = u128.New(r.Uint64(), r.Uint64()).Mod(mod.Q)
	}
	return xs
}

func refOp(mod *modmath.Modulus128, op Op, a u128.U128, x, y u128.U128) u128.U128 {
	switch op {
	case OpVecAdd:
		return mod.Add(x, y)
	case OpVecSub:
		return mod.Sub(x, y)
	case OpVecPMul:
		return mod.Mul(x, y)
	case OpAxpy:
		return mod.Add(mod.Mul(a, x), y)
	}
	panic("bad op")
}

func TestVMKernelsAllLevels(t *testing.T) {
	mod := modmath.DefaultModulus128()
	r := rand.New(rand.NewSource(51))
	n := 64
	a := u128.New(r.Uint64(), r.Uint64()).Mod(mod.Q)
	xs := randResidues(r, mod, n)
	ys := randResidues(r, mod, n)

	check := func(level isa.Level, got Vector, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			want := refOp(mod, OpVecPMul, a, xs[i], ys[i])
			if !got.At(i).Equal(want) {
				t.Fatalf("%v element %d: got %s, want %s", level, i, got.At(i), want)
			}
		}
	}

	// 512-bit tiers.
	for _, level := range []isa.Level{isa.LevelAVX512, isa.LevelMQX} {
		m := vm.New(vm.TraceOff)
		d := kernels.NewDW[vm.V, vm.M](kernels.NewB512(m, level), mod)
		m.BeginLoop()
		dst := NewVector(n)
		check(level, dst, VecPMulModVM(d, dst, FromSlice(xs), FromSlice(ys)))
	}
	// AVX2.
	{
		m := vm.New(vm.TraceOff)
		d := kernels.NewDW[vm.V4, vm.V4](kernels.NewB256(m), mod)
		m.BeginLoop()
		dst := NewVector(n)
		check(isa.LevelAVX2, dst, VecPMulModVM(d, dst, FromSlice(xs), FromSlice(ys)))
	}
	// Scalar.
	{
		m := vm.New(vm.TraceOff)
		d := kernels.NewDW[vm.S, vm.F](kernels.NewBScalar(m), mod)
		m.BeginLoop()
		dst := NewVector(n)
		check(isa.LevelScalar, dst, VecPMulModVM(d, dst, FromSlice(xs), FromSlice(ys)))
	}
}

func TestNativeBackends(t *testing.T) {
	mod := modmath.DefaultModulus128()
	r := rand.New(rand.NewSource(52))
	n := 128
	a := u128.New(r.Uint64(), r.Uint64()).Mod(mod.Q)
	xs := randResidues(r, mod, n)
	ys := randResidues(r, mod, n)

	nat := Native{Mod: mod}
	for _, op := range AllOps {
		dstN := make([]u128.U128, n)
		yn := append([]u128.U128(nil), ys...)
		switch op {
		case OpVecAdd:
			nat.VecAddMod(dstN, xs, ys)
		case OpVecSub:
			nat.VecSubMod(dstN, xs, ys)
		case OpVecPMul:
			nat.VecPMulMod(dstN, xs, ys)
		case OpAxpy:
			nat.Axpy(a, xs, yn)
			dstN = yn
		}
		for i := 0; i < n; i++ {
			if !dstN[i].Equal(refOp(mod, op, a, xs[i], ys[i])) {
				t.Fatalf("native %v element %d wrong", op, i)
			}
		}
	}

	dstB := BigVector(n)
	NewBignum(mod.Q).VecPMulMod(dstB, ToBigVector(xs), ToBigVector(ys))
	for i := 0; i < n; i++ {
		if got, ok := u128.FromBig(dstB[i]); !ok || !got.Equal(refOp(mod, OpVecPMul, a, xs[i], ys[i])) {
			t.Fatalf("bignum vecpmul element %d wrong", i)
		}
	}
}

func TestVectorHelpers(t *testing.T) {
	xs := []u128.U128{u128.From64(1), u128.New(2, 3)}
	v := FromSlice(xs)
	if v.Len() != 2 || !v.At(1).Equal(u128.New(2, 3)) {
		t.Fatal("FromSlice/At wrong")
	}
	v.Set(0, u128.New(7, 8))
	out := v.ToSlice()
	if !out[0].Equal(u128.New(7, 8)) {
		t.Fatal("Set/ToSlice wrong")
	}
}

func TestLengthValidation(t *testing.T) {
	mod := modmath.DefaultModulus128()
	m := vm.New(vm.TraceOff)
	b := kernels.NewB512(m, isa.LevelAVX512)
	d := kernels.NewDW[vm.V, vm.M](b, mod)
	m.BeginLoop()
	if err := VecPMulModVM(d, NewVector(8), NewVector(16), NewVector(8)); err == nil {
		t.Error("expected length mismatch error")
	}
	if err := VecPMulModVM(d, NewVector(12), NewVector(12), NewVector(12)); err == nil {
		t.Error("expected lane multiple error")
	}
}
