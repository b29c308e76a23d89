package blas

import (
	"math/rand"
	"testing"

	"mqxgo/internal/modmath"
	"mqxgo/internal/u128"
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
	if !v.At(0).Equal(u128.New(7, 8)) || !v.At(1).Equal(u128.New(2, 3)) {
		t.Fatal("Set/At wrong")
	}
}
