package kernels

import (
	"testing"
	"testing/quick"

	"mqxgo/internal/isa"
	"mqxgo/internal/modmath"
	"mqxgo/internal/u128"
	"mqxgo/internal/vm"
)

// Property-based tests: testing/quick drives random operand pairs through
// every backend and checks algebraic invariants against the modmath
// reference, independent of the fixed-seed tables in kernels_test.go.

func quickMod(t *testing.T) *modmath.Modulus128 {
	t.Helper()
	return modmath.DefaultModulus128()
}

// run512 executes one op on an 8-lane backend with all lanes equal to
// (a, b) and returns lane 0.
func run512(level isa.Level, mod *modmath.Modulus128,
	op func(d *DW[vm.V, vm.M], a, b DWPair[vm.V]) DWPair[vm.V],
	a, b u128.U128) u128.U128 {
	m := vm.New(vm.TraceOff)
	bk := NewB512(m, level)
	d := NewDW[vm.V, vm.M](bk, mod, Schoolbook)
	m.BeginLoop()
	av := DWPair[vm.V]{Hi: bk.Broadcast(a.Hi), Lo: bk.Broadcast(a.Lo)}
	bv := DWPair[vm.V]{Hi: bk.Broadcast(b.Hi), Lo: bk.Broadcast(b.Lo)}
	c := op(d, av, bv)
	return u128.New(c.Hi.X[0], c.Lo.X[0])
}

func runScalar(mod *modmath.Modulus128,
	op func(d *DW[vm.S, vm.F], a, b DWPair[vm.S]) DWPair[vm.S],
	a, b u128.U128) u128.U128 {
	m := vm.New(vm.TraceOff)
	bk := NewBScalar(m)
	d := NewDW[vm.S, vm.F](bk, mod, Schoolbook)
	m.BeginLoop()
	av := DWPair[vm.S]{Hi: bk.Broadcast(a.Hi), Lo: bk.Broadcast(a.Lo)}
	bv := DWPair[vm.S]{Hi: bk.Broadcast(b.Hi), Lo: bk.Broadcast(b.Lo)}
	c := op(d, av, bv)
	return u128.New(c.Hi.X, c.Lo.X)
}

func runAVX2(mod *modmath.Modulus128,
	op func(d *DW[vm.V4, vm.V4], a, b DWPair[vm.V4]) DWPair[vm.V4],
	a, b u128.U128) u128.U128 {
	m := vm.New(vm.TraceOff)
	bk := NewB256(m)
	d := NewDW[vm.V4, vm.V4](bk, mod, Schoolbook)
	m.BeginLoop()
	av := DWPair[vm.V4]{Hi: bk.Broadcast(a.Hi), Lo: bk.Broadcast(a.Lo)}
	bv := DWPair[vm.V4]{Hi: bk.Broadcast(b.Hi), Lo: bk.Broadcast(b.Lo)}
	c := op(d, av, bv)
	return u128.New(c.Hi.X[0], c.Lo.X[0])
}

func TestQuickAllBackendsMatchReference(t *testing.T) {
	mod := quickMod(t)
	cfg := &quick.Config{MaxCount: 300}

	f := func(aHi, aLo, bHi, bLo uint64) bool {
		a := u128.New(aHi, aLo).Mod(mod.Q)
		b := u128.New(bHi, bLo).Mod(mod.Q)
		wantAdd := mod.Add(a, b)
		wantSub := mod.Sub(a, b)
		wantMul := mod.Mul(a, b)

		for _, level := range []isa.Level{isa.LevelAVX512, isa.LevelMQX, isa.LevelMQXMulHi, isa.LevelMQXPredicated} {
			if !run512(level, mod, func(d *DW[vm.V, vm.M], x, y DWPair[vm.V]) DWPair[vm.V] { return d.AddMod(x, y) }, a, b).Equal(wantAdd) {
				return false
			}
			if !run512(level, mod, func(d *DW[vm.V, vm.M], x, y DWPair[vm.V]) DWPair[vm.V] { return d.SubMod(x, y) }, a, b).Equal(wantSub) {
				return false
			}
			if !run512(level, mod, func(d *DW[vm.V, vm.M], x, y DWPair[vm.V]) DWPair[vm.V] { return d.MulMod(x, y) }, a, b).Equal(wantMul) {
				return false
			}
		}
		if !runScalar(mod, func(d *DW[vm.S, vm.F], x, y DWPair[vm.S]) DWPair[vm.S] { return d.MulMod(x, y) }, a, b).Equal(wantMul) {
			return false
		}
		if !runAVX2(mod, func(d *DW[vm.V4, vm.V4], x, y DWPair[vm.V4]) DWPair[vm.V4] { return d.MulMod(x, y) }, a, b).Equal(wantMul) {
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAlgebraicInvariants checks ring identities end-to-end through
// the MQX backend: commutativity, additive inverse, distributivity.
func TestQuickAlgebraicInvariants(t *testing.T) {
	mod := quickMod(t)
	cfg := &quick.Config{MaxCount: 200}

	mulV := func(a, b u128.U128) u128.U128 {
		return run512(isa.LevelMQX, mod, func(d *DW[vm.V, vm.M], x, y DWPair[vm.V]) DWPair[vm.V] { return d.MulMod(x, y) }, a, b)
	}
	addV := func(a, b u128.U128) u128.U128 {
		return run512(isa.LevelMQX, mod, func(d *DW[vm.V, vm.M], x, y DWPair[vm.V]) DWPair[vm.V] { return d.AddMod(x, y) }, a, b)
	}
	subV := func(a, b u128.U128) u128.U128 {
		return run512(isa.LevelMQX, mod, func(d *DW[vm.V, vm.M], x, y DWPair[vm.V]) DWPair[vm.V] { return d.SubMod(x, y) }, a, b)
	}

	f := func(aHi, aLo, bHi, bLo, cHi, cLo uint64) bool {
		a := u128.New(aHi, aLo).Mod(mod.Q)
		b := u128.New(bHi, bLo).Mod(mod.Q)
		c := u128.New(cHi, cLo).Mod(mod.Q)

		if !mulV(a, b).Equal(mulV(b, a)) {
			return false // commutativity
		}
		if !addV(a, b).Equal(addV(b, a)) {
			return false
		}
		if !subV(addV(a, b), b).Equal(a) {
			return false // (a+b)-b == a
		}
		// a*(b+c) == a*b + a*c
		left := mulV(a, addV(b, c))
		right := addV(mulV(a, b), mulV(a, c))
		return left.Equal(right)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickButterflyInvertible: the butterfly is invertible — from
// (even, odd) and w one can recover (a, b). Checks the algebra holds for
// the MQX backend path.
func TestQuickButterflyInvertible(t *testing.T) {
	mod := quickMod(t)
	cfg := &quick.Config{MaxCount: 150}
	f := func(aHi, aLo, bHi, bLo, wHi, wLo uint64) bool {
		a := u128.New(aHi, aLo).Mod(mod.Q)
		b := u128.New(bHi, bLo).Mod(mod.Q)
		w := u128.New(wHi, wLo).Mod(mod.Q)
		if w.IsZero() {
			w = u128.One
		}
		m := vm.New(vm.TraceOff)
		bk := NewB512(m, isa.LevelMQX)
		d := NewDW[vm.V, vm.M](bk, mod, Schoolbook)
		m.BeginLoop()
		av := DWPair[vm.V]{Hi: bk.Broadcast(a.Hi), Lo: bk.Broadcast(a.Lo)}
		bv := DWPair[vm.V]{Hi: bk.Broadcast(b.Hi), Lo: bk.Broadcast(b.Lo)}
		wv := DWPair[vm.V]{Hi: bk.Broadcast(w.Hi), Lo: bk.Broadcast(w.Lo)}
		even, odd := d.Butterfly(av, bv, wv)
		e := u128.New(even.Hi.X[0], even.Lo.X[0])
		o := u128.New(odd.Hi.X[0], odd.Lo.X[0])

		// Reference inversion: t = o*w^-1; a' = (e+t)/2, b' = (e-t)/2.
		wInv := mod.Inv(w)
		twoInv := mod.Inv(u128.From64(2))
		tt := mod.Mul(o, wInv)
		aBack := mod.Mul(mod.Add(e, tt), twoInv)
		bBack := mod.Mul(mod.Sub(e, tt), twoInv)
		return aBack.Equal(a) && bBack.Equal(b)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
