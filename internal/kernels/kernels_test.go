package kernels

import (
	"math/rand"
	"testing"

	"mqxgo/internal/isa"
	"mqxgo/internal/modmath"
	"mqxgo/internal/u128"
	"mqxgo/internal/vm"
)

// vecLevels are the 512-bit tiers.
var vecLevels = []isa.Level{
	isa.LevelAVX512, isa.LevelMQX, isa.LevelMQXMulOnly,
	isa.LevelMQXCarryOnly, isa.LevelMQXMulHi, isa.LevelMQXPredicated,
}

func testModulus(t *testing.T, bits int) *modmath.Modulus128 {
	t.Helper()
	q, err := modmath.FindNTTPrime128(bits, 8)
	if err != nil {
		t.Fatal(err)
	}
	return modmath.MustModulus128(q)
}

func randReduced(r *rand.Rand, mod *modmath.Modulus128) u128.U128 {
	return u128.New(r.Uint64(), r.Uint64()).Mod(mod.Q)
}

// edgeInputs exercises the boundary operands of the conditional logic.
func edgeInputs(mod *modmath.Modulus128) []u128.U128 {
	return []u128.U128{
		u128.Zero, u128.One, mod.Q.Sub64(1), mod.Q.Sub64(2),
		mod.Q.Rsh(1), mod.Q.Rsh(1).Add64(1), u128.New(0, ^uint64(0)).Mod(mod.Q),
	}
}

// checkVec512 runs op over 8-lane inputs on a 512-bit backend and compares
// each lane against the modmath reference.
func checkVec512(t *testing.T, level isa.Level, mod *modmath.Modulus128, alg MulAlgorithm,
	as, bs []u128.U128,
	op func(d *DW[vm.V, vm.M], a, b DWPair[vm.V]) DWPair[vm.V],
	ref func(a, b u128.U128) u128.U128) {
	t.Helper()
	m := vm.New(vm.TraceOff)
	b512 := NewB512(m, level)
	d := NewDW[vm.V, vm.M](b512, mod, alg)
	m.BeginLoop()
	for i := 0; i+8 <= len(as); i += 8 {
		var ahi, alo, bhi, blo vm.Vec
		for l := 0; l < 8; l++ {
			ahi[l], alo[l] = as[i+l].Hi, as[i+l].Lo
			bhi[l], blo[l] = bs[i+l].Hi, bs[i+l].Lo
		}
		a := DWPair[vm.V]{Hi: loadVec(m, ahi), Lo: loadVec(m, alo)}
		bb := DWPair[vm.V]{Hi: loadVec(m, bhi), Lo: loadVec(m, blo)}
		c := op(d, a, bb)
		for l := 0; l < 8; l++ {
			got := u128.New(c.Hi.X[l], c.Lo.X[l])
			want := ref(as[i+l], bs[i+l])
			if !got.Equal(want) {
				t.Fatalf("%v q=%s lane %d: a=%s b=%s got %s want %s",
					level, mod.Q, l, as[i+l], bs[i+l], got, want)
			}
		}
	}
}

func loadVec(m *vm.Machine, x vm.Vec) vm.V {
	s := make([]uint64, 8)
	copy(s, x[:])
	return m.Load(s, 0)
}

func loadVec4(m *vm.Machine, x vm.Vec4) vm.V4 {
	s := make([]uint64, 4)
	copy(s, x[:])
	return m.Load4(s, 0)
}

func buildOperandSet(t *testing.T, mod *modmath.Modulus128, n int, seed int64) (as, bs []u128.U128) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	edges := edgeInputs(mod)
	for _, a := range edges {
		for _, b := range edges {
			as, bs = append(as, a), append(bs, b)
		}
	}
	for len(as)%8 != 0 || len(as) < n {
		as = append(as, randReduced(r, mod))
		bs = append(bs, randReduced(r, mod))
	}
	return as, bs
}

func TestVec512AddSubMulModAllLevels(t *testing.T) {
	for _, bits := range []int{64, 100, 124} {
		for _, alg := range []MulAlgorithm{Schoolbook, Karatsuba} {
			mod := testModulus(t, bits)
			as, bs := buildOperandSet(t, mod, 256, int64(bits)*7+int64(alg))
			for _, level := range vecLevels {
				checkVec512(t, level, mod, alg, as, bs,
					func(d *DW[vm.V, vm.M], a, b DWPair[vm.V]) DWPair[vm.V] { return d.AddMod(a, b) },
					mod.Add)
				checkVec512(t, level, mod, alg, as, bs,
					func(d *DW[vm.V, vm.M], a, b DWPair[vm.V]) DWPair[vm.V] { return d.SubMod(a, b) },
					mod.Sub)
				checkVec512(t, level, mod, alg, as, bs,
					func(d *DW[vm.V, vm.M], a, b DWPair[vm.V]) DWPair[vm.V] { return d.MulMod(a, b) },
					mod.Mul)
			}
		}
	}
}

func TestAVX2AddSubMulMod(t *testing.T) {
	for _, bits := range []int{64, 113, 124} {
		for _, alg := range []MulAlgorithm{Schoolbook, Karatsuba} {
			mod := testModulus(t, bits)
			as, bs := buildOperandSet(t, mod, 128, int64(bits)*13+int64(alg))
			m := vm.New(vm.TraceOff)
			b256 := NewB256(m)
			d := NewDW[vm.V4, vm.V4](b256, mod, alg)
			m.BeginLoop()
			type refFn func(a, b u128.U128) u128.U128
			cases := []struct {
				op  func(a, b DWPair[vm.V4]) DWPair[vm.V4]
				ref refFn
			}{
				{d.AddMod, mod.Add},
				{d.SubMod, mod.Sub},
				{d.MulMod, mod.Mul},
			}
			for _, c := range cases {
				for i := 0; i+4 <= len(as); i += 4 {
					var ahi, alo, bhi, blo vm.Vec4
					for l := 0; l < 4; l++ {
						ahi[l], alo[l] = as[i+l].Hi, as[i+l].Lo
						bhi[l], blo[l] = bs[i+l].Hi, bs[i+l].Lo
					}
					a := DWPair[vm.V4]{Hi: loadVec4(m, ahi), Lo: loadVec4(m, alo)}
					bb := DWPair[vm.V4]{Hi: loadVec4(m, bhi), Lo: loadVec4(m, blo)}
					got := c.op(a, bb)
					for l := 0; l < 4; l++ {
						g := u128.New(got.Hi.X[l], got.Lo.X[l])
						w := c.ref(as[i+l], bs[i+l])
						if !g.Equal(w) {
							t.Fatalf("avx2 q=%s lane %d: a=%s b=%s got %s want %s",
								mod.Q, l, as[i+l], bs[i+l], g, w)
						}
					}
				}
			}
		}
	}
}

func TestScalarAddSubMulMod(t *testing.T) {
	for _, bits := range []int{64, 90, 124} {
		for _, alg := range []MulAlgorithm{Schoolbook, Karatsuba} {
			mod := testModulus(t, bits)
			as, bs := buildOperandSet(t, mod, 128, int64(bits)*17+int64(alg))
			m := vm.New(vm.TraceOff)
			bs1 := NewBScalar(m)
			d := NewDW[vm.S, vm.F](bs1, mod, alg)
			m.BeginLoop()
			for i := range as {
				mk := func(x u128.U128) DWPair[vm.S] {
					s := []uint64{x.Hi, x.Lo}
					return DWPair[vm.S]{Hi: m.SLoad(s, 0), Lo: m.SLoad(s, 1)}
				}
				a, b := mk(as[i]), mk(bs[i])
				checks := []struct {
					got  DWPair[vm.S]
					want u128.U128
					name string
				}{
					{d.AddMod(a, b), mod.Add(as[i], bs[i]), "add"},
					{d.SubMod(a, b), mod.Sub(as[i], bs[i]), "sub"},
					{d.MulMod(a, b), mod.Mul(as[i], bs[i]), "mul"},
				}
				for _, c := range checks {
					g := u128.New(c.got.Hi.X, c.got.Lo.X)
					if !g.Equal(c.want) {
						t.Fatalf("scalar %s q=%s: a=%s b=%s got %s want %s",
							c.name, mod.Q, as[i], bs[i], g, c.want)
					}
				}
			}
		}
	}
}

func TestButterflyMatchesReference(t *testing.T) {
	mod := testModulus(t, 124)
	r := rand.New(rand.NewSource(99))
	m := vm.New(vm.TraceOff)
	b512 := NewB512(m, isa.LevelMQX)
	d := NewDW[vm.V, vm.M](b512, mod, Schoolbook)
	m.BeginLoop()
	for iter := 0; iter < 50; iter++ {
		var ahi, alo, bhi, blo, whi, wlo vm.Vec
		var av, bv, wv [8]u128.U128
		for l := 0; l < 8; l++ {
			av[l], bv[l], wv[l] = randReduced(r, mod), randReduced(r, mod), randReduced(r, mod)
			ahi[l], alo[l] = av[l].Hi, av[l].Lo
			bhi[l], blo[l] = bv[l].Hi, bv[l].Lo
			whi[l], wlo[l] = wv[l].Hi, wv[l].Lo
		}
		a := DWPair[vm.V]{Hi: loadVec(m, ahi), Lo: loadVec(m, alo)}
		b := DWPair[vm.V]{Hi: loadVec(m, bhi), Lo: loadVec(m, blo)}
		w := DWPair[vm.V]{Hi: loadVec(m, whi), Lo: loadVec(m, wlo)}
		even, odd := d.Butterfly(a, b, w)
		fma := d.MulAddMod(a, b, w)
		for l := 0; l < 8; l++ {
			wantE := mod.Add(av[l], bv[l])
			wantO := mod.Mul(mod.Sub(av[l], bv[l]), wv[l])
			gotE := u128.New(even.Hi.X[l], even.Lo.X[l])
			gotO := u128.New(odd.Hi.X[l], odd.Lo.X[l])
			if !gotE.Equal(wantE) || !gotO.Equal(wantO) {
				t.Fatalf("butterfly lane %d: got (%s, %s), want (%s, %s)",
					l, gotE, gotO, wantE, wantO)
			}
			wantF := mod.Add(mod.Mul(av[l], bv[l]), wv[l])
			gotF := u128.New(fma.Hi.X[l], fma.Lo.X[l])
			if !gotF.Equal(wantF) {
				t.Fatalf("mul-add lane %d: got %s, want %s", l, gotF, wantF)
			}
		}
	}
}

// TestInstructionCountOrdering verifies the core claim of Section 4: MQX
// collapses the emulation sequences, so the per-butterfly instruction count
// strictly drops from AVX2 (most), AVX-512, down to MQX (fewest).
func TestInstructionCountOrdering(t *testing.T) {
	mod := testModulus(t, 124)
	count512 := func(level isa.Level) int64 {
		m := vm.New(vm.TraceCounts)
		b := NewB512(m, level)
		d := NewDW[vm.V, vm.M](b, mod, Schoolbook)
		m.BeginLoop()
		x := DWPair[vm.V]{Hi: b.Broadcast(1), Lo: b.Broadcast(2)}
		d.Butterfly(x, x, x)
		return m.TotalOps()
	}
	avx512 := count512(isa.LevelAVX512)
	mqx := count512(isa.LevelMQX)
	mqxM := count512(isa.LevelMQXMulOnly)
	mqxC := count512(isa.LevelMQXCarryOnly)
	mqxMh := count512(isa.LevelMQXMulHi)

	if !(mqx < mqxM && mqxM < avx512) {
		t.Errorf("want mqx < +M < avx512, got %d, %d, %d", mqx, mqxM, avx512)
	}
	if !(mqx < mqxC && mqxC < avx512) {
		t.Errorf("want mqx < +C < avx512, got %d, %d, %d", mqx, mqxC, avx512)
	}
	if !(mqx <= mqxMh && mqxMh < avx512) {
		t.Errorf("want mqx <= +Mh,C < avx512, got %d, %d, %d", mqx, mqxMh, avx512)
	}

	// AVX2 processes 4 lanes per instruction; normalize to per-lane work.
	m2 := vm.New(vm.TraceCounts)
	b2 := NewB256(m2)
	d2 := NewDW[vm.V4, vm.V4](b2, mod, Schoolbook)
	m2.BeginLoop()
	x2 := DWPair[vm.V4]{Hi: b2.Broadcast(1), Lo: b2.Broadcast(2)}
	d2.Butterfly(x2, x2, x2)
	avx2PerLane := float64(m2.TotalOps()) / 4

	avx512PerLane := float64(avx512) / 8
	if avx2PerLane <= avx512PerLane {
		t.Errorf("AVX2 per-lane ops %.1f should exceed AVX-512 per-lane %.1f",
			avx2PerLane, avx512PerLane)
	}

	// Scalar: one lane, hardware carries. Fewer raw instructions per
	// element than AVX-512 per vector, but no lane parallelism.
	ms := vm.New(vm.TraceCounts)
	bsc := NewBScalar(ms)
	ds := NewDW[vm.S, vm.F](bsc, mod, Schoolbook)
	ms.BeginLoop()
	xs := DWPair[vm.S]{Hi: bsc.Broadcast(1), Lo: bsc.Broadcast(2)}
	ds.Butterfly(xs, xs, xs)
	scalar := ms.TotalOps()
	if scalar >= avx512 {
		t.Errorf("scalar butterfly (%d ops) should use fewer instructions than the AVX-512 vector butterfly (%d)", scalar, avx512)
	}
}

func TestPredicatedVariantSavesBlends(t *testing.T) {
	mod := testModulus(t, 124)
	count := func(level isa.Level) int64 {
		m := vm.New(vm.TraceCounts)
		b := NewB512(m, level)
		d := NewDW[vm.V, vm.M](b, mod, Schoolbook)
		m.BeginLoop()
		x := DWPair[vm.V]{Hi: b.Broadcast(1), Lo: b.Broadcast(2)}
		d.AddMod(x, x)
		d.SubMod(x, x)
		return m.TotalOps()
	}
	mqx := count(isa.LevelMQX)
	pred := count(isa.LevelMQXPredicated)
	if pred >= mqx {
		t.Errorf("+P add/sub (%d ops) should beat plain MQX (%d)", pred, mqx)
	}
}

// TestB512LevelFeatures pins the Figure 6 feature matrix NewB512 derives
// from each 512-bit level: which tiers lower to a native 64-bit widening
// multiply (+M, or the +Mh pair) and which to native carries (+C).
func TestB512LevelFeatures(t *testing.T) {
	for _, c := range []struct {
		level      isa.Level
		mul, carry bool
	}{
		{isa.LevelAVX512, false, false},
		{isa.LevelMQX, true, true},
		{isa.LevelMQXMulOnly, true, false},
		{isa.LevelMQXCarryOnly, false, true},
		{isa.LevelMQXMulHi, true, true},
		{isa.LevelMQXPredicated, true, true},
	} {
		b := NewB512(vm.New(vm.TraceOff), c.level)
		if mul := b.NativeMulWide || b.NativeMulHi; mul != c.mul || b.NativeCarry != c.carry {
			t.Errorf("%v: native mul %v carry %v, want %v %v", c.level, mul, b.NativeCarry, c.mul, c.carry)
		}
	}
}

func TestInterleave(t *testing.T) {
	// 512-bit interleave.
	m := vm.New(vm.TraceOff)
	b := NewB512(m, isa.LevelAVX512)
	m.BeginLoop()
	evens := make([]uint64, 8)
	odds := make([]uint64, 8)
	for i := range evens {
		evens[i] = uint64(2 * i)
		odds[i] = uint64(2*i + 1)
	}
	r0, r1 := b.Interleave(m.Load(evens, 0), m.Load(odds, 0))
	for i := 0; i < 8; i++ {
		if r0.X[i] != uint64(i) || r1.X[i] != uint64(8+i) {
			t.Fatalf("512 interleave wrong: %v %v", r0.X, r1.X)
		}
	}
	// AVX2 interleave.
	m2 := vm.New(vm.TraceOff)
	b2 := NewB256(m2)
	m2.BeginLoop()
	r20, r21 := b2.Interleave(m2.Load4(evens, 0), m2.Load4(odds, 0))
	for i := 0; i < 4; i++ {
		if r20.X[i] != uint64(i) || r21.X[i] != uint64(4+i) {
			t.Fatalf("avx2 interleave wrong: %v %v", r20.X, r21.X)
		}
	}
}
