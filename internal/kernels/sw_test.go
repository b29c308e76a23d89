package kernels

import (
	"math/rand"
	"testing"

	"mqxgo/internal/isa"
	"mqxgo/internal/modmath"
	"mqxgo/internal/vm"
)

func sw64Mod(t *testing.T) *modmath.Modulus64 {
	t.Helper()
	ps, err := modmath.FindNTTPrimes64(60, 1<<10, 1)
	if err != nil {
		t.Fatal(err)
	}
	return modmath.MustModulus64(ps[0])
}

func TestSWKernels512AllLevels(t *testing.T) {
	mod := sw64Mod(t)
	r := rand.New(rand.NewSource(141))
	for _, level := range []isa.Level{isa.LevelAVX512, isa.LevelMQX} {
		m := vm.New(vm.TraceOff)
		b := NewB512(m, level)
		s := NewSW[vm.V, vm.M](b, mod)
		m.BeginLoop()
		for iter := 0; iter < 300; iter++ {
			var av, bv, wv vm.Vec
			var as, bs, ws [8]uint64
			for l := 0; l < 8; l++ {
				as[l], bs[l], ws[l] = r.Uint64()%mod.Q, r.Uint64()%mod.Q, r.Uint64()%mod.Q
				av[l], bv[l], wv[l] = as[l], bs[l], ws[l]
			}
			mk := func(x vm.Vec) vm.V {
				sl := make([]uint64, 8)
				copy(sl, x[:])
				return m.Load(sl, 0)
			}
			a, bb, w := mk(av), mk(bv), mk(wv)
			var pre vm.Vec
			for l := 0; l < 8; l++ {
				pre[l] = mod.ShoupPrecompute(ws[l])
			}
			wp := mk(pre)

			add := s.AddMod(a, bb)
			sub := s.SubMod(a, bb)
			shoup := s.MulShoup(a, w, wp)
			even, odd := s.Butterfly(a, bb, w, wp)
			for l := 0; l < 8; l++ {
				if add.X[l] != mod.Add(as[l], bs[l]) {
					t.Fatalf("%v AddMod lane %d", level, l)
				}
				if sub.X[l] != mod.Sub(as[l], bs[l]) {
					t.Fatalf("%v SubMod lane %d", level, l)
				}
				if shoup.X[l] != mod.Mul(as[l], ws[l]) {
					t.Fatalf("%v MulShoup lane %d", level, l)
				}
				wantE := mod.Add(as[l], bs[l])
				wantO := mod.Mul(mod.Sub(as[l], bs[l]), ws[l])
				if even.X[l] != wantE || odd.X[l] != wantO {
					t.Fatalf("%v Butterfly lane %d", level, l)
				}
			}
		}
	}
}

func TestSWKernelsScalarAndAVX2(t *testing.T) {
	mod := sw64Mod(t)
	r := rand.New(rand.NewSource(142))

	// Scalar.
	{
		m := vm.New(vm.TraceOff)
		b := NewBScalar(m)
		s := NewSW[vm.S, vm.F](b, mod)
		m.BeginLoop()
		for i := 0; i < 500; i++ {
			a, x := r.Uint64()%mod.Q, r.Uint64()%mod.Q
			sl := []uint64{a, x, mod.ShoupPrecompute(x)}
			av, xv, xp := m.SLoad(sl, 0), m.SLoad(sl, 1), m.SLoad(sl, 2)
			if s.MulShoup(av, xv, xp).X != mod.Mul(a, x) {
				t.Fatalf("scalar MulShoup(%d, %d)", a, x)
			}
			if s.AddMod(av, xv).X != mod.Add(a, x) {
				t.Fatalf("scalar AddMod(%d, %d)", a, x)
			}
			if s.SubMod(av, xv).X != mod.Sub(a, x) {
				t.Fatalf("scalar SubMod(%d, %d)", a, x)
			}
		}
	}
	// AVX2.
	{
		m := vm.New(vm.TraceOff)
		b := NewB256(m)
		s := NewSW[vm.V4, vm.V4](b, mod)
		m.BeginLoop()
		for i := 0; i < 300; i++ {
			var as, xs [4]uint64
			sl := make([]uint64, 12)
			for l := 0; l < 4; l++ {
				as[l], xs[l] = r.Uint64()%mod.Q, r.Uint64()%mod.Q
				sl[l], sl[4+l], sl[8+l] = as[l], xs[l], mod.ShoupPrecompute(xs[l])
			}
			av, xv, xp := m.Load4(sl, 0), m.Load4(sl, 4), m.Load4(sl, 8)
			mul := s.MulShoup(av, xv, xp)
			for l := 0; l < 4; l++ {
				if mul.X[l] != mod.Mul(as[l], xs[l]) {
					t.Fatalf("avx2 MulShoup lane %d", l)
				}
			}
		}
	}
}

// TestRNSLaneVsDoubleWordInstructionCounts quantifies the kernel-level
// trade-off behind the paper's Section 1 motivation: per 8 SIMD lanes,
// the 64-bit RNS multiply (the Shoup multiply the towers run) needs far
// fewer instructions than the 128-bit double-word Barrett multiply on
// plain AVX-512 (no carry emulation is needed at 64 bits), and MQX
// shrinks the double-word kernel much more than the single-word one — the
// extension specifically attacks the multi-word bottleneck.
func TestRNSLaneVsDoubleWordInstructionCounts(t *testing.T) {
	mod64 := sw64Mod(t)
	mod128 := modmath.DefaultModulus128()

	countSW := func(level isa.Level) int64 {
		m := vm.New(vm.TraceCounts)
		b := NewB512(m, level)
		s := NewSW[vm.V, vm.M](b, mod64)
		w, wPre := b.Broadcast(5), b.Broadcast(mod64.ShoupPrecompute(5))
		m.BeginLoop()
		x := b.Broadcast(123)
		s.MulShoup(x, w, wPre)
		return m.TotalOps() - 3 // exclude the broadcasts
	}
	countDW := func(level isa.Level) int64 {
		m := vm.New(vm.TraceCounts)
		b := NewB512(m, level)
		d := NewDW[vm.V, vm.M](b, mod128, Schoolbook)
		m.BeginLoop()
		x := DWPair[vm.V]{Hi: b.Broadcast(3), Lo: b.Broadcast(4)}
		d.MulMod(x, x)
		return m.TotalOps() - 2
	}

	swAVX, swMQX := countSW(isa.LevelAVX512), countSW(isa.LevelMQX)
	dwAVX, dwMQX := countDW(isa.LevelAVX512), countDW(isa.LevelMQX)

	if swAVX*4 > dwAVX {
		t.Errorf("64-bit Shoup mulmod (%d ops) should be >4x smaller than 128-bit (%d ops) on AVX-512", swAVX, dwAVX)
	}
	gainSW := float64(swAVX) / float64(swMQX)
	gainDW := float64(dwAVX) / float64(dwMQX)
	if gainDW <= gainSW {
		t.Errorf("MQX should help the double-word kernel (%.2fx) more than the single-word one (%.2fx)", gainDW, gainSW)
	}
	t.Logf("mulmod instructions per 8 lanes: 64-bit avx512=%d mqx=%d; 128-bit avx512=%d mqx=%d",
		swAVX, swMQX, dwAVX, dwMQX)
}
