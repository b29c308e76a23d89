// Package benches holds the Go benchmarks that no ./benchmark probe
// already times at their shape. `go run ./benchmark -trace 1` prints the
// probes (the modmath chains, the 128-bit transforms at 4,096 and 16,384
// points, the BEHZ conversions, the scheme calls); `go run ./cmd/report`
// prints the paper's tables and figures.
//
// Two kinds of benchmarks coexist:
//
//   - Native measurements (Benchmark*Native / *Generic, the batch, RNS and
//     MulCt benchmarks): real wall-clock time on the host CPU, at sizes and
//     operands the probes do not run.
//   - Model projections (BenchmarkFigure* / BenchmarkTable6): the port-model
//     pipeline that produces the paper's figures; projected metrics are
//     attached with b.ReportMetric (e.g. model-ns/butterfly).
//
// Run everything with:
//
//	go test -bench=. -benchmem
package benches

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"mqxgo/internal/blas"
	"mqxgo/internal/core"
	"mqxgo/internal/fhe"
	"mqxgo/internal/isa"
	"mqxgo/internal/modmath"
	"mqxgo/internal/ntt"
	"mqxgo/internal/perfmodel"
	"mqxgo/internal/pisa"
	"mqxgo/internal/rns"
	"mqxgo/internal/u128"
)

func randResidues(seed int64, mod *modmath.Modulus128, n int) []u128.U128 {
	r := rand.New(rand.NewSource(seed))
	xs := make([]u128.U128, n)
	for i := range xs {
		xs[i] = u128.New(r.Uint64(), r.Uint64()).Mod(mod.Q)
	}
	return xs
}

// --- Kernel-level native measurements (Table 1 / Listing 1 territory) ---

func BenchmarkModAdd128Native(b *testing.B) {
	mod := modmath.DefaultModulus128()
	xs := randResidues(1, mod, 1024)
	b.ResetTimer()
	acc := u128.Zero
	for i := 0; i < b.N; i++ {
		acc = mod.Add(acc, xs[i%1024])
	}
	sinkU128 = acc
}

var sinkU128 u128.U128

func BenchmarkNTT64Native4096(b *testing.B) {
	ps, err := modmath.FindNTTPrimes64(60, 1<<13, 1)
	if err != nil {
		b.Fatal(err)
	}
	p, err := ntt.NewPlan64(modmath.MustModulus64(ps[0]), 1<<12)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(77))
	x := make([]uint64, 1<<12)
	for i := range x {
		x[i] = r.Uint64() % ps[0]
	}
	g := p.Generic()
	dst := make([]uint64, 1<<12)
	g.ForwardInto(dst, x) // warm the scratch pool
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ForwardInto(dst, x)
	}
	butterflies := float64(1<<11) * 12
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/butterflies, "ns/butterfly")
}

// --- Zero-allocation engine (PR 1): Into variants and batch pool ---

func BenchmarkNTTInverseNativeInto4096(b *testing.B) {
	mod := modmath.DefaultModulus128()
	p, err := ntt.CachedPlan(mod, 1<<12)
	if err != nil {
		b.Fatal(err)
	}
	y := randResidues(73, mod, 1<<12)
	dst := make([]u128.U128, 1<<12)
	p.InverseInto(dst, y)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.InverseInto(dst, y)
	}
	butterflies := float64(1<<11) * 12
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/butterflies, "ns/butterfly")
}

func BenchmarkNTTPolyMulNegacyclicInto4096(b *testing.B) {
	mod := modmath.DefaultModulus128()
	p, err := ntt.CachedPlan(mod, 1<<12)
	if err != nil {
		b.Fatal(err)
	}
	x := randResidues(74, mod, 1<<12)
	y := randResidues(75, mod, 1<<12)
	dst := make([]u128.U128, 1<<12)
	p.PolyMulNegacyclicInto(dst, x, y)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.PolyMulNegacyclicInto(dst, x, y)
	}
}

// BenchmarkBatchNTTPool4096W8 is the PR acceptance configuration: a batch
// of 64 forward transforms at n=4096 dispatched over 8 workers through the
// persistent pool, transforms/sec derivable from ns/transform.
func BenchmarkBatchNTTPool4096W8(b *testing.B) {
	mod := modmath.DefaultModulus128()
	p, err := ntt.CachedPlan(mod, 1<<12)
	if err != nil {
		b.Fatal(err)
	}
	const batch = 64
	inputs := make([][]u128.U128, batch)
	dsts := make([][]u128.U128, batch)
	for i := range inputs {
		inputs[i] = randResidues(int64(85+i), mod, 1<<12)
		dsts[i] = make([]u128.U128, 1<<12)
	}
	p.BatchForwardInto(dsts, inputs, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.BatchForwardInto(dsts, inputs, 8)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/batch, "ns/transform")
}

func BenchmarkBatchNTTParallel(b *testing.B) {
	mod := modmath.DefaultModulus128()
	p, err := ntt.CachedPlan(mod, 1<<10)
	if err != nil {
		b.Fatal(err)
	}
	const batch = 64
	inputs := make([][]u128.U128, batch)
	dsts := make([][]u128.U128, batch)
	for i := range inputs {
		inputs[i] = randResidues(int64(80+i), mod, 1<<10)
		dsts[i] = make([]u128.U128, 1<<10)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.BatchForwardInto(dsts, inputs, 0)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/batch, "ns/transform")
}

// --- Figure 4: BLAS kernels, native baselines measured for real ---

func benchBLASNative(b *testing.B, op blas.Op) {
	mod := modmath.DefaultModulus128()
	nat := blas.Native{Mod: mod}
	n := core.BLASVectorLength
	x := randResidues(4, mod, n)
	y := randResidues(5, mod, n)
	dst := make([]u128.U128, n)
	a := x[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		switch op {
		case blas.OpVecAdd:
			nat.VecAddMod(dst, x, y)
		case blas.OpVecSub:
			nat.VecSubMod(dst, x, y)
		case blas.OpVecPMul:
			nat.VecPMulMod(dst, x, y)
		case blas.OpAxpy:
			nat.Axpy(a, x, dst)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/element")
}

func BenchmarkFigure4VecAddNative(b *testing.B)  { benchBLASNative(b, blas.OpVecAdd) }
func BenchmarkFigure4VecSubNative(b *testing.B)  { benchBLASNative(b, blas.OpVecSub) }
func BenchmarkFigure4VecPMulNative(b *testing.B) { benchBLASNative(b, blas.OpVecPMul) }
func BenchmarkFigure4AxpyNative(b *testing.B)    { benchBLASNative(b, blas.OpAxpy) }

func BenchmarkFigure4VecPMulGeneric(b *testing.B) {
	mod := modmath.DefaultModulus128()
	gen := core.GenericArith{Q: mod.Q}
	n := core.BLASVectorLength
	x := randResidues(6, mod, n)
	y := randResidues(7, mod, n)
	dst := make([]u128.U128, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range dst {
			dst[j] = gen.Mul(x[j], y[j])
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/element")
}

// BenchmarkFigure4Model projects the full Figure 4 grid and reports the
// modeled per-element times of the AVX-512 and MQX tiers on both machines.
func BenchmarkFigure4Model(b *testing.B) {
	mod := modmath.DefaultModulus128()
	var figs []core.BLASFigure
	for i := 0; i < b.N; i++ {
		figs = figs[:0]
		for _, mach := range perfmodel.MeasurementMachines {
			figs = append(figs, core.Figure4(mach, mod, core.DefaultBaselineRatios))
		}
	}
	for _, fig := range figs {
		tag := "intel"
		if fig.Machine == perfmodel.AMDEPYC9654 {
			tag = "amd"
		}
		for _, s := range fig.Series {
			if s.Name == "avx512" || s.Name == "mqx" {
				b.ReportMetric(s.Values[2], "model-ns/el-pmul-"+s.Name+"-"+tag)
			}
		}
	}
}

// --- Figure 5: NTT across sizes ---

func benchNTTNative(b *testing.B, n int) {
	mod := modmath.DefaultModulus128()
	p, err := ntt.CachedPlan(mod, n)
	if err != nil {
		b.Fatal(err)
	}
	x := randResidues(10, mod, n)
	dst := make([]u128.U128, n)
	p.ForwardInto(dst, x) // warm the scratch pool
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ForwardInto(dst, x)
	}
	butterflies := float64(n/2) * float64(p.M)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/butterflies, "ns/butterfly")
}

func BenchmarkFigure5NTTNative1024(b *testing.B)  { benchNTTNative(b, 1<<10) }
func BenchmarkFigure5NTTNative65536(b *testing.B) { benchNTTNative(b, 1<<16) }

func BenchmarkFigure5NTTGeneric4096(b *testing.B) {
	mod := modmath.DefaultModulus128()
	p, err := ntt.CachedPlan(mod, 1<<12)
	if err != nil {
		b.Fatal(err)
	}
	g := core.GenericArith{Q: mod.Q}
	x := randResidues(11, mod, 1<<12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Forward(p, x)
	}
	butterflies := float64(1<<11) * float64(p.M)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/butterflies, "ns/butterfly")
}

// BenchmarkFigure5Model projects the full Figure 5 grid on both machines
// and reports the modeled MQX per-butterfly times at 2^14.
func BenchmarkFigure5Model(b *testing.B) {
	mod := modmath.DefaultModulus128()
	var figs []core.NTTFigure
	for i := 0; i < b.N; i++ {
		figs = figs[:0]
		for _, mach := range perfmodel.MeasurementMachines {
			figs = append(figs, core.Figure5(mach, mod, core.DefaultBaselineRatios))
		}
	}
	for _, fig := range figs {
		tag := "intel"
		if fig.Machine == perfmodel.AMDEPYC9654 {
			tag = "amd"
		}
		for _, s := range fig.Series {
			if s.Name == "mqx" || s.Name == "avx512" {
				b.ReportMetric(s.Values[4], "model-ns/bf-"+s.Name+"-"+tag)
			}
		}
	}
}

// --- Figure 6: MQX component ablation ---

func BenchmarkFigure6Model(b *testing.B) {
	mod := modmath.DefaultModulus128()
	var rows []core.SensitivityRow
	for i := 0; i < b.N; i++ {
		rows = core.Figure6(mod)
	}
	for _, row := range rows {
		b.ReportMetric(row.Normalized, "norm-"+row.Label)
	}
}

// --- Table 6: PISA validation ---

func BenchmarkTable6PISA(b *testing.B) {
	mod := modmath.DefaultModulus128()
	var res []pisa.ValidationResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = pisa.Validate(perfmodel.IntelXeon8352Y, mod)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range res {
		b.ReportMetric(r.EpsilonPct, "eps%-"+r.Pair.Target.String())
	}
}

// --- Figures 1 and 7: roofline / SOL ---

func BenchmarkFigure7Model(b *testing.B) {
	mod := modmath.DefaultModulus128()
	var fig core.SOLFigure
	var err error
	for i := 0; i < b.N; i++ {
		for _, mach := range perfmodel.MeasurementMachines {
			fig, err = core.Figure7(mach, mod)
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(fig.MQXSOL.Points[0].TimeNs, "model-ns-sol-1024")
}

func BenchmarkFigure1Model(b *testing.B) {
	mod := modmath.DefaultModulus128()
	var bars []core.Figure1Bar
	for i := 0; i < b.N; i++ {
		bars = core.Figure1(mod, core.DefaultBaselineRatios)
	}
	for _, bar := range bars {
		switch bar.Label {
		case "This work, AVX-512 (1 core)":
			b.ReportMetric(bar.TimeNs, "model-ns-avx512-1c")
		case "RPU (ASIC)":
			b.ReportMetric(bar.TimeNs, "model-ns-rpu")
		}
	}
}

// --- Per-butterfly model across every tier (headline §5.4 numbers) ---

func BenchmarkButterflyModelAllTiers(b *testing.B) {
	mod := modmath.DefaultModulus128()
	levels := []isa.Level{isa.LevelScalar, isa.LevelAVX2, isa.LevelAVX512, isa.LevelMQX}
	type key struct {
		mach  *perfmodel.Machine
		level isa.Level
	}
	out := map[key]float64{}
	for i := 0; i < b.N; i++ {
		for _, mach := range perfmodel.MeasurementMachines {
			for _, level := range levels {
				m := perfmodel.ProjectNTT(mach, level, mod, 1<<14)
				out[key{mach, level}] = m.NsPerButterfly()
			}
		}
	}
	for k, v := range out {
		tag := "intel"
		if k.mach == perfmodel.AMDEPYC9654 {
			tag = "amd"
		}
		b.ReportMetric(v, "model-ns/bf-"+k.level.String()+"-"+tag)
	}
}

// benchRNSContext builds a k-tower RNS context with deterministic
// operands for the tower-parallel multiply benchmarks.
func benchRNSContext(b *testing.B, k, n int) (*rns.Context, rns.Poly, rns.Poly, rns.Poly) {
	b.Helper()
	c, err := rns.NewContext(59, k, n)
	if err != nil {
		b.Fatal(err)
	}
	ra, rb, dst := c.NewPoly(), c.NewPoly(), c.NewPoly()
	for i := 0; i < k; i++ {
		for j := 0; j < n; j++ {
			ra.Res[i][j] = uint64(j*2847+i*13) % c.Mods[i].Q
			rb.Res[i][j] = uint64(j*9176+i*7) % c.Mods[i].Q
		}
	}
	return c, ra, rb, dst
}

// BenchmarkRNSMulAllSeqK4N4096 is the zero-allocation sequential tower
// loop: the baseline the parallel dispatch is judged against.
func BenchmarkRNSMulAllSeqK4N4096(b *testing.B) {
	c, ra, rb, dst := benchRNSContext(b, 4, 1<<12)
	if err := c.MulAll(dst, ra, rb); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.MulAll(dst, ra, rb); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/4, "ns/tower")
}

// --- PR 4: homomorphic multiply on the Backend seam ---

// benchMulCtFixture prepares a scheme on one backend with a
// ready-to-multiply ciphertext pair switched down to the given level, a
// relin key, and a reusable destination.
func benchMulCtFixture(b *testing.B, backend fhe.Backend, level int) (*fhe.BackendScheme, fhe.BackendCiphertext, fhe.BackendCiphertext, fhe.BackendCiphertext, fhe.BackendRelinKey) {
	b.Helper()
	s := fhe.NewBackendScheme(backend, 77)
	sk := s.KeyGen()
	rlk, rlkErr := s.RelinKeyGen(sk)
	if rlkErr != nil {
		b.Fatal(rlkErr)
	}
	n := backend.N()
	msg := make([]uint64, n)
	for i := range msg {
		msg[i] = uint64(i*13+5) % backend.PlainModulus()
	}
	c1, err := s.Encrypt(sk, msg)
	if err != nil {
		b.Fatal(err)
	}
	c2, err := s.Encrypt(sk, msg)
	if err != nil {
		b.Fatal(err)
	}
	for l := 0; l < level; l++ {
		if c1, err = s.ModSwitchCtx(context.Background(), c1); err != nil {
			b.Fatal(err)
		}
		if c2, err = s.ModSwitchCtx(context.Background(), c2); err != nil {
			b.Fatal(err)
		}
	}
	dst := fhe.BackendCiphertext{A: backend.NewPolyAt(level), B: backend.NewPolyAt(level), Level: level}
	if err := s.MulCiphertextsInto(context.Background(), &dst, c1, c2, rlk); err != nil { // warm every pool
		b.Fatal(err)
	}
	return s, c1, c2, dst, rlk
}

// BenchmarkMulCtRNSK2N4096 is the BEHZ pipeline at the paper's sweet
// spot (two towers): base-extend, tensor, divide-and-round, exact
// Shenoy-Kumaresan return, CRT-gadget relin — 0 allocs/op steady state.
func BenchmarkMulCtRNSK2N4096(b *testing.B) {
	c, err := rns.NewContext(59, 2, 1<<12)
	if err != nil {
		b.Fatal(err)
	}
	backend, err := fhe.NewRNSBackend(c, 257)
	if err != nil {
		b.Fatal(err)
	}
	s, c1, c2, dst, rlk := benchMulCtFixture(b, backend, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.MulCiphertextsInto(context.Background(), &dst, c1, c2, rlk); err != nil {
			b.Fatal(err)
		}
	}
}

// --- PR 5: the modulus ladder ---

// BenchmarkMulCtLadderK4N4096 measures the general product of two
// distinct ciphertexts at levels 1 and 2 of a k=4 ladder: the BEHZ
// pipeline shrinks by one tower per level. The benchmark's probes cover
// the rest of the ladder (fhe.mulct_l0_us is this product at level 0;
// fhe.mulct_l1_us and fhe.mulct_l2_us time the cheaper squaring).
func BenchmarkMulCtLadderK4N4096(b *testing.B) {
	c, err := rns.NewContext(59, 4, 1<<12)
	if err != nil {
		b.Fatal(err)
	}
	backend, err := fhe.NewRNSBackend(c, 257)
	if err != nil {
		b.Fatal(err)
	}
	for level := 1; level <= 2; level++ {
		b.Run(fmt.Sprintf("level%d", level), func(b *testing.B) {
			s, c1, c2, dst, rlk := benchMulCtFixture(b, backend, level)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.MulCiphertextsInto(context.Background(), &dst, c1, c2, rlk); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
