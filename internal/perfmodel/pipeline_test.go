package perfmodel

import (
	"testing"

	"mqxgo/internal/isa"
	"mqxgo/internal/kernels"
	"mqxgo/internal/modmath"
)

func lazyTestMod64(t *testing.T) *modmath.Modulus64 {
	t.Helper()
	ps, err := modmath.FindNTTPrimes64(59, 8192, 1)
	if err != nil {
		t.Fatal(err)
	}
	return modmath.MustModulus64(ps[0])
}

// The lazy bodies must cost less than the strict seed-era body at every
// tier: dropping the Shoup correction and the canonical subtract is the
// PR 3 measured win, and the model has to reproduce its direction before
// it can be trusted predictively.
func TestLazyBodyBeatsStrict(t *testing.T) {
	mod := lazyTestMod64(t)
	for _, lv := range []isa.Level{isa.LevelScalar, isa.LevelAVX2, isa.LevelAVX512} {
		strictBody := SWButterflyBody(lv, mod)
		lazyBody := LazySWButterflyBody(lv, mod)
		strict := NewKernelModel(IntelXeon8352Y, strictBody)
		lazy := NewKernelModel(IntelXeon8352Y, lazyBody)
		// The lazy body is strictly shorter; projected cycles may only tie
		// when another resource dominates (on the Ice Lake model the
		// microcoded VPMULLQ keeps the AVX-512 port-0 pressure constant,
		// so dropping the condsubs does not move the bound — exactly the
		// kind of ranking insight the VM pass is for).
		if len(lazyBody.Instrs) >= len(strictBody.Instrs) {
			t.Errorf("%v: lazy body %d instrs not below strict %d",
				lv, len(lazyBody.Instrs), len(strictBody.Instrs))
		}
		if lazy.CyclesPerIter > strict.CyclesPerIter {
			t.Errorf("%v: lazy %.2f cycles/iter above strict %.2f",
				lv, lazy.CyclesPerIter, strict.CyclesPerIter)
		}
	}
}

// The blocked body hoists the compact-table twiddle pair out of the run
// loop: of the dense body's six streamed vectors (four loads, two
// stores) the two table loads disappear, leaving two thirds the traffic.
func TestBlockedBodyStreamsLess(t *testing.T) {
	mod := lazyTestMod64(t)
	for _, lv := range []isa.Level{isa.LevelScalar, isa.LevelAVX2, isa.LevelAVX512} {
		dense := LazySWButterflyBody(lv, mod)
		blk := LazySWButterflyBlkBody(lv, mod)
		saved := int64(2 * 8 * lv.Lanes())
		if dense.Bytes-blk.Bytes != saved {
			t.Errorf("%v: blocked body streams %d bytes, dense %d (want %d saved)",
				lv, blk.Bytes, dense.Bytes, saved)
		}
	}
}

// The calibrated bench-host machine must predict the committed
// BENCH_PR7 measurements within a bounded drift, through the projection
// the benchmark prints beside its measured transform (ProjectLazyNTT64 on
// the dense body at n=4096). The uncalibrated VM was ~2x conservative on
// the bench host: the port-pressure bound was tight for
// the asm tiers but optimistic for the compiled scalar baseline, which
// skewed every projected speed-up over scalar. CIBenchHost carries the
// fitted ScalarSchedFactor; this test replays the frozen anchor and
// bounds per-tier absolute drift and the speed-up-over-scalar drift at
// 30%. The dense bodies must also keep the per-butterfly ordering
// AVX-512 <= AVX2 <= scalar, on the bench host and on the paper's Intel
// machine: the vector tier's projected win is what the assembly tier was
// gated on.
func TestCIBenchHostDriftBound(t *testing.T) {
	mod := lazyTestMod64(t)
	a := BenchPR7Anchor
	nsPerBfly := func(mach *Machine, lv isa.Level) float64 {
		return ProjectLazyNTT64(mach, lv, mod, a.N, false).NsPerButterfly()
	}
	for _, mach := range []*Machine{IntelXeon8352Y, CIBenchHost} {
		s, a2, a5 := nsPerBfly(mach, isa.LevelScalar), nsPerBfly(mach, isa.LevelAVX2), nsPerBfly(mach, isa.LevelAVX512)
		if !(a5 <= a2 && a2 <= s) {
			t.Errorf("%s: dense tier ordering violated: avx512 %.3f, avx2 %.3f, scalar %.3f ns/bfly", mach.Name, a5, a2, s)
		}
	}
	butterflies := float64(a.N / 2 * 12) // log2(4096) stages
	measured := map[isa.Level]float64{
		isa.LevelScalar: a.ScalarNs / butterflies,
		isa.LevelAVX2:   a.AVX2Ns / butterflies,
		isa.LevelAVX512: a.AVX512Ns / butterflies,
	}
	pred := map[isa.Level]float64{}
	for lv := range measured {
		pred[lv] = nsPerBfly(CIBenchHost, lv)
	}
	const maxDrift = 0.30
	for lv, m := range measured {
		drift := pred[lv]/m - 1
		if drift < -maxDrift || drift > maxDrift {
			t.Errorf("%v: predicted %.3f ns/bfly vs measured %.3f (drift %+.0f%%, bound ±%.0f%%)",
				lv, pred[lv], m, 100*drift, 100*maxDrift)
		}
	}
	for lv, mNs := range measured {
		if lv == isa.LevelScalar {
			continue
		}
		want := measured[isa.LevelScalar] / mNs
		got := pred[isa.LevelScalar] / pred[lv]
		drift := got/want - 1
		if drift < -maxDrift || drift > maxDrift {
			t.Errorf("%v: predicted speedup %.2f vs measured %.2f (drift %+.0f%%)",
				lv, got, want, 100*drift)
		}
	}
	// The paper machines stay uncalibrated: Table 4 fidelity (the 2.4x
	// Intel scalar->AVX-512 gain TestPaperShapeNTT logs) must not move.
	for _, m := range MeasurementMachines {
		if m.ScalarSchedFactor != 0 {
			t.Errorf("%s: paper machine carries ScalarSchedFactor %.2f, must stay 0",
				m.Name, m.ScalarSchedFactor)
		}
	}
}

// The BEHZ census must reproduce the profiled transform counts: the ~69
// mandatory transforms of a k=4 resident squaring (the ladder workload)
// and 87 for a general product.
func TestBEHZResidentCensus(t *testing.T) {
	sq := NewBEHZResidentModel(nil, 4, true)
	if got := sq.Transforms(); got != 69 {
		t.Errorf("k=4 squaring census = %d transforms, want 69", got)
	}
	gen := NewBEHZResidentModel(nil, 4, false)
	if got := gen.Transforms(); got != 87 {
		t.Errorf("k=4 general census = %d transforms, want 87", got)
	}
}

func TestSWButterflyBody(t *testing.T) {
	ps, err := modmath.FindNTTPrimes64(60, 1<<10, 1)
	if err != nil {
		t.Fatal(err)
	}
	mod64 := modmath.MustModulus64(ps[0])
	for _, level := range []isa.Level{isa.LevelScalar, isa.LevelAVX2, isa.LevelAVX512, isa.LevelMQX} {
		b := SWButterflyBody(level, mod64)
		if len(b.Instrs) == 0 || b.Bytes == 0 {
			t.Fatalf("%v: empty single-word body", level)
		}
		if b.Lanes != level.Lanes() {
			t.Fatalf("%v: lanes = %d", level, b.Lanes)
		}
		// The 64-bit butterfly must be much smaller than the 128-bit one.
		dw := ButterflyBody(level, modmath.DefaultModulus128(), kernels.Schoolbook)
		if 2*len(b.Instrs) >= len(dw.Instrs) {
			t.Errorf("%v: single-word body (%d instrs) should be <1/2 of double-word (%d)",
				level, len(b.Instrs), len(dw.Instrs))
		}
	}
}
