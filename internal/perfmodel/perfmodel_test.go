package perfmodel

import (
	"testing"

	"mqxgo/internal/blas"
	"mqxgo/internal/isa"
	"mqxgo/internal/kernels"
	"mqxgo/internal/modmath"
)

func TestMachineLookupAndBW(t *testing.T) {
	m := IntelXeon8352Y
	if bw := m.BWForWorkingSet(1 << 10); bw != m.L1BW {
		t.Errorf("small ws should hit L1 bw, got %f", bw)
	}
	if bw := m.BWForWorkingSet(1 << 20); bw != m.L2BW {
		t.Errorf("1MB ws should hit L2 bw, got %f", bw)
	}
	if bw := m.BWForWorkingSet(10 << 20); bw != m.L3BW {
		t.Errorf("10MB ws should hit L3 bw, got %f", bw)
	}
	if bw := m.BWForWorkingSet(1 << 30); bw != m.MemBW {
		t.Errorf("1GB ws should hit mem bw, got %f", bw)
	}
}

func TestBodiesNonEmpty(t *testing.T) {
	mod := modmath.DefaultModulus128()
	for _, level := range []isa.Level{isa.LevelScalar, isa.LevelAVX2, isa.LevelAVX512, isa.LevelMQX} {
		b := ButterflyBody(level, mod, kernels.Schoolbook)
		if len(b.Instrs) == 0 || b.Bytes == 0 {
			t.Fatalf("%v: empty butterfly body", level)
		}
		for _, op := range blas.AllOps {
			bb := BLASBody(level, mod, op)
			if len(bb.Instrs) == 0 {
				t.Fatalf("%v %v: empty blas body", level, op)
			}
		}
	}
}

// TestPaperShapeNTT checks the headline ordering of Figure 5: per-butterfly
// time strictly improves from scalar -> AVX-512 -> MQX on both machines,
// and the MQX gain is larger on AMD than on Intel (3.7x vs 2.1x in the
// paper, driven by Zen 4's native 64-bit vector multiplier).
func TestPaperShapeNTT(t *testing.T) {
	mod := modmath.DefaultModulus128()
	n := 1 << 14
	type res struct{ scalar, avx2, avx512, mqx float64 }
	get := func(mach *Machine) res {
		return res{
			scalar: ProjectNTT(mach, isa.LevelScalar, mod, n).NsPerButterfly(),
			avx2:   ProjectNTT(mach, isa.LevelAVX2, mod, n).NsPerButterfly(),
			avx512: ProjectNTT(mach, isa.LevelAVX512, mod, n).NsPerButterfly(),
			mqx:    ProjectNTT(mach, isa.LevelMQX, mod, n).NsPerButterfly(),
		}
	}
	intel := get(IntelXeon8352Y)
	amd := get(AMDEPYC9654)
	for name, r := range map[string]res{"intel": intel, "amd": amd} {
		if !(r.mqx < r.avx512 && r.avx512 < r.scalar) {
			t.Errorf("%s: want mqx < avx512 < scalar, got %+v", name, r)
		}
		if r.avx512 >= r.avx2 {
			t.Errorf("%s: avx512 (%f) should beat avx2 (%f)", name, r.avx512, r.avx2)
		}
	}
	gainIntel := intel.avx512 / intel.mqx
	gainAMD := amd.avx512 / amd.mqx
	if gainAMD <= gainIntel {
		t.Errorf("MQX gain on AMD (%.2fx) should exceed Intel (%.2fx)", gainAMD, gainIntel)
	}
	t.Logf("MQX gain over AVX-512: intel %.2fx, amd %.2fx (paper: 2.1x, 3.7x)", gainIntel, gainAMD)
	t.Logf("AVX-512 gain over scalar: intel %.2fx, amd %.2fx (paper: 2.4x, ~2x)",
		intel.scalar/intel.avx512, amd.scalar/amd.avx512)
}

// memoryBound reports whether the memory term of m's per-stage estimate
// dominates the compute term (the regime past the paper's L2 knee).
func memoryBound(m *NTTModel) bool {
	k := m.Kernel
	itersPerStage := float64(m.N/2) / float64(k.Body.Lanes)
	compute := itersPerStage * k.CyclesPerIter
	memory := itersPerStage * float64(k.BytesPerIter) / k.Machine.BWForWorkingSet(m.WorkingSetBytes())
	return memory > compute
}

// TestL2KneeIntelMQX checks the Section 5.4 observation: on Intel, MQX
// becomes memory-bound when the per-stage working set spills out of L2
// (size 2^16), while AVX-512 remains compute-bound there.
func TestL2KneeIntelMQX(t *testing.T) {
	mod := modmath.DefaultModulus128()
	kMQX := NewKernelModel(IntelXeon8352Y, ButterflyBody(isa.LevelMQX, mod, kernels.Schoolbook))
	kAVX := NewKernelModel(IntelXeon8352Y, ButterflyBody(isa.LevelAVX512, mod, kernels.Schoolbook))

	small := NewNTTModel(kMQX, 1<<14)
	big := NewNTTModel(kMQX, 1<<16)
	if memoryBound(small) {
		t.Error("MQX at 2^14 should be compute-bound on Intel")
	}
	if !memoryBound(big) {
		t.Error("MQX at 2^16 should be memory-bound on Intel")
	}
	if big.NsPerButterfly() <= small.NsPerButterfly() {
		t.Error("MQX per-butterfly time should degrade past the L2 knee")
	}
	if memoryBound(NewNTTModel(kAVX, 1<<16)) {
		t.Error("AVX-512 at 2^16 should remain compute-bound on Intel")
	}
}

// TestPaperShapeBLAS checks Figure 4 orderings: MQX < AVX-512 < AVX2 per
// element for the multiplication-heavy ops.
func TestPaperShapeBLAS(t *testing.T) {
	mod := modmath.DefaultModulus128()
	const vlen = 1024
	for _, mach := range MeasurementMachines {
		for _, op := range []blas.Op{blas.OpVecPMul, blas.OpAxpy} {
			s := ProjectBLAS(mach, isa.LevelScalar, mod, op, vlen).NsPerElement()
			a2 := ProjectBLAS(mach, isa.LevelAVX2, mod, op, vlen).NsPerElement()
			a5 := ProjectBLAS(mach, isa.LevelAVX512, mod, op, vlen).NsPerElement()
			mq := ProjectBLAS(mach, isa.LevelMQX, mod, op, vlen).NsPerElement()
			if !(mq < a5 && a5 < a2) {
				t.Errorf("%s %v: want mqx < avx512 < avx2, got %.3f %.3f %.3f",
					mach.Name, op, mq, a5, a2)
			}
			if mq >= s {
				t.Errorf("%s %v: mqx (%.3f) should beat scalar (%.3f)", mach.Name, op, mq, s)
			}
		}
	}
}

// TestSensitivityOrdering mirrors Figure 6: every MQX variant beats the
// AVX-512 base, full MQX beats the single-feature variants, +Mh,C is close
// to full MQX, and +P is at least as fast as full MQX.
func TestSensitivityOrdering(t *testing.T) {
	mod := modmath.DefaultModulus128()
	n := 1 << 14
	get := func(level isa.Level) float64 {
		return ProjectNTT(AMDEPYC9654, level, mod, n).NsPerButterfly()
	}
	base := get(isa.LevelAVX512)
	m := get(isa.LevelMQXMulOnly)
	c := get(isa.LevelMQXCarryOnly)
	mc := get(isa.LevelMQX)
	mhc := get(isa.LevelMQXMulHi)
	mcp := get(isa.LevelMQXPredicated)

	for name, v := range map[string]float64{"+M": m, "+C": c, "+M,C": mc, "+Mh,C": mhc, "+M,C,P": mcp} {
		if v >= base {
			t.Errorf("%s (%.3f) should beat AVX-512 base (%.3f)", name, v, base)
		}
	}
	if !(mc < m && mc < c) {
		t.Errorf("full MQX (%.3f) should beat +M (%.3f) and +C (%.3f)", mc, m, c)
	}
	if mcp > mc {
		t.Errorf("+M,C,P (%.3f) should not be slower than +M,C (%.3f)", mcp, mc)
	}
	// +Mh,C keeps most of the benefit (within ~25% of full MQX).
	if mhc > mc*1.25 {
		t.Errorf("+Mh,C (%.3f) should be close to full MQX (%.3f)", mhc, mc)
	}
	t.Logf("normalized to base: +M %.2f, +C %.2f, +M,C %.2f, +Mh,C %.2f, +M,C,P %.2f",
		m/base, c/base, mc/base, mhc/base, mcp/base)
}

func TestMeasureProtocol(t *testing.T) {
	calls := 0
	ns := MeasureProtocol(10, 5, func() { calls++ })
	if calls != 10 {
		t.Errorf("fn called %d times, want 10", calls)
	}
	if ns < 0 {
		t.Errorf("negative duration %f", ns)
	}
	// keep > total clamps.
	calls = 0
	MeasureProtocol(3, 10, func() { calls++ })
	if calls != 3 {
		t.Errorf("fn called %d times, want 3", calls)
	}
}

func TestBaselineRatioClamp(t *testing.T) {
	r := BaselineRatios{GenericOverNative: 0.5, BignumOverNative: 20}.Clamp()
	if r.GenericOverNative != 1 || r.BignumOverNative != 20 {
		t.Errorf("clamp wrong: %+v", r)
	}
}
