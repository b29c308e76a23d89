// Package perfmodel turns kernel instruction traces into projected
// runtimes on modeled CPUs: the paper's two measurement machines (Table 4)
// and the speed-of-light target machines of Section 6.
//
// The pipeline is: kernel builder (bodies.go) -> one steady-state loop
// iteration on the trace machine -> internal/sched port-pressure cycles ->
// cycles x iterations + a cache-capacity memory model (model.go) -> ns at
// the machine's frequency. Arbitrary-precision and division-based baseline
// backends are *measured*, not modeled (measure.go), and anchored to the
// modeled scalar tier when composing the paper's figures. ForwardVM
// (vmntt.go) runs a whole forward transform on the trace machine, the
// functional check of the instruction streams the bodies record.
package perfmodel

import "mqxgo/internal/isa"

// Machine describes one modeled CPU (Table 4 plus the SOL machines).
// Bandwidths are sustained per-core figures in bytes per cycle, used by the
// cache-capacity memory model; they are approximations from public
// streaming-bandwidth data at the fidelity needed for the L2-knee effect
// the paper reports at NTT size 2^16 (Section 5.4).
type Machine struct {
	Name  string
	March *isa.Microarch

	BaseGHz     float64
	MaxGHz      float64 // single-core max boost (used for 1-core runs)
	BoostAllGHz float64 // all-core boost (used by the SOL model)
	Cores       int

	L1Bytes        int64
	L2PerCoreBytes int64
	L3Bytes        int64

	L1BW, L2BW, L3BW, MemBW float64 // bytes/cycle, per core

	// ScalarSchedFactor derates the port-pressure cycle estimate for
	// scalar bodies (zero means 1.0, no derating). The sched model
	// assumes a perfectly software-pipelined loop; hand-written asm tiers
	// get close, but compiled scalar Go loops carry address arithmetic,
	// bounds logic and a serial dependence the scheduler's pure
	// port-pressure bound does not see. Calibrated machines (CIBenchHost)
	// carry the measured ratio so projections against compiled scalar
	// code use realistic baselines; the paper's Table 4 machines keep the
	// factor at zero to stay faithful to the published model.
	ScalarSchedFactor float64
}

// IntelXeon8352Y is the paper's Intel measurement machine (Ice Lake-SP,
// Sunny Cove cores): 32 cores, 2.2/3.4 GHz, 48 MB L3, 1.28 MB L2 per core.
var IntelXeon8352Y = &Machine{
	Name:           "Intel Xeon 8352Y",
	March:          isa.SunnyCove,
	BaseGHz:        2.2,
	MaxGHz:         3.4,
	BoostAllGHz:    2.8,
	Cores:          32,
	L1Bytes:        48 << 10,
	L2PerCoreBytes: 1280 << 10,
	L3Bytes:        48 << 20,
	L1BW:           96, L2BW: 48, L3BW: 11, MemBW: 6,
}

// AMDEPYC9654 is the paper's AMD measurement machine (Zen 4): 96 cores,
// 2.4/3.7 GHz, 384 MB L3, 1 MB L2 per core. The very large, high-bandwidth
// L3 is why the paper's AMD results do not show the Intel L2 knee.
var AMDEPYC9654 = &Machine{
	Name:           "AMD EPYC 9654",
	March:          isa.Zen4,
	BaseGHz:        2.4,
	MaxGHz:         3.7,
	BoostAllGHz:    3.55,
	Cores:          96,
	L1Bytes:        32 << 10,
	L2PerCoreBytes: 1 << 20,
	L3Bytes:        384 << 20,
	L1BW:           96, L2BW: 64, L3BW: 40, MemBW: 8,
}

// IntelXeon6980P is the SOL target in the Xeon family (Section 6):
// 128 cores, 3.2 GHz all-core boost, 504 MB L3.
var IntelXeon6980P = &Machine{
	Name:           "Intel Xeon 6980P",
	March:          isa.SunnyCove, // projection reuses the measured core model
	BaseGHz:        2.0,
	MaxGHz:         3.9,
	BoostAllGHz:    3.2,
	Cores:          128,
	L1Bytes:        48 << 10,
	L2PerCoreBytes: 2 << 20,
	L3Bytes:        504 << 20,
	L1BW:           96, L2BW: 48, L3BW: 11, MemBW: 6,
}

// AMDEPYC9965S is the SOL target in the EPYC family: 192 cores, 3.35 GHz
// all-core boost, 384 MB L3.
var AMDEPYC9965S = &Machine{
	Name:           "AMD EPYC 9965S",
	March:          isa.Zen4,
	BaseGHz:        2.25,
	MaxGHz:         3.7,
	BoostAllGHz:    3.35,
	Cores:          192,
	L1Bytes:        32 << 10,
	L2PerCoreBytes: 1 << 20,
	L3Bytes:        384 << 20,
	L1BW:           96, L2BW: 64, L3BW: 40, MemBW: 8,
}

// CIBenchHost is the calibrated model of the repository's own bench
// host: a single-vCPU Ice Lake-generation Xeon at 2.7 GHz with AVX-512
// (the provenance block of the committed BENCH_PR*.json series). It is
// NOT a paper machine: its ScalarSchedFactor is fitted against the
// measured BENCH_PR7 n=4096 forward-transform series (see
// BenchPR7Anchor), where the AVX-512 asm lands within a few percent of
// the pure port-pressure bound (~2.56 measured vs ~2.5 modeled
// cycles/butterfly) but the compiled scalar loop runs ~1.7x slower than
// the bound (10.25 vs 6.0 cycles/butterfly). Every speed-up projected
// over that uncorrected scalar baseline would be skewed; the benchmark
// prints this machine's lazy-body projection beside the measured
// transform, and pipeline_test.go bounds the drift so it cannot regress
// silently.
var CIBenchHost = &Machine{
	Name:           "CI bench host",
	March:          isa.SunnyCove,
	BaseGHz:        2.7,
	MaxGHz:         2.7, // steady measured clock; no boost headroom observed
	BoostAllGHz:    2.7,
	Cores:          1,
	L1Bytes:        48 << 10,
	L2PerCoreBytes: 1280 << 10,
	L3Bytes:        105 << 20,
	L1BW:           96, L2BW: 48, L3BW: 11, MemBW: 6,
	ScalarSchedFactor: 1.7,
}

// BenchPR7Anchor freezes the measured BENCH_PR7.json n=4096 forward
// transform series from the bench host (ns for the full 24576-butterfly
// transform, per kernel tier). CIBenchHost's calibration is fitted to
// these numbers, and the drift-bound test replays them so a machines.go
// edit that silently decalibrates the model fails loudly.
var BenchPR7Anchor = struct {
	N                          int
	ScalarNs, AVX2Ns, AVX512Ns float64
}{N: 4096, ScalarNs: 93307, AVX2Ns: 46125, AVX512Ns: 23332}

// BenchPR12Anchor freezes the measured k=4, n=4096 BEHZ conversions from
// the bench host: the rns.baseconv_k4_us, rns.mont_baseconv_k4_us and
// rns.sk_return_k4_us probes of `go run ./benchmark -workload mulchain
// -trace 1` (base Q of 4 towers, extension base of 6), ns per conversion
// per forced kernel tier. The scalar and avx512 values are medians of the
// ten runs in BENCH_PR12.json's first campaign, the avx2 values one run.
// The conversion drift-bound test replays them against the affine-rows
// body's projection.
var BenchPR12Anchor = struct {
	N, K                        int
	BaseConvNs, MontNs, SKRetNs map[string]float64
}{
	N: 4096, K: 4,
	BaseConvNs: map[string]float64{"scalar": 216823, "avx2": 168371, "avx512": 85881},
	MontNs:     map[string]float64{"scalar": 327584, "avx2": 247947, "avx512": 135809},
	SKRetNs:    map[string]float64{"scalar": 269462, "avx2": 208667, "avx512": 101772},
}

// MeasurementMachines are the Table 4 CPUs.
var MeasurementMachines = []*Machine{IntelXeon8352Y, AMDEPYC9654}

// SOLMachines are the Section 6 speed-of-light targets, indexed by the
// measurement machine they scale from.
var SOLMachines = map[string]*Machine{
	IntelXeon8352Y.Name: IntelXeon6980P,
	AMDEPYC9654.Name:    AMDEPYC9965S,
}

// BWForWorkingSet returns the sustained per-core bandwidth (bytes/cycle)
// the memory model grants a kernel whose working set has the given size.
func (m *Machine) BWForWorkingSet(ws int64) float64 {
	switch {
	case ws <= m.L1Bytes:
		return m.L1BW
	case ws <= m.L2PerCoreBytes:
		return m.L2BW
	case ws <= m.L3Bytes:
		return m.L3BW
	default:
		return m.MemBW
	}
}
