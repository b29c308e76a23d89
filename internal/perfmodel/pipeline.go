package perfmodel

import (
	"math"

	"mqxgo/internal/isa"
	"mqxgo/internal/modmath"
)

// This file teaches the performance-model tier the shapes added since the
// seed: the PR 3 lazy-reduction span kernels (as VM-recorded bodies, see
// bodies.go) and the PR 4/PR 6 BEHZ resident-multiply pipeline (as a
// transform and base-conversion census over the NTT model). Together they
// make the model predictive for the vector kernel tier: the benchmark
// prints the lazy body's projected n=4096 forward transform beside the
// measured one, and the drift-bound tests hold those projections to the
// frozen BENCH_PR7 and BENCH_PR12 measurements.

// BEHZResidentModel counts the mandatory transforms of one NTT-resident
// BEHZ multiply (internal/fhe.mulResident) at a ladder level with K prime
// towers and M = K+1 extension towers, and projects their total time from
// a butterfly kernel model. The census mirrors the pipeline stage by
// stage:
//
//	crossing:   nops·K inverse transforms (operands leave residence once)
//	tensor Q:   3·K inverse transforms (operands consumed in place)
//	tensor ext: (nops+3)·M transforms (nops forward + 3 inverse per tower)
//	relin:      K·(K+2) forward transforms (K digit lifts + NTT(c1), NTT(c0)
//	            per tower)
//
// where nops is 2 when squaring (the ladder's dominant workload — shared
// operand rows) and 4 for a general product. At K=4 squaring this is the
// ~69 mandatory transforms profiling attributes ~half the remaining
// resident-multiply time to.
type BEHZResidentModel struct {
	NTT      *NTTModel
	K        int
	Squaring bool
}

// NewBEHZResidentModel builds the census over an NTT model (typically a
// single-word lazy body at the ladder's ring size).
func NewBEHZResidentModel(ntt *NTTModel, k int, squaring bool) *BEHZResidentModel {
	return &BEHZResidentModel{NTT: ntt, K: k, Squaring: squaring}
}

// ExtTowers returns M, the BEHZ extension-base size (p_1..p_K plus m_sk).
func (m *BEHZResidentModel) ExtTowers() int { return m.K + 1 }

func (m *BEHZResidentModel) nops() int {
	if m.Squaring {
		return 2
	}
	return 4
}

// Transforms returns the mandatory transform count of one resident
// multiply.
func (m *BEHZResidentModel) Transforms() int {
	k, ext, nops := m.K, m.ExtTowers(), m.nops()
	return nops*k + 3*k + (nops+3)*ext + k*(k+2)
}

// TransformNs projects the single-core time of those transforms.
func (m *BEHZResidentModel) TransformNs() float64 {
	return float64(m.Transforms()) * m.NTT.TimeNs()
}

// conversionCalls is the base-conversion census of one resident multiply:
// every ring.AffineRows call (and every one-row ScalarMulSpan digit pass,
// the same cost class) as output towers keyed by row count. The
// converters see the extension base fhe actually builds, E = K+2 towers
// (K+1 towers of P plus m_sk) — one more than ExtTowers, whose transform
// census undercounts the extension tensor by that tower and is left as
// the BENCH series and the benchmark's transform share define it.
//
//	operand extension, x nops:  K digit passes, E sums of K+2 rows
//	divide-and-round, x 3:      K digit passes, E roundings of K+1 rows
//	                            (the tensor row and the FastBConv digits),
//	                            K+1 SK digit passes, the K+2-row overshoot
//	                            count, K sums of K+2 rows
//
// The m~ remainder of the operand extension (K+1 masked scalar passes) is
// not a kernel call and is not counted.
func (m *BEHZResidentModel) conversionCalls() map[int]int {
	k, e, nops := m.K, m.K+2, m.nops()
	calls := map[int]int{}
	calls[1] += nops*k + 3*(k+k+1)
	calls[k+1] += 3 * e
	calls[k+2] += nops*e + 3*(1+k)
	return calls
}

// ConversionTerms returns the element-terms (row entries multiplied and
// accumulated) per coefficient position of one resident multiply's base
// conversions — the count beside Transforms.
func (m *BEHZResidentModel) ConversionTerms() int {
	terms := 0
	for rows, towers := range m.conversionCalls() {
		terms += rows * towers
	}
	return terms
}

// ConversionNs projects the single-core time of those conversions at the
// NTT model's size, machine and tier: with TransformNs it states a
// conversion share next to the transform share.
func (m *BEHZResidentModel) ConversionNs(mod64 *modmath.Modulus64) float64 {
	k := m.NTT.Kernel
	ns := 0.0
	for rows, towers := range m.conversionCalls() {
		ns += float64(towers) * ProjectAffineRows(k.Machine, k.Level, mod64, m.NTT.N, rows).TimeNs()
	}
	return ns
}

// AffineRowsModel models one ring.AffineRows call: n outputs of the given
// row count, the larger of the compute estimate and the memory-traffic
// estimate over the rows+1 resident rows.
type AffineRowsModel struct {
	Kernel  *KernelModel
	N, Rows int
}

// ProjectAffineRows is the one-call helper for the affine-rows body.
func ProjectAffineRows(mach *Machine, level isa.Level, mod64 *modmath.Modulus64, n, rows int) *AffineRowsModel {
	return &AffineRowsModel{Kernel: NewKernelModel(mach, AffineRowsBody(level, mod64, rows)), N: n, Rows: rows}
}

// TimeNs returns the projected single-core runtime of the call.
func (m *AffineRowsModel) TimeNs() float64 {
	k := m.Kernel
	iters := float64(m.N) / float64(k.Body.Lanes)
	compute := iters * k.CyclesPerIter
	bw := k.Machine.BWForWorkingSet(int64(m.N) * 8 * int64(m.Rows+1))
	memory := iters * float64(k.BytesPerIter) / bw
	return math.Max(compute, memory) / k.Machine.MaxGHz
}

// ProjectLazyNTT64 is the one-call helper for the single-word lazy tier:
// model an n-point forward NTT for a level, dense or blocked body.
func ProjectLazyNTT64(mach *Machine, level isa.Level, mod64 *modmath.Modulus64, n int, blocked bool) *NTTModel {
	var body *Body
	if blocked {
		body = LazySWButterflyBlkBody(level, mod64)
	} else {
		body = LazySWButterflyBody(level, mod64)
	}
	return NewNTTModel64(NewKernelModel(mach, body), n)
}
