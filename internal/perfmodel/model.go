package perfmodel

import (
	"math"

	"mqxgo/internal/blas"
	"mqxgo/internal/isa"
	"mqxgo/internal/kernels"
	"mqxgo/internal/modmath"
	"mqxgo/internal/sched"
)

// KernelModel is the projected per-iteration cost of a kernel body on a
// machine.
type KernelModel struct {
	Machine *Machine
	Level   isa.Level
	Body    *Body
	Report  *sched.Report

	// CyclesPerIter is the steady-state compute estimate for one body
	// iteration (port-pressure / dispatch bound).
	CyclesPerIter float64
	// BytesPerIter is the memory traffic of one iteration.
	BytesPerIter int64
}

// NewKernelModel schedules a body on a machine. Scalar bodies are
// derated by the machine's ScalarSchedFactor (see Machine): the
// port-pressure bound is tight for the hand-scheduled vector asm but
// optimistic for compiled scalar loops, and calibrated machines carry
// the measured ratio.
func NewKernelModel(mach *Machine, body *Body) *KernelModel {
	rep := sched.Analyze(mach.March, body.Instrs)
	cycles := rep.Cycles
	if body.Level == isa.LevelScalar && mach.ScalarSchedFactor > 0 {
		cycles *= mach.ScalarSchedFactor
	}
	return &KernelModel{
		Machine:       mach,
		Level:         body.Level,
		Body:          body,
		Report:        rep,
		CyclesPerIter: cycles,
		BytesPerIter:  body.Bytes,
	}
}

// NTTModel models an n-point forward NTT: log2(n) constant-geometry stages
// of n/2 butterflies each, with the per-stage time being the larger of the
// compute estimate and the memory-traffic estimate at the bandwidth level
// implied by the transform's working set (this is the L2-capacity knee of
// Section 5.4).
type NTTModel struct {
	Kernel *KernelModel
	N      int
	// ElemBytes is the residue size for the working-set estimate: 16 for
	// the double-word bodies (the default when zero), 8 for the
	// single-word RNS-tower bodies.
	ElemBytes int
}

// NewNTTModel builds the model for size n from a butterfly kernel model.
func NewNTTModel(k *KernelModel, n int) *NTTModel { return &NTTModel{Kernel: k, N: n} }

// NewNTTModel64 builds the model for size n over 8-byte residues (the
// single-word lazy bodies).
func NewNTTModel64(k *KernelModel, n int) *NTTModel {
	return &NTTModel{Kernel: k, N: n, ElemBytes: 8}
}

// Stages returns log2(N).
func (m *NTTModel) Stages() int {
	s := 0
	for 1<<s < m.N {
		s++
	}
	return s
}

// WorkingSetBytes returns the per-stage resident working set: the ping-pong
// source and destination buffers, 16 bytes per 128-bit element each. This
// matches the paper's own L2-knee arithmetic (Section 5.4: ~1 MB per stage
// at 2^15, 2 MB at 2^16 vs. the 1.28 MB per-core Intel L2). Twiddle tables
// are streamed once per stage and count toward traffic, not residency.
func (m *NTTModel) WorkingSetBytes() int64 {
	eb := int64(m.ElemBytes)
	if eb == 0 {
		eb = 16
	}
	return int64(m.N) * eb * 2
}

// CyclesTotal returns the projected cycles for the full transform on one
// core.
func (m *NTTModel) CyclesTotal() float64 {
	k := m.Kernel
	itersPerStage := float64(m.N/2) / float64(k.Body.Lanes)
	compute := itersPerStage * k.CyclesPerIter
	bw := k.Machine.BWForWorkingSet(m.WorkingSetBytes())
	memory := itersPerStage * float64(k.BytesPerIter) / bw
	return float64(m.Stages()) * math.Max(compute, memory)
}

// TimeNs returns the projected single-core runtime at max boost frequency.
func (m *NTTModel) TimeNs() float64 {
	return m.CyclesTotal() / m.Kernel.Machine.MaxGHz
}

// NsPerButterfly returns the paper's Figure 5 metric: runtime per butterfly.
func (m *NTTModel) NsPerButterfly() float64 {
	butterflies := float64(m.N/2) * float64(m.Stages())
	return m.TimeNs() / butterflies
}

// BLASModel models a length-len Figure 4 BLAS kernel.
type BLASModel struct {
	Kernel *KernelModel
	Op     blas.Op
	Len    int
}

// NewBLASModel builds the model for one BLAS op at a vector length.
func NewBLASModel(k *KernelModel, op blas.Op, length int) *BLASModel {
	return &BLASModel{Kernel: k, Op: op, Len: length}
}

// WorkingSetBytes is three SoA vectors of 128-bit elements.
func (m *BLASModel) WorkingSetBytes() int64 { return int64(m.Len) * 16 * 3 }

// CyclesTotal returns the projected cycles for the whole vector.
func (m *BLASModel) CyclesTotal() float64 {
	k := m.Kernel
	iters := float64(m.Len) / float64(k.Body.Lanes)
	compute := iters * k.CyclesPerIter
	bw := k.Machine.BWForWorkingSet(m.WorkingSetBytes())
	memory := iters * float64(k.BytesPerIter) / bw
	return math.Max(compute, memory)
}

// NsPerElement returns the paper's Figure 4 metric: runtime per element.
func (m *BLASModel) NsPerElement() float64 {
	return m.CyclesTotal() / m.Kernel.Machine.MaxGHz / float64(m.Len)
}

// ProjectNTT is the one-call helper: model an n-point NTT for a level on a
// machine with the given modulus.
func ProjectNTT(mach *Machine, level isa.Level, mod *modmath.Modulus128, n int) *NTTModel {
	body := ButterflyBody(level, mod, kernels.Schoolbook)
	return NewNTTModel(NewKernelModel(mach, body), n)
}

// ProjectBLAS is the one-call helper for a Figure 4 kernel.
func ProjectBLAS(mach *Machine, level isa.Level, mod *modmath.Modulus128, op blas.Op, length int) *BLASModel {
	body := BLASBody(level, mod, op)
	return NewBLASModel(NewKernelModel(mach, body), op, length)
}
