package perfmodel

import (
	"mqxgo/internal/isa"
	"mqxgo/internal/modmath"
)

// BEHZResidentModel counts the mandatory transforms of one NTT-resident
// BEHZ multiply (internal/fhe.mulResident) at a ladder level with K prime
// towers and M = K+1 extension towers. The census mirrors the pipeline
// stage by stage:
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
	K        int
	Squaring bool
}

// NewBEHZResidentModel builds the census. The census is a pure count, so
// the NTT model argument is not read; pass nil.
func NewBEHZResidentModel(_ *NTTModel, k int, squaring bool) *BEHZResidentModel {
	return &BEHZResidentModel{K: k, Squaring: squaring}
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
