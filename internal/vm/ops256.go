package vm

import "mqxgo/internal/isa"

// AVX2 operations: 256-bit vectors, four 64-bit lanes, and crucially no
// mask registers and no unsigned 64-bit compare. Comparisons produce
// all-ones/all-zeros lane masks in ordinary vector registers, unsigned
// order is emulated by sign-bit flipping (Section 3.2 notes AVX2 needs
// "more instructions and additional handling" for exactly this reason).

const signBit = uint64(1) << 63

// Set1x4 is VPBROADCASTQ ymm.
func (m *Machine) Set1x4(x uint64) V4 {
	var v Vec4
	for i := range v {
		v[i] = x
	}
	id, _ := m.rec(isa.AVX2Bcast, 1)
	return V4{X: v, id: id}
}

// Load4 is VMOVDQU ymm, [mem]: four contiguous lanes from s at index i.
func (m *Machine) Load4(s []uint64, i int) V4 {
	var v Vec4
	copy(v[:], s[i:i+4])
	id, _ := m.rec(isa.AVX2Load, 1)
	m.noteLoad(32)
	return V4{X: v, id: id}
}

// Store4 is VMOVDQU [mem], ymm.
func (m *Machine) Store4(s []uint64, i int, a V4) {
	copy(s[i:i+4], a.X[:])
	m.rec(isa.AVX2Store, 0, a.id)
	m.noteStore(32)
}

// Add4 is VPADDQ ymm.
func (m *Machine) Add4(a, b V4) V4 {
	var v Vec4
	for i := range v {
		v[i] = a.X[i] + b.X[i]
	}
	id, _ := m.rec(isa.AVX2AddQ, 1, a.id, b.id)
	return V4{X: v, id: id}
}

// Sub4 is VPSUBQ ymm.
func (m *Machine) Sub4(a, b V4) V4 {
	var v Vec4
	for i := range v {
		v[i] = a.X[i] - b.X[i]
	}
	id, _ := m.rec(isa.AVX2SubQ, 1, a.id, b.id)
	return V4{X: v, id: id}
}

// MulUDQ4 is VPMULUDQ ymm: 32x32->64 widening multiply per lane.
func (m *Machine) MulUDQ4(a, b V4) V4 {
	var v Vec4
	for i := range v {
		v[i] = (a.X[i] & 0xffffffff) * (b.X[i] & 0xffffffff)
	}
	id, _ := m.rec(isa.AVX2MulUDQ, 1, a.id, b.id)
	return V4{X: v, id: id}
}

// CmpGtQ4 is VPCMPGTQ ymm: signed greater-than producing a lane mask
// (all-ones where a > b).
func (m *Machine) CmpGtQ4(a, b V4) V4 {
	var v Vec4
	for i := range v {
		if int64(a.X[i]) > int64(b.X[i]) {
			v[i] = ^uint64(0)
		}
	}
	id, _ := m.rec(isa.AVX2CmpGtQ, 1, a.id, b.id)
	return V4{X: v, id: id}
}

// CmpEqQ4 is VPCMPEQQ ymm.
func (m *Machine) CmpEqQ4(a, b V4) V4 {
	var v Vec4
	for i := range v {
		if a.X[i] == b.X[i] {
			v[i] = ^uint64(0)
		}
	}
	id, _ := m.rec(isa.AVX2CmpEqQ, 1, a.id, b.id)
	return V4{X: v, id: id}
}

// BlendV4 is VPBLENDVB ymm: dst[i] = mask[i] sign bit ? b[i] : a[i].
// With all-ones/all-zeros lane masks, it selects whole lanes.
func (m *Machine) BlendV4(mask, a, b V4) V4 {
	var v Vec4
	for i := range v {
		if mask.X[i]&signBit != 0 {
			v[i] = b.X[i]
		} else {
			v[i] = a.X[i]
		}
	}
	id, _ := m.rec(isa.AVX2BlendVB, 1, mask.id, a.id, b.id)
	return V4{X: v, id: id}
}

// And4 is VPAND ymm.
func (m *Machine) And4(a, b V4) V4 {
	var v Vec4
	for i := range v {
		v[i] = a.X[i] & b.X[i]
	}
	id, _ := m.rec(isa.AVX2And, 1, a.id, b.id)
	return V4{X: v, id: id}
}

// Or4 is VPOR ymm.
func (m *Machine) Or4(a, b V4) V4 {
	var v Vec4
	for i := range v {
		v[i] = a.X[i] | b.X[i]
	}
	id, _ := m.rec(isa.AVX2Or, 1, a.id, b.id)
	return V4{X: v, id: id}
}

// Xor4 is VPXOR ymm.
func (m *Machine) Xor4(a, b V4) V4 {
	var v Vec4
	for i := range v {
		v[i] = a.X[i] ^ b.X[i]
	}
	id, _ := m.rec(isa.AVX2Xor, 1, a.id, b.id)
	return V4{X: v, id: id}
}

// SrlI4 is VPSRLQ ymm, imm.
func (m *Machine) SrlI4(a V4, n uint) V4 {
	var v Vec4
	for i := range v {
		v[i] = a.X[i] >> n
	}
	id, _ := m.rec(isa.AVX2SrlQ, 1, a.id)
	return V4{X: v, id: id}
}

// SllI4 is VPSLLQ ymm, imm.
func (m *Machine) SllI4(a V4, n uint) V4 {
	var v Vec4
	for i := range v {
		v[i] = a.X[i] << n
	}
	id, _ := m.rec(isa.AVX2SllQ, 1, a.id)
	return V4{X: v, id: id}
}

// UnpackLo4 is VPUNPCKLQDQ ymm: interleaves even lanes per 128-bit half.
func (m *Machine) UnpackLo4(a, b V4) V4 {
	v := Vec4{a.X[0], b.X[0], a.X[2], b.X[2]}
	id, _ := m.rec(isa.AVX2UnpckL, 1, a.id, b.id)
	return V4{X: v, id: id}
}

// UnpackHi4 is VPUNPCKHQDQ ymm.
func (m *Machine) UnpackHi4(a, b V4) V4 {
	v := Vec4{a.X[1], b.X[1], a.X[3], b.X[3]}
	id, _ := m.rec(isa.AVX2UnpckH, 1, a.id, b.id)
	return V4{X: v, id: id}
}

// Perm2x128 is VPERM2I128 ymm: builds a result from two 128-bit halves
// selected among the four halves of a and b. Selectors 0,1 pick the low and
// high half of a; 2,3 pick the low and high half of b.
func (m *Machine) Perm2x128(a, b V4, selLo, selHi int) V4 {
	half := func(sel int) [2]uint64 {
		switch sel & 3 {
		case 0:
			return [2]uint64{a.X[0], a.X[1]}
		case 1:
			return [2]uint64{a.X[2], a.X[3]}
		case 2:
			return [2]uint64{b.X[0], b.X[1]}
		default:
			return [2]uint64{b.X[2], b.X[3]}
		}
	}
	lo, hi := half(selLo), half(selHi)
	v := Vec4{lo[0], lo[1], hi[0], hi[1]}
	id, _ := m.rec(isa.AVX2Perm128, 1, a.id, b.id)
	return V4{X: v, id: id}
}
