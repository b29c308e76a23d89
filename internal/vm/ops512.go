package vm

import (
	"mqxgo/internal/isa"
)

// Cmp predicates, mirroring the _MM_CMPINT_* immediates.
type CmpPred int

const (
	CmpEq CmpPred = iota
	CmpLt
	CmpLe
	CmpNeq
	CmpNlt // >=
	CmpNle // >
)

func cmpU64(pred CmpPred, a, b uint64) bool {
	switch pred {
	case CmpEq:
		return a == b
	case CmpLt:
		return a < b
	case CmpLe:
		return a <= b
	case CmpNeq:
		return a != b
	case CmpNlt:
		return a >= b
	case CmpNle:
		return a > b
	}
	panic("vm: bad predicate")
}

// Set1 broadcasts a 64-bit constant into all lanes (VPBROADCASTQ).
func (m *Machine) Set1(x uint64) V {
	var v Vec
	for i := range v {
		v[i] = x
	}
	id, _ := m.rec(isa.AVX512Bcast, 1)
	return V{X: v, id: id}
}

// SetMask materializes a mask constant (KMOV from immediate/GPR).
func (m *Machine) SetMask(k MaskBits) M {
	id, _ := m.rec(isa.AVX512KMov, 1)
	return M{K: k, id: id}
}

// Load loads 8 contiguous lanes from s starting at index i (VMOVDQU64).
func (m *Machine) Load(s []uint64, i int) V {
	var v Vec
	copy(v[:], s[i:i+8])
	id, _ := m.rec(isa.AVX512Load, 1)
	m.noteLoad(64)
	return V{X: v, id: id}
}

// Store stores 8 contiguous lanes into s at index i (VMOVDQU64).
func (m *Machine) Store(s []uint64, i int, a V) {
	copy(s[i:i+8], a.X[:])
	m.rec(isa.AVX512Store, 0, a.id)
	m.noteStore(64)
}

// Add is VPADDQ zmm: lane-wise 64-bit addition.
func (m *Machine) Add(a, b V) V {
	var v Vec
	for i := range v {
		v[i] = a.X[i] + b.X[i]
	}
	id, _ := m.rec(isa.AVX512AddQ, 1, a.id, b.id)
	return V{X: v, id: id}
}

// Sub is VPSUBQ zmm.
func (m *Machine) Sub(a, b V) V {
	var v Vec
	for i := range v {
		v[i] = a.X[i] - b.X[i]
	}
	id, _ := m.rec(isa.AVX512SubQ, 1, a.id, b.id)
	return V{X: v, id: id}
}

// MaskAdd is VPADDQ zmm {k}: dst[i] = k[i] ? a[i]+b[i] : src[i].
func (m *Machine) MaskAdd(src V, k M, a, b V) V {
	var v Vec
	for i := range v {
		if k.K&(1<<uint(i)) != 0 {
			v[i] = a.X[i] + b.X[i]
		} else {
			v[i] = src.X[i]
		}
	}
	id, _ := m.rec(isa.AVX512MaskAddQ, 1, src.id, k.id, a.id, b.id)
	return V{X: v, id: id}
}

// MaskSub is VPSUBQ zmm {k}: dst[i] = k[i] ? a[i]-b[i] : src[i].
func (m *Machine) MaskSub(src V, k M, a, b V) V {
	var v Vec
	for i := range v {
		if k.K&(1<<uint(i)) != 0 {
			v[i] = a.X[i] - b.X[i]
		} else {
			v[i] = src.X[i]
		}
	}
	id, _ := m.rec(isa.AVX512MaskSubQ, 1, src.id, k.id, a.id, b.id)
	return V{X: v, id: id}
}

// CmpU is VPCMPUQ: lane-wise unsigned compare into a mask register.
func (m *Machine) CmpU(pred CmpPred, a, b V) M {
	var k MaskBits
	for i := 0; i < 8; i++ {
		if cmpU64(pred, a.X[i], b.X[i]) {
			k |= 1 << uint(i)
		}
	}
	id, _ := m.rec(isa.AVX512CmpUQ, 1, a.id, b.id)
	return M{K: k, id: id}
}

// Blend is VPBLENDMQ: dst[i] = k[i] ? b[i] : a[i].
func (m *Machine) Blend(k M, a, b V) V {
	var v Vec
	for i := range v {
		if k.K&(1<<uint(i)) != 0 {
			v[i] = b.X[i]
		} else {
			v[i] = a.X[i]
		}
	}
	id, _ := m.rec(isa.AVX512BlendQ, 1, k.id, a.id, b.id)
	return V{X: v, id: id}
}

// MulUDQ is VPMULUDQ zmm: multiplies the low 32 bits of each 64-bit lane,
// producing full 64-bit products.
func (m *Machine) MulUDQ(a, b V) V {
	var v Vec
	for i := range v {
		v[i] = (a.X[i] & 0xffffffff) * (b.X[i] & 0xffffffff)
	}
	id, _ := m.rec(isa.AVX512MulUDQ, 1, a.id, b.id)
	return V{X: v, id: id}
}

// MulLo is VPMULLQ zmm (AVX-512DQ): low 64 bits of the 64x64 product.
func (m *Machine) MulLo(a, b V) V {
	var v Vec
	for i := range v {
		v[i] = a.X[i] * b.X[i]
	}
	id, _ := m.rec(isa.AVX512MulLQ, 1, a.id, b.id)
	return V{X: v, id: id}
}

// SrlI is VPSRLQ zmm, imm: lane-wise logical right shift.
func (m *Machine) SrlI(a V, n uint) V {
	var v Vec
	for i := range v {
		v[i] = a.X[i] >> n
	}
	id, _ := m.rec(isa.AVX512SrlQI, 1, a.id)
	return V{X: v, id: id}
}

// SllI is VPSLLQ zmm, imm: lane-wise left shift.
func (m *Machine) SllI(a V, n uint) V {
	var v Vec
	for i := range v {
		v[i] = a.X[i] << n
	}
	id, _ := m.rec(isa.AVX512SllQI, 1, a.id)
	return V{X: v, id: id}
}

// Or is VPORQ.
func (m *Machine) Or(a, b V) V {
	var v Vec
	for i := range v {
		v[i] = a.X[i] | b.X[i]
	}
	id, _ := m.rec(isa.AVX512Or, 1, a.id, b.id)
	return V{X: v, id: id}
}

// MinU is VPMINUQ: lane-wise unsigned minimum. Its headline use is the
// branchless lazy conditional subtract min(x, x-c), which is the
// conditional subtract for ANY unsigned x: when x >= c the difference is
// the smaller value, and when x < c the difference wraps past 2^63 and
// the original x wins.
func (m *Machine) MinU(a, b V) V {
	var v Vec
	for i := range v {
		v[i] = a.X[i]
		if b.X[i] < v[i] {
			v[i] = b.X[i]
		}
	}
	id, _ := m.rec(isa.AVX512MinUQ, 1, a.id, b.id)
	return V{X: v, id: id}
}

// Permute2 is VPERMI2Q: full two-source lane permute. idx selects lane
// idx&7 from a (bit 3 clear) or b (bit 3 set).
func (m *Machine) Permute2(idx V, a, b V) V {
	var v Vec
	for i := range v {
		sel := idx.X[i] & 0xf
		if sel < 8 {
			v[i] = a.X[sel]
		} else {
			v[i] = b.X[sel-8]
		}
	}
	id, _ := m.rec(isa.AVX512Perm2, 1, idx.id, a.id, b.id)
	return V{X: v, id: id}
}

// KOr is KORB.
func (m *Machine) KOr(a, b M) M {
	id, _ := m.rec(isa.AVX512KOr, 1, a.id, b.id)
	return M{K: a.K | b.K, id: id}
}

// KAnd is KANDB.
func (m *Machine) KAnd(a, b M) M {
	id, _ := m.rec(isa.AVX512KAnd, 1, a.id, b.id)
	return M{K: a.K & b.K, id: id}
}
