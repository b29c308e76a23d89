package vm

import "math/bits"

import "mqxgo/internal/isa"

// Scalar x86-64 operations. The paper's optimized scalar implementation
// (Section 3.1) compiles to exactly this instruction vocabulary: ADD/ADC
// chains for double-word addition, SUB/SBB for subtraction, widening MUL,
// CMP/SETcc/CMOV for the branch-free conditional logic of Listing 1.

// SImm materializes a 64-bit immediate (MOV r64, imm).
func (m *Machine) SImm(x uint64) S {
	id, _ := m.rec(isa.ScalarMov, 1)
	return S{X: x, id: id}
}

// SLoad loads s[i] (MOV r64, [mem]).
func (m *Machine) SLoad(s []uint64, i int) S {
	id, _ := m.rec(isa.ScalarLoad, 1)
	m.noteLoad(8)
	return S{X: s[i], id: id}
}

// SStore stores a into s[i] (MOV [mem], r64).
func (m *Machine) SStore(s []uint64, i int, a S) {
	s[i] = a.X
	m.rec(isa.ScalarStore, 0, a.id)
	m.noteStore(8)
}

// SAdd is ADD: returns a+b and the carry flag.
func (m *Machine) SAdd(a, b S) (S, F) {
	sum, c := bits.Add64(a.X, b.X, 0)
	id0, id1 := m.rec(isa.ScalarAdd, 2, a.id, b.id)
	return S{X: sum, id: id0}, F{B: c != 0, id: id1}
}

// SAdc is ADC: returns a+b+cf and the carry flag.
func (m *Machine) SAdc(a, b S, cf F) (S, F) {
	cin := uint64(0)
	if cf.B {
		cin = 1
	}
	sum, c := bits.Add64(a.X, b.X, cin)
	id0, id1 := m.rec(isa.ScalarAdc, 2, a.id, b.id, cf.id)
	return S{X: sum, id: id0}, F{B: c != 0, id: id1}
}

// SSub is SUB: returns a-b and the borrow (carry) flag.
func (m *Machine) SSub(a, b S) (S, F) {
	diff, bw := bits.Sub64(a.X, b.X, 0)
	id0, id1 := m.rec(isa.ScalarSub, 2, a.id, b.id)
	return S{X: diff, id: id0}, F{B: bw != 0, id: id1}
}

// SSbb is SBB: returns a-b-bf and the borrow flag.
func (m *Machine) SSbb(a, b S, bf F) (S, F) {
	bin := uint64(0)
	if bf.B {
		bin = 1
	}
	diff, bw := bits.Sub64(a.X, b.X, bin)
	id0, id1 := m.rec(isa.ScalarSbb, 2, a.id, b.id, bf.id)
	return S{X: diff, id: id0}, F{B: bw != 0, id: id1}
}

// SMulWide is MUL r64: the widening 64x64->128 multiply (RDX:RAX pair).
func (m *Machine) SMulWide(a, b S) (hi, lo S) {
	h, l := bits.Mul64(a.X, b.X)
	id0, id1 := m.rec(isa.ScalarMul, 2, a.id, b.id)
	return S{X: h, id: id0}, S{X: l, id: id1}
}

// SMulLo is IMUL r64, r64: the low 64 bits of the product.
func (m *Machine) SMulLo(a, b S) S {
	id, _ := m.rec(isa.ScalarImul, 1, a.id, b.id)
	return S{X: a.X * b.X, id: id}
}

// SCmpLt is CMP + below flag: unsigned a < b.
func (m *Machine) SCmpLt(a, b S) F {
	_, id1 := m.rec(isa.ScalarCmp, 2, a.id, b.id)
	return F{B: a.X < b.X, id: id1}
}

// SCmpLe is CMP + below-or-equal flag: unsigned a <= b.
func (m *Machine) SCmpLe(a, b S) F {
	_, id1 := m.rec(isa.ScalarCmp, 2, a.id, b.id)
	return F{B: a.X <= b.X, id: id1}
}

// SCmpEq is CMP + zero flag.
func (m *Machine) SCmpEq(a, b S) F {
	_, id1 := m.rec(isa.ScalarCmp, 2, a.id, b.id)
	return F{B: a.X == b.X, id: id1}
}

// SCmov is CMOVcc: returns b when f is set, else a.
func (m *Machine) SCmov(f F, a, b S) S {
	v := a.X
	if f.B {
		v = b.X
	}
	id, _ := m.rec(isa.ScalarCmov, 1, f.id, a.id, b.id)
	return S{X: v, id: id}
}

// SFOr combines two flags (flag = f1 || f2), modeled as OR of SETcc
// results feeding a TEST. x86 compilers emit or/test here.
func (m *Machine) SFOr(a, b F) F {
	_, id1 := m.rec(isa.ScalarOr, 2, a.id, b.id)
	return F{B: a.B || b.B, id: id1}
}

// SFAnd combines two flags (flag = f1 && f2).
func (m *Machine) SFAnd(a, b F) F {
	_, id1 := m.rec(isa.ScalarAnd, 2, a.id, b.id)
	return F{B: a.B && b.B, id: id1}
}

// SOr is OR r64, r64.
func (m *Machine) SOr(a, b S) S {
	id, _ := m.rec(isa.ScalarOr, 1, a.id, b.id)
	return S{X: a.X | b.X, id: id}
}

// SShl is SHL r64, imm.
func (m *Machine) SShl(a S, n uint) S {
	id, _ := m.rec(isa.ScalarShl, 1, a.id)
	return S{X: a.X << n, id: id}
}

// SShr is SHR r64, imm.
func (m *Machine) SShr(a S, n uint) S {
	id, _ := m.rec(isa.ScalarShr, 1, a.id)
	return S{X: a.X >> n, id: id}
}
