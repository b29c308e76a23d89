// Package isa defines the instruction sets the library models — scalar
// x86-64, AVX2, AVX-512, and the paper's proposed multi-word extension
// (MQX, Table 2) with its sensitivity-analysis variants — together with
// per-microarchitecture cost tables (uop count, latency, port sets) for
// Sunny Cove (Intel Xeon 8352Y) and Zen 4 (AMD EPYC 9654), and the PISA
// proxy mappings of Table 3.
package isa

// Op identifies one modeled machine instruction.
type Op int

// Scalar x86-64 operations (64-bit general-purpose registers).
const (
	OpInvalid Op = iota

	ScalarAdd  // ADD r64, r64
	ScalarAdc  // ADC r64, r64 (add with carry)
	ScalarSub  // SUB r64, r64
	ScalarSbb  // SBB r64, r64 (subtract with borrow)
	ScalarMul  // MUL r64 (widening 64x64->128, two result registers)
	ScalarImul // IMUL r64, r64 (low 64 bits only)
	ScalarCmp  // CMP r64, r64 (sets flags)
	ScalarCmov // CMOVcc r64, r64
	ScalarSetcc
	ScalarAnd
	ScalarOr
	ScalarXor
	ScalarNot
	ScalarShl
	ScalarShr
	ScalarMov
	ScalarLoad  // MOV r64, [mem]
	ScalarStore // MOV [mem], r64
	ScalarTest
)

// AVX2 operations (256-bit vectors, 4 x 64-bit lanes, no mask registers).
const (
	AVX2AddQ    Op = iota + 100 // VPADDQ ymm
	AVX2SubQ                    // VPSUBQ ymm
	AVX2MulUDQ                  // VPMULUDQ ymm (widening 32x32->64 per lane pair)
	AVX2MulLD                   // VPMULLD ymm (32-bit multiply-low; PISA proxy target)
	AVX2CmpGtQ                  // VPCMPGTQ ymm (signed compare, the only 64-bit compare AVX2 has)
	AVX2CmpEqQ                  // VPCMPEQQ ymm
	AVX2BlendVB                 // VPBLENDVB ymm (variable blend by vector mask)
	AVX2And
	AVX2Or
	AVX2Xor
	AVX2AndNot
	AVX2SrlQ    // VPSRLQ ymm, imm
	AVX2SllQ    // VPSLLQ ymm, imm
	AVX2SrlVQ   // VPSRLVQ (variable shift)
	AVX2Shuf    // VPSHUFD / VPERMQ style permutes
	AVX2Perm128 // VPERM2I128 (two-source 128-bit half permute)
	AVX2UnpckL  // VPUNPCKLQDQ
	AVX2UnpckH  // VPUNPCKHQDQ
	AVX2Bcast   // VPBROADCASTQ
	AVX2Load    // VMOVDQU ymm, [mem]
	AVX2Store   // VMOVDQU [mem], ymm
)

// AVX-512 operations (512-bit vectors, 8 x 64-bit lanes, k mask registers).
const (
	AVX512AddQ     Op = iota + 200 // VPADDQ zmm
	AVX512SubQ                     // VPSUBQ zmm
	AVX512MaskAddQ                 // VPADDQ zmm {k}
	AVX512MaskSubQ                 // VPSUBQ zmm {k}
	AVX512MulUDQ                   // VPMULUDQ zmm (widening 32x32->64)
	AVX512MulLQ                    // VPMULLQ zmm (64-bit multiply-low, AVX-512DQ)
	AVX512CmpUQ                    // VPCMPUQ zmm -> k (unsigned, any predicate)
	AVX512CmpQ                     // VPCMPQ zmm -> k (signed)
	AVX512BlendQ                   // VPBLENDMQ zmm {k}
	AVX512And
	AVX512Or
	AVX512Xor
	AVX512SrlQI // VPSRLQ zmm, imm
	AVX512SllQI // VPSLLQ zmm, imm
	AVX512SrlQV // VPSRLVQ zmm (variable)
	AVX512Perm2 // VPERMI2Q / VPERMT2Q two-source permute
	AVX512Perm  // VPERMQ single-source permute
	AVX512UnpckL
	AVX512UnpckH
	AVX512Bcast   // VPBROADCASTQ zmm
	AVX512Load    // VMOVDQU64 zmm, [mem]
	AVX512Store   // VMOVDQU64 [mem], zmm
	AVX512MaxUQ   // VPMAXUQ zmm
	AVX512MinUQ   // VPMINUQ zmm
	AVX512TernLog // VPTERNLOGQ
	// Mask-register ALU ops.
	AVX512KOr
	AVX512KAnd
	AVX512KXor
	AVX512KNot
	AVX512KAndNot
	AVX512KMov
)

// MQX operations (Table 2), plus the sensitivity-analysis variants of
// Section 5.5: the multiply-high alternative (+Mh) and the predicated
// add/sub-with-carry (+P).
const (
	MQXMulQ     Op = iota + 300 // vpmulq: widening 64x64 -> (hi, lo) pair
	MQXAdcQ                     // vpadcq: per-lane add with carry-in/out mask
	MQXSbbQ                     // vpsbbq: per-lane subtract with borrow-in/out mask
	MQXMulHiQ                   // vpmulhq: multiply-high only (+Mh variant)
	MQXPredAdcQ                 // predicated vpadcq (+P variant)
	MQXPredSbbQ                 // predicated vpsbbq (+P variant)
)

var opNames = map[Op]string{
	ScalarAdd: "add", ScalarAdc: "adc", ScalarSub: "sub", ScalarSbb: "sbb",
	ScalarMul: "mul", ScalarImul: "imul", ScalarCmp: "cmp", ScalarCmov: "cmov",
	ScalarSetcc: "setcc", ScalarAnd: "and", ScalarOr: "or", ScalarXor: "xor",
	ScalarNot: "not", ScalarShl: "shl", ScalarShr: "shr", ScalarMov: "mov",
	ScalarLoad: "mov(load)", ScalarStore: "mov(store)", ScalarTest: "test",

	AVX2AddQ: "vpaddq(y)", AVX2SubQ: "vpsubq(y)", AVX2MulUDQ: "vpmuludq(y)",
	AVX2MulLD: "vpmulld(y)", AVX2CmpGtQ: "vpcmpgtq(y)", AVX2CmpEqQ: "vpcmpeqq(y)",
	AVX2BlendVB: "vpblendvb(y)", AVX2And: "vpand(y)", AVX2Or: "vpor(y)",
	AVX2Xor: "vpxor(y)", AVX2AndNot: "vpandn(y)", AVX2SrlQ: "vpsrlq(y)",
	AVX2SllQ: "vpsllq(y)", AVX2SrlVQ: "vpsrlvq(y)", AVX2Shuf: "vpermq(y)",
	AVX2UnpckL: "vpunpcklqdq(y)", AVX2UnpckH: "vpunpckhqdq(y)",
	AVX2Perm128: "vperm2i128(y)",
	AVX2Bcast:   "vpbroadcastq(y)", AVX2Load: "vmovdqu(y,load)", AVX2Store: "vmovdqu(y,store)",

	AVX512AddQ: "vpaddq", AVX512SubQ: "vpsubq",
	AVX512MaskAddQ: "vpaddq{k}", AVX512MaskSubQ: "vpsubq{k}",
	AVX512MulUDQ: "vpmuludq", AVX512MulLQ: "vpmullq",
	AVX512CmpUQ: "vpcmpuq", AVX512CmpQ: "vpcmpq", AVX512BlendQ: "vpblendmq",
	AVX512And: "vpandq", AVX512Or: "vporq", AVX512Xor: "vpxorq",
	AVX512SrlQI: "vpsrlq", AVX512SllQI: "vpsllq", AVX512SrlQV: "vpsrlvq",
	AVX512Perm2: "vpermi2q", AVX512Perm: "vpermq",
	AVX512UnpckL: "vpunpcklqdq", AVX512UnpckH: "vpunpckhqdq",
	AVX512Bcast: "vpbroadcastq", AVX512Load: "vmovdqu64(load)", AVX512Store: "vmovdqu64(store)",
	AVX512MaxUQ: "vpmaxuq", AVX512MinUQ: "vpminuq", AVX512TernLog: "vpternlogq",
	AVX512KOr: "korb", AVX512KAnd: "kandb", AVX512KXor: "kxorb",
	AVX512KNot: "knotb", AVX512KAndNot: "kandnb", AVX512KMov: "kmovb",

	MQXMulQ: "vpmulq", MQXAdcQ: "vpadcq", MQXSbbQ: "vpsbbq",
	MQXMulHiQ: "vpmulhq", MQXPredAdcQ: "vpadcq{pred}", MQXPredSbbQ: "vpsbbq{pred}",
}

// String returns the assembly-style mnemonic for the op.
func (op Op) String() string {
	if s, ok := opNames[op]; ok {
		return s
	}
	return "op?"
}

// IsMQX reports whether the op is one of the proposed extension instructions.
func (op Op) IsMQX() bool { return op >= MQXMulQ && op <= MQXPredSbbQ }

// Level identifies an instruction-set tier in the paper's evaluation.
type Level int

const (
	// LevelScalar is the optimized standard-C scalar implementation.
	LevelScalar Level = iota
	// LevelAVX2 is 4-way SIMD without mask registers.
	LevelAVX2
	// LevelAVX512 is 8-way SIMD with mask registers.
	LevelAVX512
	// LevelMQX is AVX-512 plus the full MQX extension (+M,C).
	LevelMQX
	// LevelMQXMulOnly is AVX-512 plus only widening multiplication (+M).
	LevelMQXMulOnly
	// LevelMQXCarryOnly is AVX-512 plus only carry/borrow support (+C).
	LevelMQXCarryOnly
	// LevelMQXMulHi replaces the widening multiply with a multiply-high
	// pair (+Mh,C), the reduced-hardware alternative of Section 5.5.
	LevelMQXMulHi
	// LevelMQXPredicated is full MQX plus predicated carry ops (+M,C,P).
	LevelMQXPredicated
)

var levelNames = map[Level]string{
	LevelScalar:        "scalar",
	LevelAVX2:          "avx2",
	LevelAVX512:        "avx512",
	LevelMQX:           "mqx",
	LevelMQXMulOnly:    "mqx+M",
	LevelMQXCarryOnly:  "mqx+C",
	LevelMQXMulHi:      "mqx+Mh,C",
	LevelMQXPredicated: "mqx+M,C,P",
}

func (l Level) String() string {
	if s, ok := levelNames[l]; ok {
		return s
	}
	return "level?"
}

// Lanes returns the number of 64-bit lanes processed per instruction at
// this level (1 for scalar, 4 for AVX2, 8 for the 512-bit tiers).
func (l Level) Lanes() int {
	switch l {
	case LevelScalar:
		return 1
	case LevelAVX2:
		return 4
	default:
		return 8
	}
}

// AllLevels lists the standard evaluation tiers (Figures 4 and 5).
var AllLevels = []Level{LevelScalar, LevelAVX2, LevelAVX512, LevelMQX}

// SensitivityLevels lists the Figure 6 ablation tiers in presentation order:
// Base (AVX-512), +M, +C, +M,C, +Mh,C, +M,C,P.
var SensitivityLevels = []Level{
	LevelAVX512, LevelMQXMulOnly, LevelMQXCarryOnly,
	LevelMQX, LevelMQXMulHi, LevelMQXPredicated,
}
