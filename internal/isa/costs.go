package isa

import "fmt"

// PortSet is a bitmask of execution ports one micro-op may issue to.
type PortSet uint32

// Has reports whether port p is in the set.
func (s PortSet) Has(p int) bool { return s&(1<<uint(p)) != 0 }

// Ports lists the port indices in the set.
func (s PortSet) Ports() []int {
	var ps []int
	for p := 0; p < 32; p++ {
		if s.Has(p) {
			ps = append(ps, p)
		}
	}
	return ps
}

func ports(ps ...int) PortSet {
	var s PortSet
	for _, p := range ps {
		s |= 1 << uint(p)
	}
	return s
}

// Cost describes how one instruction executes on a microarchitecture:
// the port set of each micro-op and the result latency in cycles.
type Cost struct {
	Uops []PortSet // one entry per micro-op
	Lat  int       // cycles from dispatch to result availability
}

func cost(lat int, uops ...PortSet) Cost { return Cost{Uops: uops, Lat: lat} }

// Microarch is a modeled CPU core: its execution ports and instruction costs.
//
// The tables are assembled from public instruction-timing data
// (vendor optimization manuals and uops.info-class measurements) at the
// fidelity needed for relative comparisons. The paper's own MQX numbers
// rest on the same class of data via LLVM-MCA.
type Microarch struct {
	Name          string
	PortNames     []string // index = port id used in PortSet
	DispatchWidth int      // max micro-ops issued per cycle
	Costs         map[Op]Cost
}

// CostOf returns the cost entry for op, resolving MQX instructions through
// their PISA proxies (Table 3). It panics if the op is unknown: kernels
// must only emit instructions the target microarchitecture models.
func (m *Microarch) CostOf(op Op) Cost {
	if c, ok := m.Costs[op]; ok {
		return c
	}
	if proxy, ok := PISAProxy[op]; ok {
		if c, ok := m.Costs[proxy]; ok {
			return c
		}
	}
	panic(fmt.Sprintf("isa: no cost for %v on %s", op, m.Name))
}

// PISAProxy maps each proposed MQX instruction to the structurally closest
// existing AVX-512 instruction used to project its performance (Table 3).
// The +Mh and +P sensitivity variants reuse the same proxies: multiply-high
// is modeled with the same latency as multiply-low (Section 5.5), and the
// predicated carry ops are modeled as masked add/sub.
var PISAProxy = map[Op]Op{
	MQXMulQ:     AVX512MulLQ,
	MQXAdcQ:     AVX512MaskAddQ,
	MQXSbbQ:     AVX512MaskSubQ,
	MQXMulHiQ:   AVX512MulLQ,
	MQXPredAdcQ: AVX512MaskAddQ,
	MQXPredSbbQ: AVX512MaskSubQ,
}

// ValidationPair is one Table 5 row: an existing instruction whose
// performance we predict from a proxy, establishing ground truth for PISA.
type ValidationPair struct {
	Target Op
	Proxy  Op
}

// PISAValidationPairs are the Table 5 target/proxy pairs.
var PISAValidationPairs = []ValidationPair{
	{Target: AVX2MulUDQ, Proxy: AVX2MulLD},
	{Target: AVX512MaskAddQ, Proxy: AVX512AddQ},
	{Target: AVX512MaskSubQ, Proxy: AVX512SubQ},
}

// Sunny Cove port assignment (Intel Xeon 8352Y / Ice Lake-SP), following
// the simplified diagram in Figure 3 of the paper:
//
//	port 0: scalar ALU + 512-bit vector ALU/FMA
//	port 1: scalar ALU + integer multiply (fused into port 0 for 512-bit)
//	port 5: scalar ALU + 512-bit vector ALU + shuffle unit
//	port 6: scalar ALU + branch
//	ports 2,3: load AGU; port 4: store data; port 7: store AGU
const (
	icxP0 = 0
	icxP1 = 1
	icxP2 = 2
	icxP3 = 3
	icxP4 = 4
	icxP5 = 5
	icxP6 = 6
	icxP7 = 7
)

// SunnyCove models one core of the Intel Xeon 8352Y (Ice Lake-SP).
var SunnyCove = &Microarch{
	Name:          "SunnyCove",
	PortNames:     []string{"p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7"},
	DispatchWidth: 5,
	Costs: map[Op]Cost{
		// Scalar x86-64. ADD/ADC and SUB/SBB have identical timing, the
		// observation the paper grounds PISA on (Section 4.2).
		ScalarAdd:   cost(1, ports(icxP0, icxP1, icxP5, icxP6)),
		ScalarAdc:   cost(1, ports(icxP0, icxP6)),
		ScalarSub:   cost(1, ports(icxP0, icxP1, icxP5, icxP6)),
		ScalarSbb:   cost(1, ports(icxP0, icxP6)),
		ScalarMul:   cost(3, ports(icxP1), ports(icxP5)), // widening MUL r64: 2 uops
		ScalarImul:  cost(3, ports(icxP1)),
		ScalarCmp:   cost(1, ports(icxP0, icxP1, icxP5, icxP6)),
		ScalarCmov:  cost(1, ports(icxP0, icxP6)),
		ScalarSetcc: cost(1, ports(icxP0, icxP6)),
		ScalarAnd:   cost(1, ports(icxP0, icxP1, icxP5, icxP6)),
		ScalarOr:    cost(1, ports(icxP0, icxP1, icxP5, icxP6)),
		ScalarXor:   cost(1, ports(icxP0, icxP1, icxP5, icxP6)),
		ScalarNot:   cost(1, ports(icxP0, icxP1, icxP5, icxP6)),
		ScalarShl:   cost(1, ports(icxP0, icxP6)),
		ScalarShr:   cost(1, ports(icxP0, icxP6)),
		ScalarMov:   cost(1, ports(icxP0, icxP1, icxP5, icxP6)),
		ScalarLoad:  cost(5, ports(icxP2, icxP3)),
		ScalarStore: cost(1, ports(icxP4), ports(icxP7)),
		ScalarTest:  cost(1, ports(icxP0, icxP1, icxP5, icxP6)),

		// AVX2 (256-bit): three vector ALU ports (0, 1, 5).
		AVX2AddQ:    cost(1, ports(icxP0, icxP1, icxP5)),
		AVX2SubQ:    cost(1, ports(icxP0, icxP1, icxP5)),
		AVX2MulUDQ:  cost(5, ports(icxP0, icxP1)),
		AVX2MulLD:   cost(10, ports(icxP0, icxP1)),
		AVX2CmpGtQ:  cost(3, ports(icxP5)),
		AVX2CmpEqQ:  cost(1, ports(icxP0, icxP1, icxP5)),
		AVX2BlendVB: cost(2, ports(icxP0, icxP1, icxP5), ports(icxP0, icxP1, icxP5)),
		AVX2And:     cost(1, ports(icxP0, icxP1, icxP5)),
		AVX2Or:      cost(1, ports(icxP0, icxP1, icxP5)),
		AVX2Xor:     cost(1, ports(icxP0, icxP1, icxP5)),
		AVX2AndNot:  cost(1, ports(icxP0, icxP1, icxP5)),
		AVX2SrlQ:    cost(1, ports(icxP0, icxP1)),
		AVX2SllQ:    cost(1, ports(icxP0, icxP1)),
		AVX2SrlVQ:   cost(1, ports(icxP0, icxP1)),
		AVX2Shuf:    cost(3, ports(icxP5)),
		AVX2Perm128: cost(3, ports(icxP5)),
		AVX2UnpckL:  cost(1, ports(icxP1, icxP5)),
		AVX2UnpckH:  cost(1, ports(icxP1, icxP5)),
		AVX2Bcast:   cost(3, ports(icxP5)),
		AVX2Load:    cost(7, ports(icxP2, icxP3)),
		AVX2Store:   cost(1, ports(icxP4), ports(icxP7)),

		// AVX-512 (512-bit): ports 0 and 5 only (port 1 fuses into port 0).
		AVX512AddQ:     cost(1, ports(icxP0, icxP5)),
		AVX512SubQ:     cost(1, ports(icxP0, icxP5)),
		AVX512MaskAddQ: cost(1, ports(icxP0, icxP5)),
		AVX512MaskSubQ: cost(1, ports(icxP0, icxP5)),
		AVX512MulUDQ:   cost(5, ports(icxP0)),
		// VPMULLQ zmm is microcoded on Ice Lake: 3 multiply uops, ~15c latency.
		AVX512MulLQ:   cost(15, ports(icxP0), ports(icxP0), ports(icxP0)),
		AVX512CmpUQ:   cost(3, ports(icxP5)),
		AVX512CmpQ:    cost(3, ports(icxP5)),
		AVX512BlendQ:  cost(1, ports(icxP0, icxP5)),
		AVX512And:     cost(1, ports(icxP0, icxP5)),
		AVX512Or:      cost(1, ports(icxP0, icxP5)),
		AVX512Xor:     cost(1, ports(icxP0, icxP5)),
		AVX512SrlQI:   cost(1, ports(icxP0)),
		AVX512SllQI:   cost(1, ports(icxP0)),
		AVX512SrlQV:   cost(1, ports(icxP0)),
		AVX512Perm2:   cost(3, ports(icxP5)),
		AVX512Perm:    cost(3, ports(icxP5)),
		AVX512UnpckL:  cost(1, ports(icxP5)),
		AVX512UnpckH:  cost(1, ports(icxP5)),
		AVX512Bcast:   cost(3, ports(icxP5)),
		AVX512Load:    cost(8, ports(icxP2, icxP3)),
		AVX512Store:   cost(1, ports(icxP4), ports(icxP7)),
		AVX512MaxUQ:   cost(1, ports(icxP0, icxP5)),
		AVX512MinUQ:   cost(1, ports(icxP0, icxP5)),
		AVX512TernLog: cost(1, ports(icxP0, icxP5)),
		AVX512KOr:     cost(1, ports(icxP0)),
		AVX512KAnd:    cost(1, ports(icxP0)),
		AVX512KXor:    cost(1, ports(icxP0)),
		AVX512KNot:    cost(1, ports(icxP0)),
		AVX512KAndNot: cost(1, ports(icxP0)),
		AVX512KMov:    cost(1, ports(icxP0)),
	},
}

// Zen 4 port assignment (AMD EPYC 9654). The vector engine has four
// 256-bit pipes (FP0-FP3); 512-bit instructions are double-pumped, which
// we model as two micro-ops. Integer vector multiplies execute on
// FP0/FP1, shuffles on FP1/FP2. Three AGU pipes serve loads/stores.
const (
	zenFP0 = 0
	zenFP1 = 1
	zenFP2 = 2
	zenFP3 = 3
	zenLD0 = 4
	zenLD1 = 5
	zenST0 = 6
	zenALU = 7 // scalar ALUs folded into one 4-wide pool (see below)
)

// Zen4 models one core of the AMD EPYC 9654.
//
// Scalar ALU modeling note: Zen 4 has four scalar ALU pipes; we expose them
// as four synthetic ports (8-11) so port pressure saturates at 4/cycle.
var Zen4 = &Microarch{
	Name:          "Zen4",
	PortNames:     []string{"fp0", "fp1", "fp2", "fp3", "ld0", "ld1", "st0", "alu0", "alu1", "alu2", "alu3"},
	DispatchWidth: 6,
	Costs:         zen4Costs(),
}

func zen4Costs() map[Op]Cost {
	alu := ports(7, 8, 9, 10)
	aluMul := ports(8) // one scalar multiply pipe
	vAll := ports(zenFP0, zenFP1, zenFP2, zenFP3)
	vMul := ports(zenFP0, zenFP1)
	vShuf := ports(zenFP1, zenFP2)
	ld := ports(zenLD0, zenLD1)
	st := ports(zenST0)

	c := map[Op]Cost{
		ScalarAdd:   cost(1, alu),
		ScalarAdc:   cost(1, alu),
		ScalarSub:   cost(1, alu),
		ScalarSbb:   cost(1, alu),
		ScalarMul:   cost(3, aluMul, aluMul),
		ScalarImul:  cost(3, aluMul),
		ScalarCmp:   cost(1, alu),
		ScalarCmov:  cost(1, alu),
		ScalarSetcc: cost(1, alu),
		ScalarAnd:   cost(1, alu),
		ScalarOr:    cost(1, alu),
		ScalarXor:   cost(1, alu),
		ScalarNot:   cost(1, alu),
		ScalarShl:   cost(1, alu),
		ScalarShr:   cost(1, alu),
		ScalarMov:   cost(1, alu),
		ScalarLoad:  cost(4, ld),
		ScalarStore: cost(1, st),
		ScalarTest:  cost(1, alu),

		// AVX2 (256-bit): single-pumped, all four vector pipes for ALU ops.
		AVX2AddQ:    cost(1, vAll),
		AVX2SubQ:    cost(1, vAll),
		AVX2MulUDQ:  cost(3, vMul),
		AVX2MulLD:   cost(3, vMul),
		AVX2CmpGtQ:  cost(1, vAll),
		AVX2CmpEqQ:  cost(1, vAll),
		AVX2BlendVB: cost(1, vAll),
		AVX2And:     cost(1, vAll),
		AVX2Or:      cost(1, vAll),
		AVX2Xor:     cost(1, vAll),
		AVX2AndNot:  cost(1, vAll),
		AVX2SrlQ:    cost(1, vMul),
		AVX2SllQ:    cost(1, vMul),
		AVX2SrlVQ:   cost(1, vMul),
		AVX2Shuf:    cost(2, vShuf),
		AVX2Perm128: cost(3, vShuf),
		AVX2UnpckL:  cost(1, vShuf),
		AVX2UnpckH:  cost(1, vShuf),
		AVX2Bcast:   cost(1, vShuf),
		AVX2Load:    cost(7, ld),
		AVX2Store:   cost(1, st),

		// AVX-512 (512-bit): double-pumped, two uops per instruction.
		AVX512AddQ:     cost(1, vAll, vAll),
		AVX512SubQ:     cost(1, vAll, vAll),
		AVX512MaskAddQ: cost(1, vAll, vAll),
		AVX512MaskSubQ: cost(1, vAll, vAll),
		AVX512MulUDQ:   cost(3, vMul, vMul),
		// Zen 4 implements VPMULLQ natively in the 64-bit multiplier array:
		// same cost class as VPMULUDQ. This asymmetry vs. Ice Lake is what
		// makes MQX's widening multiply relatively cheaper on AMD.
		AVX512MulLQ:   cost(3, vMul, vMul),
		AVX512CmpUQ:   cost(3, vShuf, vShuf),
		AVX512CmpQ:    cost(3, vShuf, vShuf),
		AVX512BlendQ:  cost(1, vAll, vAll),
		AVX512And:     cost(1, vAll, vAll),
		AVX512Or:      cost(1, vAll, vAll),
		AVX512Xor:     cost(1, vAll, vAll),
		AVX512SrlQI:   cost(1, vMul, vMul),
		AVX512SllQI:   cost(1, vMul, vMul),
		AVX512SrlQV:   cost(1, vMul, vMul),
		AVX512Perm2:   cost(4, vShuf, vShuf),
		AVX512Perm:    cost(4, vShuf, vShuf),
		AVX512UnpckL:  cost(1, vShuf, vShuf),
		AVX512UnpckH:  cost(1, vShuf, vShuf),
		AVX512Bcast:   cost(1, vShuf, vShuf),
		AVX512Load:    cost(7, ld, ld),
		AVX512Store:   cost(1, st, st),
		AVX512MaxUQ:   cost(1, vAll, vAll),
		AVX512MinUQ:   cost(1, vAll, vAll),
		AVX512TernLog: cost(1, vAll, vAll),
		AVX512KOr:     cost(1, vShuf),
		AVX512KAnd:    cost(1, vShuf),
		AVX512KXor:    cost(1, vShuf),
		AVX512KNot:    cost(1, vShuf),
		AVX512KAndNot: cost(1, vShuf),
		AVX512KMov:    cost(1, vShuf),
	}
	return c
}

// Microarchs lists the modeled measurement microarchitectures.
var Microarchs = []*Microarch{SunnyCove, Zen4}
