// Package pisa implements performance projection using proxy ISA
// (Section 4.2): estimating the cost of an instruction that hardware does
// not (yet) execute by substituting the cost of the most structurally
// similar existing instruction.
//
// The MQX instructions are always costed this way (isa.PISAProxy, Table 3).
// This package implements the methodology's sanity check (Section 5.2,
// Tables 5 and 6): apply the same substitution to *existing* instructions
// whose true cost is known, and measure the relative error epsilon (Eq. 12)
// on a full NTT workload.
package pisa

import (
	"fmt"

	"mqxgo/internal/isa"
	"mqxgo/internal/kernels"
	"mqxgo/internal/modmath"
	"mqxgo/internal/perfmodel"
	"mqxgo/internal/vm"
)

// ValidationResult is one cell of Table 6.
type ValidationResult struct {
	Pair    isa.ValidationPair
	Machine *perfmodel.Machine
	// TargetNs is the NTT runtime with the target instruction's true cost.
	TargetNs float64
	// ProxyNs is the runtime predicted via the proxy substitution,
	// including the dependency-guard instruction the paper inserts to
	// preserve data flow ("guard the output with volatile", Section 5.2).
	ProxyNs float64
	// EpsilonPct is Eq. 12: (t_target - t_proxy) / t_target * 100.
	// Negative values mean PISA was conservative (predicted slower).
	EpsilonPct float64
}

// ValidationSize is the NTT size used for the sanity check: 2^14, "the
// average among the NTT sizes targeted in this paper" (Section 5.2).
const ValidationSize = 1 << 14

// levelForTarget maps each Table 5 target instruction to the kernel tier
// whose butterfly actually issues it.
func levelForTarget(op isa.Op) (isa.Level, error) {
	switch op {
	case isa.AVX2MulUDQ:
		return isa.LevelAVX2, nil
	case isa.AVX512MaskAddQ, isa.AVX512MaskSubQ:
		return isa.LevelAVX512, nil
	}
	return 0, fmt.Errorf("pisa: no kernel tier exercises %v", op)
}

// guardOp returns the dependency-preserving instruction the proxy build
// inserts next to each substituted instruction ("guard the output with
// volatile", Section 5.2): a mask move for the mask-register pairs, a
// vector ALU op for the AVX2 pair.
func guardOp(target isa.Op) isa.Op {
	switch target {
	case isa.AVX512MaskAddQ, isa.AVX512MaskSubQ:
		return isa.AVX512KMov
	default:
		return isa.AVX2And
	}
}

// SubstituteBody rebuilds a recorded loop body the way the paper rebuilds
// its kernels for the validation experiment: every occurrence of target is
// replaced by the proxy instruction followed by the guard instruction
// (dependences preserved through the proxy's outputs).
func SubstituteBody(body []vm.Instr, target, proxy, guard isa.Op) []vm.Instr {
	out := make([]vm.Instr, 0, len(body)+8)
	for _, in := range body {
		if in.Op != target {
			out = append(out, in)
			continue
		}
		sub := in
		sub.Op = proxy
		out = append(out, sub)
		out = append(out, vm.Instr{Op: guard, Out: [2]int32{-1, -1}, In: [4]int32{in.Out[0], -1, -1, -1}})
	}
	return out
}

// Validate runs the Table 6 experiment for one machine: for each Table 5
// pair, model the 2^14-point NTT from the original body (ground truth) and
// from the proxy-substituted body (the PISA projection), and report
// epsilon.
func Validate(mach *perfmodel.Machine, mod *modmath.Modulus128) ([]ValidationResult, error) {
	var out []ValidationResult
	for _, pair := range isa.PISAValidationPairs {
		level, err := levelForTarget(pair.Target)
		if err != nil {
			return nil, err
		}
		body := perfmodel.ButterflyBody(level, mod, kernels.Schoolbook)
		tTarget := perfmodel.NewNTTModel(perfmodel.NewKernelModel(mach, body), ValidationSize).TimeNs()

		proxyBody := &perfmodel.Body{
			Level:  body.Level,
			Lanes:  body.Lanes,
			Instrs: SubstituteBody(body.Instrs, pair.Target, pair.Proxy, guardOp(pair.Target)),
			Bytes:  body.Bytes,
		}
		tProxy := perfmodel.NewNTTModel(perfmodel.NewKernelModel(mach, proxyBody), ValidationSize).TimeNs()

		out = append(out, ValidationResult{
			Pair:       pair,
			Machine:    mach,
			TargetNs:   tTarget,
			ProxyNs:    tProxy,
			EpsilonPct: (tTarget - tProxy) / tTarget * 100,
		})
	}
	return out, nil
}

// ProxyTable renders Table 3 (the MQX proxy mapping) as rows of
// (MQX instruction, AVX-512 proxy).
func ProxyTable() [][2]string {
	rows := [][2]string{
		{isa.MQXMulQ.String(), isa.PISAProxy[isa.MQXMulQ].String()},
		{isa.MQXAdcQ.String(), isa.PISAProxy[isa.MQXAdcQ].String()},
		{isa.MQXSbbQ.String(), isa.PISAProxy[isa.MQXSbbQ].String()},
	}
	return rows
}
