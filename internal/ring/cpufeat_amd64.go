package ring

// CPU feature detection for the vector kernel tiers, done once per
// process (tierInit). The checks are the standard ones: the OS must have
// enabled the relevant register state via XCR0 (OSXSAVE + XGETBV), and
// the CPUID feature leaves must advertise the instructions the assembly
// uses. The AVX-512 tier requires F (foundation: VPMINUQ, VPERMT2Q,
// EVEX loads) and DQ (VPMULLQ).

func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

const (
	// CPUID.1:ECX
	cpuidOSXSAVE = 1 << 27
	cpuidAVX     = 1 << 28
	// CPUID.7.0:EBX
	cpuidAVX2     = 1 << 5
	cpuidAVX512F  = 1 << 16
	cpuidAVX512DQ = 1 << 17
	// XCR0 state bits
	xcr0SSE    = 1 << 1
	xcr0AVX    = 1 << 2
	xcr0Opmask = 1 << 5
	xcr0ZMMHi  = 1 << 6
	xcr0HiZMM  = 1 << 7
)

func detectKernelTier() KernelTier {
	t := detectCPUTier()
	if t < goamd64MinTier {
		t = goamd64MinTier
	}
	return t
}

func detectCPUTier() KernelTier {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return TierScalar
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&cpuidOSXSAVE == 0 || ecx1&cpuidAVX == 0 {
		return TierScalar
	}
	xlo, _ := xgetbv()
	if xlo&(xcr0SSE|xcr0AVX) != xcr0SSE|xcr0AVX {
		return TierScalar
	}
	_, ebx7, _, _ := cpuid(7, 0)
	if ebx7&cpuidAVX2 == 0 {
		return TierScalar
	}
	const zmmState = xcr0Opmask | xcr0ZMMHi | xcr0HiZMM
	if ebx7&cpuidAVX512F != 0 && ebx7&cpuidAVX512DQ != 0 && xlo&zmmState == zmmState {
		return TierAVX512
	}
	return TierAVX2
}

// CPUFeatures reports the host's vector capabilities for run reports
// (cmd/fheload records them so trajectories across hosts stay
// comparable).
func CPUFeatures() []string {
	f := []string{"amd64"}
	t := DetectKernelTier()
	if t >= TierAVX2 {
		f = append(f, "avx2")
	}
	if t >= TierAVX512 {
		f = append(f, "avx512f", "avx512dq")
	}
	return f
}
