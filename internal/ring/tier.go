package ring

import (
	"os"
	"sync"
)

// KernelTier names one implementation level of the span kernels: the
// always-on scalar Go loops, or one of the vector tiers above them (AVX2
// and AVX-512 for Shoup64; AVX-512 and AVX-512 IFMA for Barrett128). The
// tiers are ordered, and a tier is resolved by clamping the requested
// tier to what the host CPU supports; the scalar kernels remain the
// ground truth every vector tier is differential-tested against.
type KernelTier uint8

const (
	// TierAuto resolves to the best supported tier at plan build (the
	// default): the MQXGO_KERNEL_TIER environment knob, if set, then CPU
	// feature detection.
	TierAuto KernelTier = iota
	// TierScalar forces the fused scalar Go kernels.
	TierScalar
	// TierAVX2 is the 4-lane assembly tier (requires AVX2).
	TierAVX2
	// TierAVX512 is the 8-lane assembly tier (requires AVX-512 F+DQ:
	// VPMULLQ and VPMINUQ carry the lazy arithmetic).
	TierAVX512
	// TierAVX512IFMA is TierAVX512 plus the 52-bit multiply-accumulate
	// (VPMADD52LUQ/VPMADD52HUQ) that Barrett128's products by a fixed
	// operand run on. Shoup64 has no body here: its primes do not fit
	// 52-bit limbs, so NewShoup64Tier clamps it to TierAVX512.
	TierAVX512IFMA
)

func (t KernelTier) String() string {
	switch t {
	case TierAuto:
		return "auto"
	case TierScalar:
		return "scalar"
	case TierAVX2:
		return "avx2"
	case TierAVX512:
		return "avx512"
	case TierAVX512IFMA:
		return "avx512ifma"
	}
	return "tier?"
}

// ParseKernelTier maps the MQXGO_KERNEL_TIER spellings to a tier; unknown
// strings (and "") resolve to TierAuto.
func ParseKernelTier(s string) KernelTier {
	switch s {
	case "scalar":
		return TierScalar
	case "avx2":
		return TierAVX2
	case "avx512":
		return TierAVX512
	case "avx512ifma":
		return TierAVX512IFMA
	}
	return TierAuto
}

var (
	tierOnce     sync.Once
	detectedTier KernelTier
	envTier      KernelTier
)

func tierInit() {
	tierOnce.Do(func() {
		detectedTier = detectKernelTier()
		envTier = ParseKernelTier(os.Getenv("MQXGO_KERNEL_TIER"))
	})
}

// DetectKernelTier returns the best vector tier the host CPU supports
// (TierScalar when it supports none, and always on non-amd64 builds).
func DetectKernelTier() KernelTier {
	tierInit()
	return detectedTier
}

// resolveKernelTier clamps a requested tier to what the host supports:
// an explicit request wins over the environment knob, the environment
// knob over detection, and nothing ever resolves above the detected
// ceiling (forcing avx512ifma on an avx512-only host degrades to avx512,
// forcing avx512 on an avx2-only host to avx2, then scalar). The result
// is never TierAuto; each ring clamps it further to the tiers it has
// bodies for.
func resolveKernelTier(want KernelTier) KernelTier {
	tierInit()
	if want == TierAuto {
		want = envTier
	}
	if want == TierAuto {
		want = detectedTier
	}
	if want > detectedTier {
		want = detectedTier
	}
	if want == TierAuto {
		want = TierScalar
	}
	return want
}
