package ring

import (
	"os"
	"sync"
)

// KernelTier names one implementation level of the Shoup64 span kernels:
// the always-on scalar Go loops (PR 3), or one of the vector tiers below
// them. The tier is selected exactly once, at plan build, by clamping the
// requested tier to what the host CPU supports; the scalar kernels remain
// the ground truth every vector tier is differential-tested against.
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
// ceiling (forcing avx512 on an avx2-only host degrades to avx2, then
// scalar). The result is one of TierScalar/TierAVX2/TierAVX512.
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
