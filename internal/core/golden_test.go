package core

import (
	"math"
	"testing"

	"mqxgo/internal/isa"
	"mqxgo/internal/modmath"
	"mqxgo/internal/perfmodel"
)

// Golden values: the model is fully deterministic, and `go run ./cmd/report`
// prints these exact numbers. If a cost-table or kernel change moves them,
// this test fails as a reminder to re-check the report (and to re-examine
// the paper-shape comparisons).
func TestGoldenModelValues(t *testing.T) {
	mod := modmath.DefaultModulus128()
	approx := func(got, want float64, what string) {
		t.Helper()
		if math.Abs(got-want) > 0.01 {
			t.Errorf("%s = %.3f, golden %.3f — re-check `go run ./cmd/report` if intentional", what, got, want)
		}
	}

	// Figure 5 key cells (ns/butterfly at 2^14, i.e. pre-knee).
	n := 1 << 14
	approx(perfmodel.ProjectNTT(perfmodel.IntelXeon8352Y, isa.LevelAVX512, mod, n).NsPerButterfly(),
		5.662, "intel avx512 ns/bf")
	approx(perfmodel.ProjectNTT(perfmodel.IntelXeon8352Y, isa.LevelMQX, mod, n).NsPerButterfly(),
		1.728, "intel mqx ns/bf")
	approx(perfmodel.ProjectNTT(perfmodel.IntelXeon8352Y, isa.LevelScalar, mod, n).NsPerButterfly(),
		8.647, "intel scalar ns/bf")
	approx(perfmodel.ProjectNTT(perfmodel.AMDEPYC9654, isa.LevelAVX512, mod, n).NsPerButterfly(),
		4.611, "amd avx512 ns/bf")
	approx(perfmodel.ProjectNTT(perfmodel.AMDEPYC9654, isa.LevelMQX, mod, n).NsPerButterfly(),
		1.191, "amd mqx ns/bf")

	// The Intel L2 knee (documented: 1.73 -> 2.14 at 2^16).
	approx(perfmodel.ProjectNTT(perfmodel.IntelXeon8352Y, isa.LevelMQX, mod, 1<<16).NsPerButterfly(),
		2.139, "intel mqx ns/bf at 2^16")

	// Figure 4 key cells (ns/element, length 1024).
	approx(ProjectBLASNs(perfmodel.IntelXeon8352Y, isa.LevelMQX, mod), 1.507, "intel mqx pmul ns/el")
	approx(ProjectBLASNs(perfmodel.AMDEPYC9654, isa.LevelMQX, mod), 0.811, "amd mqx pmul ns/el")
}

// ProjectBLASNs is a tiny helper for the golden test (point-wise multiply
// at the Figure 4 vector length).
func ProjectBLASNs(mach *perfmodel.Machine, level isa.Level, mod *modmath.Modulus128) float64 {
	fig := Figure4(mach, mod, DefaultBaselineRatios)
	for _, s := range fig.Series {
		if s.Name == level.String() {
			return s.Values[2] // vecpmul
		}
	}
	return math.NaN()
}
