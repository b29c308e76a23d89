// Package extdata provides the external reference performance curves the
// paper compares against in Figures 1 and 7: the RPU and FPMM ASICs, the
// MoMA GPU implementation, and OpenFHE running on 32 cores (as reported in
// the RPU paper).
//
// Provenance: raw per-size numbers for these systems are not published in
// reusable form, but the paper pins them tightly through stated ratios:
//
//   - MQX-SOL on AMD EPYC 9965S is on average 2.5x faster than RPU, 2.9x
//     faster than FPMM, and 1.7x faster than MoMA (Section 6).
//   - RPU is 545-1485x faster than OpenFHE on a 32-core machine, and our
//     Figure 1 anchor: single-core AVX-512 is 3.8x faster than OpenFHE-32c.
//
// The curves below are synthesized from those ratios, anchored to this
// library's own MQX speed-of-light series on AMD EPYC 9965S, with fixed
// per-size shape factors so the curves are not exactly proportional (ASIC
// pipelines favor large batched sizes; GPUs lose efficiency at small
// sizes). The AMD-side comparisons therefore reproduce the stated ratios
// by construction, while every Intel-side comparison in Figure 7a is a
// genuine model prediction. `go run ./cmd/report` prints both figures.
package extdata

import (
	"mqxgo/internal/isa"
	"mqxgo/internal/modmath"
	"mqxgo/internal/perfmodel"
	"mqxgo/internal/roofline"
)

// RPUSizes are the NTT sizes the RPU ASIC supports (1,024 to 8,192).
var RPUSizes = []int{1 << 10, 1 << 11, 1 << 12, 1 << 13}

// FPMMSizes are the two NTT sizes the FPMM comparison uses.
var FPMMSizes = []int{1 << 12, 1 << 16}

// shape factors give each external system a mildly different size profile
// around its anchored mean (deterministic, documented approximations).
var (
	rpuShape  = map[int]float64{1 << 10: 1.12, 1 << 11: 1.04, 1 << 12: 0.97, 1 << 13: 0.90}
	fpmmShape = map[int]float64{1 << 12: 1.06, 1 << 16: 0.94}
	momaShape = map[int]float64{
		1 << 10: 1.25, 1 << 11: 1.14, 1 << 12: 1.06, 1 << 13: 1.00,
		1 << 14: 0.95, 1 << 15: 0.91, 1 << 16: 0.88, 1 << 17: 0.86,
	}
)

// anchor ratios relative to the MQX-SOL series on AMD EPYC 9965S.
const (
	rpuOverSOL     = 2.5
	fpmmOverSOL    = 2.9
	momaOverSOL    = 1.7
	openFHEOverSOL = 3120 // lands OpenFHE-32c/RPU at ~1250x, inside RPU's reported 545-1485x
)

// solAnchor returns the MQX-SOL (AMD EPYC 9965S) runtime for each size.
func solAnchor(mod *modmath.Modulus128, sizes []int) roofline.Series {
	return roofline.SOLSeries(perfmodel.AMDEPYC9654, perfmodel.AMDEPYC9965S,
		isa.LevelMQX, mod, sizes)
}

func synthesized(name string, mod *modmath.Modulus128, sizes []int, ratio float64, shape map[int]float64) roofline.Series {
	anchor := solAnchor(mod, sizes)
	s := roofline.Series{Name: name}
	for _, p := range anchor.Points {
		f := 1.0
		if shape != nil {
			if v, ok := shape[p.N]; ok {
				f = v
			}
		}
		s.Points = append(s.Points, roofline.Point{N: p.N, TimeNs: p.TimeNs * ratio * f})
	}
	return s
}

// RPU returns the synthesized RPU ASIC curve over its supported sizes.
func RPU(mod *modmath.Modulus128) roofline.Series {
	return synthesized("RPU (ASIC)", mod, RPUSizes, rpuOverSOL, rpuShape)
}

// FPMM returns the synthesized FPMM ASIC curve (Zhou et al.).
func FPMM(mod *modmath.Modulus128) roofline.Series {
	return synthesized("FPMM (ASIC)", mod, FPMMSizes, fpmmOverSOL, fpmmShape)
}

// MoMA returns the synthesized MoMA GPU (RTX 4090) curve.
func MoMA(mod *modmath.Modulus128) roofline.Series {
	return synthesized("MoMA (GPU)", mod, roofline.StandardSizes, momaOverSOL, momaShape)
}

// OpenFHE32Core returns the synthesized OpenFHE 32-core curve from the RPU
// paper's comparison.
func OpenFHE32Core(mod *modmath.Modulus128) roofline.Series {
	return synthesized("OpenFHE (32 cores)", mod, roofline.StandardSizes, openFHEOverSOL, nil)
}
