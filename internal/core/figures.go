// Package core assembles every table and figure of the paper's evaluation
// (figures.go) from the performance model, the PISA methodology and the
// roofline analysis, for cmd/report and the benchmarks. Beside them sit
// what the figures rest on: VerifyAllTiers checks every ISA tier's
// trace-machine transform against the native engine (verify.go), and the
// division-based and math/big baselines anchor the GMP and OpenFHE-backend
// series with host-measured ratios (baselines.go).
package core

import (
	"fmt"
	"strings"

	"mqxgo/internal/blas"
	"mqxgo/internal/extdata"
	"mqxgo/internal/isa"
	"mqxgo/internal/kernels"
	"mqxgo/internal/modmath"
	"mqxgo/internal/perfmodel"
	"mqxgo/internal/pisa"
	"mqxgo/internal/roofline"
)

// NamedSeries is one labeled curve in a figure.
type NamedSeries struct {
	Name   string
	Values []float64 // aligned with the figure's Sizes / categories
}

// NTTFigure is Figure 5 (a or b): ns per butterfly across NTT sizes for
// every tier plus the measured-anchored baselines.
type NTTFigure struct {
	Machine *perfmodel.Machine
	Sizes   []int
	Series  []NamedSeries
}

// Figure5 assembles the Figure 5 data for a machine. Ratios anchor the GMP
// and OpenFHE-backend baselines to the modeled scalar tier.
func Figure5(mach *perfmodel.Machine, mod *modmath.Modulus128, ratios perfmodel.BaselineRatios) NTTFigure {
	fig := NTTFigure{Machine: mach, Sizes: roofline.StandardSizes}
	levels := []isa.Level{isa.LevelScalar, isa.LevelAVX2, isa.LevelAVX512, isa.LevelMQX}
	perLevel := map[isa.Level][]float64{}
	for _, level := range levels {
		body := perfmodel.ButterflyBody(level, mod, kernels.Schoolbook)
		k := perfmodel.NewKernelModel(mach, body)
		var vals []float64
		for _, n := range fig.Sizes {
			vals = append(vals, perfmodel.NewNTTModel(k, n).NsPerButterfly())
		}
		perLevel[level] = vals
	}
	scale := func(base []float64, f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	fig.Series = []NamedSeries{
		{Name: "GMP", Values: scale(perLevel[isa.LevelScalar], ratios.BignumOverNative)},
		{Name: "OpenFHE-backend", Values: scale(perLevel[isa.LevelScalar], ratios.GenericOverNative)},
		{Name: "scalar", Values: perLevel[isa.LevelScalar]},
		{Name: "avx2", Values: perLevel[isa.LevelAVX2]},
		{Name: "avx512", Values: perLevel[isa.LevelAVX512]},
		{Name: "mqx", Values: perLevel[isa.LevelMQX]},
	}
	return fig
}

// BLASFigure is Figure 4 (a or b): ns per element for the four BLAS
// kernels across tiers.
type BLASFigure struct {
	Machine *perfmodel.Machine
	Ops     []blas.Op
	Series  []NamedSeries // one value per op
}

// BLASVectorLength is the paper's Figure 4 vector length.
const BLASVectorLength = 1024

// Figure4 assembles the Figure 4 data for a machine.
func Figure4(mach *perfmodel.Machine, mod *modmath.Modulus128, ratios perfmodel.BaselineRatios) BLASFigure {
	fig := BLASFigure{Machine: mach, Ops: blas.AllOps}
	levels := []isa.Level{isa.LevelScalar, isa.LevelAVX2, isa.LevelAVX512, isa.LevelMQX}
	perLevel := map[isa.Level][]float64{}
	for _, level := range levels {
		var vals []float64
		for _, op := range fig.Ops {
			m := perfmodel.ProjectBLAS(mach, level, mod, op, BLASVectorLength)
			vals = append(vals, m.NsPerElement())
		}
		perLevel[level] = vals
	}
	gmp := make([]float64, len(fig.Ops))
	for i, v := range perLevel[isa.LevelScalar] {
		gmp[i] = v * ratios.BignumOverNative
	}
	fig.Series = []NamedSeries{
		{Name: "GMP", Values: gmp},
		{Name: "scalar", Values: perLevel[isa.LevelScalar]},
		{Name: "avx2", Values: perLevel[isa.LevelAVX2]},
		{Name: "avx512", Values: perLevel[isa.LevelAVX512]},
		{Name: "mqx", Values: perLevel[isa.LevelMQX]},
	}
	return fig
}

// SensitivityRow is one bar of Figure 6.
type SensitivityRow struct {
	Label      string
	Level      isa.Level
	Normalized float64 // mean per-butterfly runtime normalized to AVX-512
}

// Figure6 assembles the MQX component ablation on AMD EPYC (the paper runs
// this sensitivity analysis on AMD, Section 5.5), averaging per-butterfly
// runtime across all tested NTT sizes and normalizing to the AVX-512 base.
func Figure6(mod *modmath.Modulus128) []SensitivityRow {
	mach := perfmodel.AMDEPYC9654
	labels := map[isa.Level]string{
		isa.LevelAVX512:        "Base",
		isa.LevelMQXMulOnly:    "+M",
		isa.LevelMQXCarryOnly:  "+C",
		isa.LevelMQX:           "+M,C",
		isa.LevelMQXMulHi:      "+Mh,C",
		isa.LevelMQXPredicated: "+M,C,P",
	}
	mean := func(level isa.Level) float64 {
		body := perfmodel.ButterflyBody(level, mod, kernels.Schoolbook)
		k := perfmodel.NewKernelModel(mach, body)
		sum := 0.0
		for _, n := range roofline.StandardSizes {
			sum += perfmodel.NewNTTModel(k, n).NsPerButterfly()
		}
		return sum / float64(len(roofline.StandardSizes))
	}
	base := mean(isa.LevelAVX512)
	var rows []SensitivityRow
	for _, level := range isa.SensitivityLevels {
		rows = append(rows, SensitivityRow{
			Label:      labels[level],
			Level:      level,
			Normalized: mean(level) / base,
		})
	}
	return rows
}

// KaratsubaRow is one entry of the Section 5.5 multiplication-algorithm
// sensitivity analysis.
type KaratsubaRow struct {
	Machine      string
	Level        isa.Level
	SchoolbookNs float64 // per butterfly at the comparison size
	KaratsubaNs  float64
	Speedup      float64 // karatsuba / schoolbook (>1 means schoolbook wins)
}

// KaratsubaComparison runs the Section 5.5 analysis at NTT size 2^14:
// the modeled butterfly with each widening product.
func KaratsubaComparison(mod *modmath.Modulus128) []KaratsubaRow {
	const n = 1 << 14
	project := func(mach *perfmodel.Machine, level isa.Level, alg kernels.MulAlgorithm) float64 {
		body := perfmodel.ButterflyBody(level, mod, alg)
		return perfmodel.NewNTTModel(perfmodel.NewKernelModel(mach, body), n).NsPerButterfly()
	}
	var rows []KaratsubaRow
	for _, mach := range perfmodel.MeasurementMachines {
		for _, level := range isa.AllLevels {
			s := project(mach, level, kernels.Schoolbook)
			k := project(mach, level, kernels.Karatsuba)
			rows = append(rows, KaratsubaRow{
				Machine:      mach.Name,
				Level:        level,
				SchoolbookNs: s,
				KaratsubaNs:  k,
				Speedup:      k / s,
			})
		}
	}
	return rows
}

// SOLFigure is Figure 7 (a or b): the speed-of-light series against the
// external baselines.
type SOLFigure struct {
	Measurement *perfmodel.Machine
	Target      *perfmodel.Machine
	Sizes       []int
	MQXSOL      roofline.Series
	Baselines   []roofline.Series
}

// Figure7 assembles the SOL comparison for one measurement machine.
func Figure7(meas *perfmodel.Machine, mod *modmath.Modulus128) (SOLFigure, error) {
	target, ok := perfmodel.SOLMachines[meas.Name]
	if !ok {
		return SOLFigure{}, fmt.Errorf("core: no SOL target for %s", meas.Name)
	}
	return SOLFigure{
		Measurement: meas,
		Target:      target,
		Sizes:       roofline.StandardSizes,
		MQXSOL:      roofline.SOLSeries(meas, target, isa.LevelMQX, mod, roofline.StandardSizes),
		Baselines: []roofline.Series{
			extdata.OpenFHE32Core(mod),
			extdata.RPU(mod),
			extdata.FPMM(mod),
			extdata.MoMA(mod),
		},
	}, nil
}

// Figure1Bar is one bar of the headline Figure 1 comparison.
type Figure1Bar struct {
	Label  string
	TimeNs float64
}

// Figure1Size is the NTT size for the headline chart: 2^13, the largest
// size the RPU ASIC supports, so every system has a value.
const Figure1Size = 1 << 13

// Figure1 assembles the headline comparison: OpenFHE on 32 cores, the GMP
// and single-core tiers on AMD EPYC 9654, the MQX speed-of-light on 192
// cores, and the RPU ASIC.
func Figure1(mod *modmath.Modulus128, ratios perfmodel.BaselineRatios) []Figure1Bar {
	mach := perfmodel.AMDEPYC9654
	n := Figure1Size
	scalar := perfmodel.ProjectNTT(mach, isa.LevelScalar, mod, n).TimeNs()
	avx512 := perfmodel.ProjectNTT(mach, isa.LevelAVX512, mod, n).TimeNs()
	mqx := perfmodel.ProjectNTT(mach, isa.LevelMQX, mod, n).TimeNs()
	sol := roofline.SOLSeries(mach, perfmodel.AMDEPYC9965S, isa.LevelMQX, mod, []int{n})
	openFHE, _ := extdata.OpenFHE32Core(mod).At(n)
	rpu, _ := extdata.RPU(mod).At(n)
	solNs := sol.Points[0].TimeNs
	return []Figure1Bar{
		{Label: "OpenFHE (32 cores)", TimeNs: openFHE},
		{Label: "GMP (1 core)", TimeNs: scalar * ratios.BignumOverNative},
		{Label: "This work, scalar (1 core)", TimeNs: scalar},
		{Label: "This work, AVX-512 (1 core)", TimeNs: avx512},
		{Label: "This work, MQX (1 core)", TimeNs: mqx},
		{Label: "MQX-SOL (192 cores)", TimeNs: solNs},
		{Label: "RPU (ASIC)", TimeNs: rpu},
	}
}

// Table6Row is one row of the PISA validation table for both machines.
type Table6Row struct {
	Target   string
	IntelEps float64
	AMDEps   float64
}

// Table6 runs the PISA validation (Section 5.2) on both machines.
func Table6(mod *modmath.Modulus128) ([]Table6Row, error) {
	intel, err := pisa.Validate(perfmodel.IntelXeon8352Y, mod)
	if err != nil {
		return nil, err
	}
	amd, err := pisa.Validate(perfmodel.AMDEPYC9654, mod)
	if err != nil {
		return nil, err
	}
	var rows []Table6Row
	for i := range intel {
		rows = append(rows, Table6Row{
			Target:   intel[i].Pair.Target.String(),
			IntelEps: intel[i].EpsilonPct,
			AMDEps:   amd[i].EpsilonPct,
		})
	}
	return rows, nil
}

// Headline summarizes the paper's top-line claims from the model.
type Headline struct {
	// NTT speedups averaged over sizes and machines.
	AVX512OverBestBaseline float64 // paper: 38x over state-of-the-art baselines
	MQXOverBestBaseline    float64 // paper: 77x
	MQXOverAVX512          float64 // paper: 2.1x Intel / 3.7x AMD
	// BLAS speedups at length 1024.
	AVX512OverGMPBLAS float64 // paper: 62x
	MQXOverGMPBLAS    float64 // paper: 104x
	// Single-core MQX slowdown vs the RPU ASIC (best size).
	MQXSlowdownVsRPU float64 // paper: as low as 35x
}

// Summary computes the headline numbers.
func Summary(mod *modmath.Modulus128, ratios perfmodel.BaselineRatios) Headline {
	var h Headline
	// NTT: best baseline is the OpenFHE-style backend (generic) per Fig 5.
	var rAVX, rMQX, rGain float64
	for _, mach := range perfmodel.MeasurementMachines {
		fig := Figure5(mach, mod, ratios)
		get := func(name string) []float64 {
			for _, s := range fig.Series {
				if s.Name == name {
					return s.Values
				}
			}
			return nil
		}
		base := get("OpenFHE-backend")
		a := get("avx512")
		m := get("mqx")
		for i := range base {
			rAVX += base[i] / a[i]
			rMQX += base[i] / m[i]
			rGain += a[i] / m[i]
		}
	}
	total := float64(2 * len(roofline.StandardSizes))
	h.AVX512OverBestBaseline = rAVX / total
	h.MQXOverBestBaseline = rMQX / total
	h.MQXOverAVX512 = rGain / total

	// BLAS: GMP baseline, averaged over the four ops and two machines.
	var bAVX, bMQX float64
	for _, mach := range perfmodel.MeasurementMachines {
		fig := Figure4(mach, mod, ratios)
		get := func(name string) []float64 {
			for _, s := range fig.Series {
				if s.Name == name {
					return s.Values
				}
			}
			return nil
		}
		gmp := get("GMP")
		a := get("avx512")
		m := get("mqx")
		for i := range gmp {
			bAVX += gmp[i] / a[i]
			bMQX += gmp[i] / m[i]
		}
	}
	totalB := float64(2 * len(blas.AllOps))
	h.AVX512OverGMPBLAS = bAVX / totalB
	h.MQXOverGMPBLAS = bMQX / totalB

	// Single-core MQX vs RPU: best (smallest) slowdown across RPU sizes.
	rpu := extdata.RPU(mod)
	best := 0.0
	for _, p := range rpu.Points {
		t := perfmodel.ProjectNTT(perfmodel.AMDEPYC9654, isa.LevelMQX, mod, p.N).TimeNs()
		slow := t / p.TimeNs
		if best == 0 || slow < best {
			best = slow
		}
	}
	h.MQXSlowdownVsRPU = best
	return h
}

// FormatSeriesTable renders sizes-by-series data as an aligned text table.
func FormatSeriesTable(title, rowLabel string, rowNames []string, series []NamedSeries) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-14s", rowLabel)
	for _, s := range series {
		fmt.Fprintf(&b, "%16s", s.Name)
	}
	fmt.Fprintln(&b)
	for i, rn := range rowNames {
		fmt.Fprintf(&b, "%-14s", rn)
		for _, s := range series {
			fmt.Fprintf(&b, "%16.3f", s.Values[i])
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}
