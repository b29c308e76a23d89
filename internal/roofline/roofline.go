// Package roofline implements the paper's speed-of-light (SOL) performance
// model (Section 6, Eq. 13): scaling a measured (here: modeled) single-core
// runtime to a whole server CPU by core count and frequency,
//
//	t_sol = t_m * (c1/c2) * (f_m/f_max),
//
// and assembling the Figure 1 / Figure 7 comparisons against the external
// ASIC, GPU and multi-core-library baselines (internal/extdata).
package roofline

import (
	"math"

	"mqxgo/internal/isa"
	"mqxgo/internal/kernels"
	"mqxgo/internal/modmath"
	"mqxgo/internal/perfmodel"
)

// SOL applies Eq. 13: tm is the single-core runtime measured at freq
// measGHz with measCores=1 cores, scaled to a target with cores at its
// all-core boost.
func SOL(tmNs float64, measCores int, measGHz float64, target *perfmodel.Machine) float64 {
	return tmNs * float64(measCores) / float64(target.Cores) * measGHz / target.BoostAllGHz
}

// Point is one (size, runtime) sample of a performance series.
type Point struct {
	N      int
	TimeNs float64
}

// Series is a named performance curve over NTT sizes.
type Series struct {
	Name   string
	Points []Point
}

// At returns the runtime at size n and whether the series has that size.
func (s Series) At(n int) (float64, bool) {
	for _, p := range s.Points {
		if p.N == n {
			return p.TimeNs, true
		}
	}
	return 0, false
}

// StandardSizes are the NTT sizes of the paper's evaluation (2^10..2^17).
var StandardSizes = []int{1 << 10, 1 << 11, 1 << 12, 1 << 13, 1 << 14, 1 << 15, 1 << 16, 1 << 17}

// SingleCoreSeries models the single-core NTT runtime of a level across
// sizes on a measurement machine.
func SingleCoreSeries(mach *perfmodel.Machine, level isa.Level, mod *modmath.Modulus128, sizes []int) Series {
	body := perfmodel.ButterflyBody(level, mod, kernels.Schoolbook)
	k := perfmodel.NewKernelModel(mach, body)
	s := Series{Name: level.String() + " (1 core, " + mach.Name + ")"}
	for _, n := range sizes {
		s.Points = append(s.Points, Point{N: n, TimeNs: perfmodel.NewNTTModel(k, n).TimeNs()})
	}
	return s
}

// SOLSeries models the speed-of-light curve: the single-core MQX runtime on
// the measurement machine scaled by Eq. 13 to the SOL target.
func SOLSeries(meas *perfmodel.Machine, target *perfmodel.Machine, level isa.Level, mod *modmath.Modulus128, sizes []int) Series {
	single := SingleCoreSeries(meas, level, mod, sizes)
	s := Series{Name: level.String() + "-SOL (" + target.Name + ")"}
	for _, p := range single.Points {
		s.Points = append(s.Points, Point{N: p.N, TimeNs: SOL(p.TimeNs, 1, meas.MaxGHz, target)})
	}
	return s
}

// GeomeanRatio returns the geometric mean of a.Time/b.Time over the sizes
// both series share (>1 means a is slower).
func GeomeanRatio(a, b Series) float64 {
	logSum, n := 0.0, 0
	for _, p := range a.Points {
		if tb, ok := b.At(p.N); ok && tb > 0 && p.TimeNs > 0 {
			logSum += math.Log(p.TimeNs / tb)
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return math.Exp(logSum / float64(n))
}
