package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the p-quantile of an ascending slice, interpolating
// linearly between the two nearest ranks. Empty input reads 0.
func quantile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	pos := p * float64(len(asc)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return asc[lo] + (asc[hi]-asc[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// quartiles returns the first quartile, median and third quartile.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	return quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)
}

// tailPercents are the tails the harness may report, highest first.
var tailPercents = []int{99, 95, 90, 75}

// supportedTail is the highest of tailPercents that n samples support,
// with at least ten samples beyond it; ok is false when even the lowest
// has fewer.
func supportedTail(n int) (percent int, ok bool) {
	for _, pc := range tailPercents {
		if n*(100-pc) >= 10*100 {
			return pc, true
		}
	}
	return 0, false
}

// tailAtMost is the quantile the harness reports where a metric is named
// for the want-th percentile: that one when n samples support it, else
// the highest supported one below it, else the median.
func tailAtMost(n, want int) float64 {
	if pc, ok := supportedTail(n); ok {
		return float64(min(pc, want)) / 100
	}
	return 0.5
}
