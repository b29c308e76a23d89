package perfmodel

import (
	"time"
)

// The paper's measurement protocol (Section 5.1): report the average of the
// trailing half of the runs, letting caches warm up and the clock settle.
// NTTs use 100 runs / final 50; BLAS ops use 1000 runs / final 500.

// MeasureProtocol runs fn total times and returns the mean duration of the
// final keep runs, in nanoseconds.
func MeasureProtocol(total, keep int, fn func()) float64 {
	if keep > total {
		keep = total
	}
	times := make([]time.Duration, 0, total)
	for i := 0; i < total; i++ {
		start := time.Now()
		fn()
		times = append(times, time.Since(start))
	}
	var sum time.Duration
	for _, d := range times[total-keep:] {
		sum += d
	}
	return float64(sum.Nanoseconds()) / float64(keep)
}

// BaselineRatios holds host-measured slowdown factors of the baseline
// libraries relative to the optimized native scalar implementation. The
// figure generators anchor the "GMP" and "OpenFHE built-in backend" series
// to the modeled scalar tier through these ratios, so every series in a
// chart lives in one machine's time domain while the baseline gaps remain
// real measurements (`go run ./cmd/report -measure` re-measures them).
type BaselineRatios struct {
	GenericOverNative float64 // division-based backend vs Barrett scalar
	BignumOverNative  float64 // math/big backend vs Barrett scalar
}

// Clamp returns ratios no smaller than 1 (a baseline can only be slower
// than the optimized scalar path; guard against measurement noise).
func (r BaselineRatios) Clamp() BaselineRatios {
	if r.GenericOverNative < 1 {
		r.GenericOverNative = 1
	}
	if r.BignumOverNative < 1 {
		r.BignumOverNative = 1
	}
	return r
}
