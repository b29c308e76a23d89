package ntt

import (
	"mqxgo/internal/modmath"
	"mqxgo/internal/ring"
)

// Process-wide plan caching for the compatibility wrappers. The cache
// itself — one sync.Map keyed by (modulus fingerprint, n) — lives in
// internal/ring; this file only supplies the fingerprint tags that keep
// the two wrapper types apart. The 128-bit tag folds in the modulus's
// multiplication algorithm, so a Karatsuba-configured modulus keeps its
// own cache entry.

const (
	tagWrapper128 = 0
	tagWrapper64  = 1
)

// CachedPlan returns the process-wide shared plan for (mod.Q, n), building
// it on first use.
func CachedPlan(mod *modmath.Modulus128, n int) (*Plan, error) {
	fp := ring.Fingerprint{
		QHi: mod.Q.Hi,
		QLo: mod.Q.Lo,
		Tag: tagWrapper128 | uint32(mod.Alg)<<16,
	}
	v, err := ring.CacheLoadOrBuild(fp, n, func() (any, error) { return NewPlan(mod, n) })
	if err != nil {
		return nil, err
	}
	return v.(*Plan), nil
}

// CachedPlan64 returns the process-wide shared 64-bit plan for (mod.Q, n),
// building it on first use.
func CachedPlan64(mod *modmath.Modulus64, n int) (*Plan64, error) {
	fp := ring.Fingerprint{QLo: mod.Q, Tag: tagWrapper64}
	v, err := ring.CacheLoadOrBuild(fp, n, func() (any, error) { return NewPlan64(mod, n) })
	if err != nil {
		return nil, err
	}
	return v.(*Plan64), nil
}

// ResetPlanCaches drops every cached plan, releasing their twiddle tables
// to the garbage collector. Plans already held by callers stay valid.
func ResetPlanCaches() {
	ring.ResetPlanCache()
}
