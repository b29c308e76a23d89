package ring

import "sync"

// The process-wide plan cache. Building a plan costs O(N log N) modular
// multiplications for the stage tables; entry points that each construct
// their own context (cmd/*, examples/*, benchmarks) were rebuilding
// identical tables. Plans are immutable after construction and safe for
// concurrent use, so one instance per (fingerprint, n) serves the whole
// process. The fingerprint's tag, chosen by the caller, separates plan
// types and arithmetic configurations at equal q.
//
// Entries are retained for the life of the process — the expected
// workload reuses a handful of (q, n) pairs, and twiddle tables for those
// must stay resident for the hot path anyway. Long-running processes that
// churn through many distinct parameter sets can call ResetPlanCache
// between phases.

type planKey struct {
	fp Fingerprint
	n  int
}

var planCache sync.Map // planKey -> cached plan (or plan handle)

// CacheLoadOrBuild is the cache primitive: it returns the cached value
// for (fp, n), calling build exactly when no entry exists yet.
// internal/ntt uses it with its own fingerprint tags to cache its plans
// without duplicating the cache machinery. Concurrent first-use may build
// twice; one winner is kept.
func CacheLoadOrBuild(fp Fingerprint, n int, build func() (any, error)) (any, error) {
	k := planKey{fp: fp, n: n}
	if v, ok := planCache.Load(k); ok {
		return v, nil
	}
	v, err := build()
	if err != nil {
		return nil, err
	}
	got, _ := planCache.LoadOrStore(k, v)
	return got, nil
}

// ResetPlanCache drops every cached plan (and plan handle), releasing their
// twiddle tables to the garbage collector. Plans already held by callers
// stay valid.
func ResetPlanCache() {
	planCache.Clear()
}
