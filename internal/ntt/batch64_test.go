package ntt

import (
	"math/rand"
	"runtime"
	"testing"

	"mqxgo/internal/ring"
	"mqxgo/internal/scratch"
)

// 64-bit batch regression tests on Plan64.Generic(), mirroring the
// 128-bit suite in engine_test.go so the 64-bit path is exercised under
// -race too (the scratch.Race gate in race_on_test.go / race_off_test.go
// skips only the allocation assertions, which race instrumentation breaks
// by design).

func randPoly64(r *rand.Rand, q uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.Uint64() % q
	}
	return out
}

func TestBatch64MatchesSequentialAcrossWorkerCounts(t *testing.T) {
	const n, batch = 1 << 7, 37 // deliberately not a multiple of the worker counts
	p := testPlan64(t, n)
	r := rand.New(rand.NewSource(71))
	inputs := make([][]uint64, batch)
	for i := range inputs {
		inputs[i] = randPoly64(r, p.R.M.Q, n)
	}
	wantF := make([][]uint64, batch)
	for i := range inputs {
		wantF[i] = forward(p, inputs[i])
	}
	for _, workers := range []int{0, 1, 3, runtime.GOMAXPROCS(0)} {
		gotF := ring.AllocBatch[uint64](n, batch)
		p.BatchForwardInto(gotF, inputs, workers)
		for i := range wantF {
			for j := range wantF[i] {
				if gotF[i][j] != wantF[i][j] {
					t.Fatalf("workers=%d: BatchForwardInto[%d][%d] mismatch", workers, i, j)
				}
			}
		}
	}
}

func TestBatch64IntoMatchesBatch(t *testing.T) {
	const n, batch = 1 << 6, 9
	p := testPlan64(t, n)
	r := rand.New(rand.NewSource(72))
	inputs := make([][]uint64, batch)
	dsts := make([][]uint64, batch)
	for i := range inputs {
		inputs[i] = randPoly64(r, p.R.M.Q, n)
		dsts[i] = make([]uint64, n)
	}
	p.BatchForwardInto(dsts, inputs, 3)
	for i := range inputs {
		want := forward(p, inputs[i])
		for j := range want {
			if dsts[i][j] != want[j] {
				t.Fatalf("BatchForwardInto[%d][%d] mismatch", i, j)
			}
		}
	}
}

// TestBatch64IntoAllocsBounded mirrors TestBatchIntoAllocsBounded: the
// 64-bit batch dispatch must stay at a handful of fixed allocations per
// call, not O(batch) buffers.
func TestBatch64IntoAllocsBounded(t *testing.T) {
	if scratch.Race {
		t.Skip("race instrumentation allocates")
	}
	const n, batch = 1 << 8, 32
	p := testPlan64(t, n)
	r := rand.New(rand.NewSource(73))
	inputs := make([][]uint64, batch)
	dsts := make([][]uint64, batch)
	for i := range inputs {
		inputs[i] = randPoly64(r, p.R.M.Q, n)
		dsts[i] = make([]uint64, n)
	}
	workers := runtime.GOMAXPROCS(0)
	p.BatchForwardInto(dsts, inputs, workers) // warm pool + scratch
	a := testing.AllocsPerRun(10, func() { p.BatchForwardInto(dsts, inputs, workers) })
	if limit := float64(4*workers + 8); a > limit {
		t.Errorf("Plan64.Generic().BatchForwardInto allocates %.1f per run, want <= %.0f", a, limit)
	}
}
