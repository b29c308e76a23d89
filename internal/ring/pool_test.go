package ring

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mqxgo/internal/scratch"
)

// poolStarted reads the worker pool size under its lock (safe under -race).
func poolStarted() int {
	workerPool.mu.Lock()
	defer workerPool.mu.Unlock()
	return workerPool.started
}

// TestWorkerPoolGrowsAfterGOMAXPROCSRaise exercises the re-check-on-submit
// path in submitJob: the pool is sized lazily from GOMAXPROCS, and a
// GOMAXPROCS raise after first use must grow it on the next submit instead
// of capping all future batches at the initial size. Run under -race to
// also certify the growth path's synchronization.
func TestWorkerPoolGrowsAfterGOMAXPROCSRaise(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)

	// Warm the pool at the current size (any prior test may already have).
	var ran atomic.Int64
	count := rangeFunc(func(start, end int) { ran.Add(int64(end - start)) })
	var f Fanout
	f.Run(4, 2, count)
	if got := poolStarted(); got < 1 {
		t.Fatalf("pool did not start any workers after a submit: %d", got)
	}

	// Raise beyond anything this process can have seen and submit again:
	// the pool must grow to the new GOMAXPROCS.
	target := old + 2
	runtime.GOMAXPROCS(target)
	ran.Store(0)
	f.Run(2*target, target, count)
	if got := int(ran.Load()); got != 2*target {
		t.Fatalf("chunks covered %d indices, want %d", got, 2*target)
	}
	if got := poolStarted(); got < target {
		t.Errorf("pool has %d workers after GOMAXPROCS raise to %d; re-check-on-submit did not grow it", got, target)
	}
}

// TestSmallBatchDoesNotOversubscribePool regresses the PR 6 fix: a small
// batch must start at most as many new workers as jobs it submits. Before
// the fix, any submit eagerly spun the pool up to GOMAXPROCS, so a k=2
// tower dispatch (one submitted job) woke a machine's worth of idle
// workers. GOMAXPROCS is raised far above the current pool size first, so
// there is headroom for the old behavior to manifest.
func TestSmallBatchDoesNotOversubscribePool(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	runtime.GOMAXPROCS(old + 8)

	before := poolStarted()
	var ran atomic.Int64
	// Two ranges: one runs on the caller, exactly one job is submitted.
	var f Fanout
	f.Run(2, 2, rangeFunc(func(start, end int) { ran.Add(int64(end - start)) }))
	if got := int(ran.Load()); got != 2 {
		t.Fatalf("chunks covered %d indices, want 2", got)
	}
	if got := poolStarted(); got > before+1 {
		t.Errorf("pool grew from %d to %d workers on a single-job submit; want at most one new worker", before, got)
	}
}

// BenchmarkFanoutSmallBatch measures the fixed dispatch cost of a
// two-range fan-out — the k=2 RNS tower shape the oversubscription fix
// targets — on one reused frame.
func BenchmarkFanoutSmallBatch(b *testing.B) {
	var sink atomic.Int64
	var f Fanout
	body := rangeFunc(func(start, end int) { sink.Add(int64(end - start)) })
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Run(2, 2, body)
	}
}

// spinFor busy-waits for d on the calling goroutine: work of fixed wall
// time that never parks, as a transform does.
func spinFor(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// BenchmarkFanoutBalanced measures how late a pool range starts: each
// dispatch runs two ranges of ~100 µs fixed work after a 50 µs gap of
// caller work (long enough for the pool worker to park), and the
// reported us/dispatch-over-body is the dispatch's wall time minus the
// body's 100 µs, the delay before the later range began plus the join.
func BenchmarkFanoutBalanced(b *testing.B) {
	const body, gap = 100 * time.Microsecond, 50 * time.Microsecond
	var f Fanout
	work := rangeFunc(func(start, end int) { spinFor(body) })
	f.Run(2, 2, work) // start the pool worker
	var over time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spinFor(gap)
		start := time.Now()
		f.Run(2, 2, work)
		over += time.Since(start) - body
	}
	b.ReportMetric(float64(over.Microseconds())/float64(b.N), "us/dispatch-over-body")
}

// TestFanoutReuseCoversEveryIndexOnce runs one frame many times at widths
// 1–5 (and the GOMAXPROCS default) over uneven n: every dispatch must
// visit each index exactly once, whatever the previous dispatch's width.
// The last rounds run with a single P, where the caller's yield must
// return and the pool ranges run with no second P to steal them.
func TestFanoutReuseCoversEveryIndexOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var f Fanout
	hits := make([]atomic.Int32, 64)
	body := rangeFunc(func(start, end int) {
		for i := start; i < end; i++ {
			hits[i].Add(1)
		}
	})
	for round := 0; round < 6; round++ {
		if round == 3 {
			runtime.GOMAXPROCS(1)
		}
		for _, n := range []int{0, 1, 2, 3, 7, 13, 31, 64} {
			for workers := 0; workers <= 5; workers++ {
				for i := range hits {
					hits[i].Store(0)
				}
				f.Run(n, workers, body)
				for i := range hits {
					want := int32(0)
					if i < n {
						want = 1
					}
					if got := hits[i].Load(); got != want {
						t.Fatalf("round %d, n=%d, workers=%d: index %d ran %d times, want %d", round, n, workers, i, got, want)
					}
				}
			}
		}
	}
}

// TestFanoutReusedFrameDoesNotAlloc pins the frame's purpose: a reused
// Fanout dispatches at width 1 and 2 without allocating.
func TestFanoutReusedFrameDoesNotAlloc(t *testing.T) {
	if scratch.Race {
		t.Skip("race instrumentation allocates")
	}
	var sink atomic.Int64
	var f Fanout
	body := rangeFunc(func(start, end int) { sink.Add(int64(end - start)) })
	for _, workers := range []int{1, 2} {
		f.Run(8, workers, body) // start the pool worker
		if got := testing.AllocsPerRun(50, func() { f.Run(8, workers, body) }); got != 0 {
			t.Errorf("width %d: reused Fanout allocates %.1f per run, want 0", workers, got)
		}
	}
}
