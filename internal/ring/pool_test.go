package ring

import (
	"fmt"
	"runtime"
	"sync"
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
// return and the pool ranges run with no second P to steal them. Rounds
// 2 and 5 start with every pool worker held busy, so each dispatch's
// jobs are still queued when the frame is dispatched again; halfway
// through the round the pool is released and those stale jobs drain
// while later dispatches run.
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
		release := func() {}
		if round%3 == 2 {
			release = holdPool(t)
		}
		for _, n := range []int{0, 1, 2, 3, 7, 13, 31, 64} {
			if n == 13 {
				release()
			}
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

// holdPool occupies every pool worker with a range that blocks until
// the returned release is called, so jobs submitted meanwhile queue
// behind a busy pool. It returns once every worker is held. Its own
// dispatch submits one job per worker the pool has or may grow to.
func holdPool(t *testing.T) (release func()) {
	t.Helper()
	workers := max(poolStarted(), runtime.GOMAXPROCS(0))
	gate, done := make(chan struct{}), make(chan struct{})
	held := make(chan struct{}, workers+1) // one per range, never blocks
	go func() {
		defer close(done)
		var f Fanout
		f.Run(workers+1, workers+1, rangeFunc(func(start, end int) {
			held <- struct{}{}
			<-gate
		}))
	}()
	timeout := time.After(10 * time.Second)
	for i := range workers + 1 {
		select {
		case <-held:
		case <-timeout:
			close(gate)
			t.Fatalf("held %d of %d ranges: the pool did not take every job", i, workers+1)
		}
	}
	return func() {
		close(gate)
		<-done
	}
}

// TestFanoutNestedDoesNotDeadlock runs dispatches inside dispatches: 1–4
// concurrent outer callers each run a width-(2+c) Run over 7 indices, and
// every index runs an inner width-2 Run on a frame of its own, at
// GOMAXPROCS 1, 2 and 4. Every index at both depths must run exactly
// once. A panic raised in one inner range must reach its outer caller,
// and the pool must still serve the next dispatch: a two-range
// rendezvous that only completes if a pool worker runs one range while
// the caller runs the other. A deadlock fails the test at its deadline
// instead of hanging it.
func TestFanoutNestedDoesNotDeadlock(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const outerN, innerN = 7, 2
	errs := make(chan string, 64)
	failf := func(format string, args ...any) {
		select {
		case errs <- fmt.Sprintf(format, args...):
		default:
		}
	}
	// nested runs callers concurrent outer dispatches; with boom set,
	// caller 0's inner range 1 of outer index 3 panics, and that caller
	// must recover the panic instead of checking coverage.
	nested := func(callers int, boom bool) {
		var wg sync.WaitGroup
		for c := range callers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var hits [outerN][innerN]atomic.Int32
				var inner [outerN]Fanout
				var outer Fanout
				rec := func() (r any) {
					defer func() { r = recover() }()
					outer.Run(outerN, 2+c, rangeFunc(func(start, end int) {
						for i := start; i < end; i++ {
							inner[i].Run(innerN, 2, rangeFunc(func(s, e int) {
								for j := s; j < e; j++ {
									if boom && c == 0 && i == 3 && j == 1 {
										panic("inner boom")
									}
									hits[i][j].Add(1)
								}
							}))
						}
					}))
					return nil
				}()
				switch {
				case boom && c == 0:
					if rec != "inner boom" {
						failf("caller 0 recovered %v, want \"inner boom\"", rec)
					}
					return
				case rec != nil:
					failf("caller %d recovered %v, want no panic", c, rec)
					return
				}
				for i := range hits {
					for j := range hits[i] {
						if got := hits[i][j].Load(); got != 1 {
							failf("caller %d: index (%d, %d) ran %d times, want 1", c, i, j, got)
						}
					}
				}
			}()
		}
		wg.Wait()
	}
	// rendezvous completes only if two goroutines run its two ranges.
	rendezvous := func() {
		var f Fanout
		var arrived atomic.Int32
		f.Run(2, 2, rangeFunc(func(start, end int) {
			arrived.Add(1)
			for deadline := time.Now().Add(10 * time.Second); arrived.Load() < 2; runtime.Gosched() {
				if time.Now().After(deadline) {
					failf("rendezvous: no pool worker ran the second range")
					return
				}
			}
		}))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			for callers := 1; callers <= 4; callers++ {
				nested(callers, false)
			}
			nested(3, true)
			rendezvous()
			nested(2, false)
		}
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("nested dispatch did not finish within 60 s: deadlock")
	}
	close(errs)
	for e := range errs {
		t.Error(e)
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
