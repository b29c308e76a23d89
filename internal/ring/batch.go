package ring

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Batched transforms. Real FHE workloads process many independent
// polynomials at once (Section 6, "towards realizing SOL performance");
// BatchForwardInto fans a batch out across cores with no cross-transform
// data dependencies, the parallelism regime the paper's speed-of-light
// model assumes.
//
// Dispatch goes through a persistent, lazily-started worker pool shared
// by every plan and every RNS tower step: a Fanout splits [0, n) into at
// most `workers` contiguous index ranges — one channel send per range,
// with the caller running the final range itself — and each range reuses
// a single scratch set across all of its transforms.

// workerPool is the process-wide transform pool. Workers are started
// lazily and live for the life of the process; GOMAXPROCS goroutines are
// enough because transform chunks are pure CPU work. The count is
// re-checked on every submit so a GOMAXPROCS raise after first use grows
// the pool instead of capping all future batches at the initial size.
var workerPool struct {
	mu      sync.Mutex
	started int
	jobs    chan fanJob
}

// submitJob hands j to the pool, starting workers as needed. Each submit
// starts AT MOST ONE new worker: a submit enqueues exactly one job, so one
// extra goroutine is all that's needed to keep the batch fully parallel (a
// w-range fan-out makes w-1 submits and therefore guarantees w-1 pool
// workers), while a small batch — k=2 tower dispatch — no longer wakes
// GOMAXPROCS idle workers it can never feed. The GOMAXPROCS cap is still
// re-checked on every submit, so a raise after first use grows the pool
// on demand instead of capping all future batches at the initial size.
// Jobs must not themselves submit to the pool (ranges never do), so the
// pool cannot deadlock. The send readies a parked worker into the
// submitting goroutine's own P, not an idle one; Fanout.Run yields after
// its last submit so that worker starts at once (see there).
func submitJob(j fanJob) {
	workerPool.mu.Lock()
	if workerPool.jobs == nil {
		workerPool.jobs = make(chan fanJob, 256)
	}
	if workerPool.started < runtime.GOMAXPROCS(0) {
		go func() {
			for j := range workerPool.jobs {
				j.run()
			}
		}()
		workerPool.started++
	}
	workerPool.mu.Unlock()
	workerPool.jobs <- j
}

// Ranger is the body of a fan-out: RunRange runs indices [start, end).
// It must be safe for concurrent invocation on disjoint ranges.
type Ranger interface{ RunRange(start, end int) }

// rangeFunc adapts a closure to Ranger, for dispatches that allocate anyway.
type rangeFunc func(start, end int)

func (f rangeFunc) RunRange(start, end int) { f(start, end) }

// Fanout is the one reusable dispatch frame: everything a fan-out needs
// while its ranges run — the body, the barrier and the panic slot —
// lives here, and each pool job is a value naming the frame and its
// range, so no per-call closure exists. A caller that keeps its Fanout in
// scratch it already pools dispatches at any width without allocating.
// The zero value is ready to use; a Fanout runs one dispatch at a time.
type Fanout struct {
	r        Ranger
	wg       sync.WaitGroup
	panicked atomic.Pointer[any] // the first pool-range panic
}

// fanJob is one pool range of a Fanout, sent to the pool by value.
type fanJob struct {
	f          *Fanout
	start, end int
}

// run executes the job's range on a pool worker, parking a panic in the
// frame's slot so the worker survives.
func (j fanJob) run() {
	defer j.f.wg.Done()
	defer func() {
		if rec := recover(); rec != nil {
			boxed := rec // boxed only on a panic
			j.f.panicked.CompareAndSwap(nil, &boxed)
		}
	}()
	j.f.r.RunRange(j.start, j.end)
}

// Run covers [0, n) with at most `workers` contiguous ranges (0 means
// GOMAXPROCS) and runs r on each, the last on the calling goroutine and
// the rest on the persistent pool. Width 1 is a plain r.RunRange(0, n).
//
// The caller yields once after its last submit, before running its own
// range. A channel send readies the parked worker into the sender's P as
// its next goroutine, and an idle P may steal that goroutine only after
// a usleep(3), which the kernel's timer slack (50 µs by default on
// Linux) stretches to tens of microseconds; meanwhile the caller would
// run its own range and the pool range would start only when that
// steal lands. Yielding lets the worker run on the caller's P at once,
// while the caller, now on the global run queue, is picked up by an
// idle P (or, with no idle P, resumes after the worker's range; the
// yield returns either way, so GOMAXPROCS=1 cannot livelock).
//
// A panic inside r — on the pool or on the calling goroutine — is
// re-raised on the calling goroutine after every other range has
// finished, so a recover() around the dispatch observes it and the pool
// workers survive for the next batch. Without this a range panic on a
// pool goroutine would kill the whole process, which no serving layer
// can tolerate.
func (f *Fanout) Run(n, workers int, r Ranger) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers = min(workers, n); workers <= 1 {
		if n > 0 {
			r.RunRange(0, n)
		}
		return
	}
	f.r = r
	f.panicked.Store(nil)
	base, rem := n/workers, n%workers
	start := 0
	for w := range workers - 1 {
		j := fanJob{f, start, start + base}
		if w < rem {
			j.end++
		}
		start = j.end
		f.wg.Add(1)
		submitJob(j)
	}
	runtime.Gosched()
	// Run the caller's own range under a deferred Wait so that even if it
	// panics, the pool ranges finish before the stack unwinds — they read
	// the caller's buffers.
	func() {
		defer f.wg.Wait()
		r.RunRange(start, n)
	}()
	if p := f.panicked.Load(); p != nil {
		panic(*p)
	}
}

// BatchForwardInto runs the forward transform of every input, in
// parallel across at most workers ranges (0 means GOMAXPROCS): dst[i]
// receives the transform of inputs[i]; inputs are not modified. Beyond
// one dispatch frame per call and one scratch checkout per range it
// allocates nothing.
func (p *Plan[T, R]) BatchForwardInto(dst, inputs [][]T, workers int) {
	p.checkBatch(dst, inputs)
	var f Fanout
	f.Run(len(inputs), workers, rangeFunc(func(start, end int) {
		sc := p.scratch.Get()
		for i := start; i < end; i++ {
			p.forwardStages(dst[i], inputs[i], sc)
		}
		p.scratch.Put(sc)
	}))
}

// AllocBatch allocates count rows of length n in one backing array (one
// allocation, contiguous for the sequential consumer). Note the lifetime
// consequence: retaining any single returned row keeps the whole backing
// array live.
func AllocBatch[T any](n, count int) [][]T {
	flat := make([]T, n*count)
	out := make([][]T, count)
	for i := range out {
		out[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
	return out
}

// checkBatch validates every row length before parallel dispatch, so a
// malformed batch panics deterministically on the calling goroutine —
// where a serving layer's recover can see it — rather than inside a pool
// worker mid-flight.
func (p *Plan[T, R]) checkBatch(dst, inputs [][]T) {
	if len(dst) != len(inputs) {
		panic("ring: batch destination count does not match input count")
	}
	for i := range dst {
		p.checkLen(len(dst[i]))
		p.checkLen(len(inputs[i]))
	}
}
