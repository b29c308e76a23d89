package ring

import (
	"runtime"
	"sync"
)

// Batched transforms. Real FHE workloads process many independent
// polynomials at once (Section 6, "towards realizing SOL performance");
// BatchForwardInto fans a batch out across cores with no cross-transform
// data dependencies, the parallelism regime the paper's speed-of-light
// model assumes.
//
// Dispatch goes through a persistent, lazily-started worker pool shared
// by every plan (and by RNS tower dispatch via ParallelChunks): a batch
// is split into at most `workers` contiguous index ranges — one channel
// send per range, with the caller running the final range itself — and
// each range reuses a single scratch set across all of its transforms.

// workerPool is the process-wide transform pool. Workers are started
// lazily and live for the life of the process; GOMAXPROCS goroutines are
// enough because transform chunks are pure CPU work. The count is
// re-checked on every submit so a GOMAXPROCS raise after first use grows
// the pool instead of capping all future batches at the initial size.
var workerPool struct {
	mu      sync.Mutex
	started int
	jobs    chan func()
}

// submitJob hands f to the pool, starting workers as needed. Each submit
// starts AT MOST ONE new worker: a submit enqueues exactly one job, so one
// extra goroutine is all that's needed to keep the batch fully parallel (a
// w-chunk batch makes w-1 submits and therefore guarantees w-1 pool
// workers), while a small batch — k=2 tower dispatch — no longer wakes
// GOMAXPROCS idle workers it can never feed. The GOMAXPROCS cap is still
// re-checked on every submit, so a raise after first use grows the pool
// on demand instead of capping all future batches at the initial size.
// Jobs must not themselves submit to the pool (chunks never do), so the
// pool cannot deadlock.
func submitJob(f func()) {
	workerPool.mu.Lock()
	if workerPool.jobs == nil {
		workerPool.jobs = make(chan func(), 256)
	}
	if workerPool.started < runtime.GOMAXPROCS(0) {
		go func() {
			for job := range workerPool.jobs {
				job()
			}
		}()
		workerPool.started++
	}
	workerPool.mu.Unlock()
	workerPool.jobs <- f
}

// ParallelChunks covers [0, n) with at most `workers` contiguous ranges
// (0 means GOMAXPROCS) and runs chunk on each, the last on the calling
// goroutine and the rest on the persistent pool. chunk must be safe for
// concurrent invocation on disjoint ranges. This is the batch dispatch
// primitive shared by Plan batches and RNS tower fan-out.
//
// A panic inside chunk — on the pool or on the calling goroutine — is
// re-raised on the calling goroutine after every other chunk has finished,
// so a recover() around the dispatch observes it and the pool workers
// survive for the next batch. Without this a chunk panic on a pool
// goroutine would kill the whole process, which no serving layer can
// tolerate.
func ParallelChunks(n, workers int, chunk func(start, end int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		chunk(0, n)
		return
	}
	var (
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked any
		hasPanic bool
	)
	base, rem := n/workers, n%workers
	start := 0
	callerStart, callerEnd := 0, 0
	for w := 0; w < workers; w++ {
		size := base
		if w < rem {
			size++
		}
		s, e := start, start+size
		start = e
		if w == workers-1 {
			callerStart, callerEnd = s, e
			break
		}
		wg.Add(1)
		submitJob(func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if !hasPanic {
						hasPanic, panicked = true, r
					}
					panicMu.Unlock()
				}
			}()
			chunk(s, e)
		})
	}
	// Run the caller's own range under a deferred Wait so that even if it
	// panics, the pool chunks finish before the stack unwinds — their
	// closures reference the caller's buffers.
	func() {
		defer wg.Wait()
		chunk(callerStart, callerEnd)
	}()
	if hasPanic {
		panic(panicked)
	}
}

// BatchForwardInto runs the forward transform of every input, in
// parallel across at most workers chunks (0 means GOMAXPROCS): dst[i]
// receives the transform of inputs[i]; inputs are not modified. Beyond
// the fixed dispatch cost (one closure and one scratch checkout per
// chunk) it allocates nothing.
func (p *Plan[T, R]) BatchForwardInto(dst, inputs [][]T, workers int) {
	p.checkBatch(dst, inputs)
	ParallelChunks(len(inputs), workers, func(start, end int) {
		sc := p.getScratch()
		for i := start; i < end; i++ {
			p.forwardStages(dst[i], inputs[i], sc)
		}
		p.putScratch(sc)
	})
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
