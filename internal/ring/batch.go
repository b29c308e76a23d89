package ring

import (
	"math"
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
// most `workers` contiguous index ranges — one channel send per range
// beyond the first, with the caller claiming ranges beside the pool —
// and each range reuses a single scratch set across all of its
// transforms.

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
//
// A range may itself dispatch, so a pool job may submit. The send never
// blocks: with the queue full the job is dropped, which costs nothing
// but parallelism because a job only helps claim its dispatch's ranges
// (see Fanout). The send readies a parked worker into the submitting
// goroutine's own P, not an idle one; Fanout.Run yields after its last
// submit so that worker starts at once (see there).
func submitJob(j fanJob) {
	workerPool.mu.Lock()
	if workerPool.jobs == nil {
		// Room for every job of many concurrent dispatches; past it a
		// job is dropped, not waited for.
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
	select {
	case workerPool.jobs <- j:
	default:
	}
}

// Ranger is the body of a fan-out: RunRange runs indices [start, end).
// It must be safe for concurrent invocation on disjoint ranges, and it
// may dispatch a fan-out of its own on another frame.
type Ranger interface{ RunRange(start, end int) }

// rangeFunc adapts a closure to Ranger, for dispatches that allocate anyway.
type rangeFunc func(start, end int)

func (f rangeFunc) RunRange(start, end int) { f(start, end) }

// Fanout is the one reusable dispatch frame: everything a fan-out needs
// while its ranges run — the body, the range split, the claim word, the
// barrier and the panic slot — lives here, and each pool job is a value
// naming the frame and its dispatch, so no per-call closure exists. A
// caller that keeps its Fanout in scratch it already pools dispatches at
// any width without allocating. The zero value is ready to use; a Fanout
// runs one dispatch at a time.
//
// Ranges are claimed, not assigned: the pool jobs and the caller each
// take the next unclaimed range until none is left, so whichever
// goroutine is free runs the work, and the caller waits only for ranges
// another goroutine has claimed, which are running. A Run nested inside
// a range, at any depth and beside any number of concurrent callers,
// therefore cannot deadlock; with no worker free it runs inline.
type Fanout struct {
	r         Ranger
	n, ranges int
	// claim packs the dispatch epoch (high 32 bits) with the count of
	// ranges still unclaimed (low 32 bits): the next range to claim is
	// ranges minus that count. A job carries its dispatch's epoch, so one
	// dequeued after its dispatch ended claims nothing. (An epoch that
	// wrapped would let a job claim a range of the live dispatch, which
	// it then runs like any job of that dispatch.)
	claim    atomic.Uint64
	wg       sync.WaitGroup      // one count per range, done once it has run
	panicked atomic.Pointer[any] // the first range panic
}

// fanJob is one claimer of a Fanout dispatch: a pool job, sent to the
// pool by value, or the caller itself.
type fanJob struct {
	f     *Fanout
	epoch uint32
}

// run claims and runs the job's dispatch's ranges until none is left.
func (j fanJob) run() {
	for i := j.f.next(j.epoch); i >= 0; i = j.f.next(j.epoch) {
		j.f.runClaimed(i)
	}
}

// next claims the next unclaimed range of dispatch epoch and returns its
// index, or -1 once every range is claimed or the dispatch is over. Only
// a successful claim reads the frame beyond its claim word: the dispatch
// cannot end before the claimed range is done.
func (f *Fanout) next(epoch uint32) int {
	for {
		c := f.claim.Load()
		left := uint32(c)
		if uint32(c>>32) != epoch || left == 0 {
			return -1
		}
		if f.claim.CompareAndSwap(c, c-1) {
			return f.ranges - int(left)
		}
	}
}

// runClaimed runs claimed range i and counts it done however it exits,
// parking a panic in the frame's slot first so the goroutine that ran it
// (a pool worker or the caller) goes on claiming.
func (f *Fanout) runClaimed(i int) {
	defer f.wg.Done()
	defer f.park()
	base, extra := f.n/f.ranges, f.n%f.ranges
	start := i*base + min(i, extra)
	end := start + base
	if i < extra {
		end++
	}
	f.r.RunRange(start, end)
}

// park records the first range panic.
func (f *Fanout) park() {
	if rec := recover(); rec != nil {
		boxed := rec // boxed only on a panic
		f.panicked.CompareAndSwap(nil, &boxed)
	}
}

// Run covers [0, n) with at most `workers` contiguous ranges (0 means
// GOMAXPROCS) and runs r on each: it submits one pool job per range
// beyond the first, then claims and runs ranges itself beside them.
// Width 1 is a plain r.RunRange(0, n). Ranges are claimed in index
// order, so once a range is claimed every range before it is.
//
// The caller yields once after its last submit, before claiming. A
// channel send readies the parked worker into the sender's P as its next
// goroutine, and an idle P may steal that goroutine only after a
// usleep(3), which the kernel's timer slack (50 µs by default on Linux)
// stretches to tens of microseconds; meanwhile the caller would claim
// every range itself. Yielding lets the worker run on the caller's P at
// once, while the caller, now on the global run queue, is picked up by
// an idle P (or, with no idle P, resumes after the worker's ranges; the
// yield returns either way, so GOMAXPROCS=1 cannot livelock).
//
// A panic inside r — on the pool or on the calling goroutine — is parked
// and re-raised on the calling goroutine after every range has run, so a
// recover() around the dispatch observes it, no range still reading the
// caller's buffers outlives the unwind, and the pool workers survive for
// the next batch. Without this a range panic on a pool goroutine would
// kill the whole process, which no serving layer can tolerate.
func (f *Fanout) Run(n, workers int, r Ranger) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers = min(workers, n, math.MaxInt32); workers <= 1 {
		if n > 0 {
			r.RunRange(0, n)
		}
		return
	}
	f.r, f.n, f.ranges = r, n, workers
	f.panicked.Store(nil)
	f.wg.Add(workers)
	epoch := uint32(f.claim.Load()>>32) + 1
	f.claim.Store(uint64(epoch)<<32 | uint64(workers))
	for range workers - 1 {
		submitJob(fanJob{f, epoch})
	}
	runtime.Gosched()
	fanJob{f, epoch}.run()
	f.wg.Wait()
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
