// Package serve is the hardened FHE evaluation service: a long-lived
// process wrapping a shared fhe.BackendScheme behind an HTTP/JSON API
// with the failure-handling a real deployment needs and a library bench
// harness never exercises.
//
//   - Admission control: every request body is capped at a size derived
//     from the scheme's N (413 past it), and a bounded queue sits in
//     front of a bounded worker pool. At capacity the server sheds load
//     with 429 + Retry-After instead of letting latency collapse.
//   - Deadlines: every evaluation runs under a context deadline threaded
//     through the backend's tower-phase boundaries; an expired request
//     aborts mid-pipeline with 504, never a partial ciphertext.
//   - Panic recovery: a panicking evaluation returns 500, and the fhe
//     layer quarantines the pooled scratch the panic unwound through
//     rather than recycling possibly-torn state into the next request.
//   - Noise guardrails: the server tracks a conservative noise bound per
//     ciphertext and refuses (422) evaluations whose predicted budget
//     would land below the configured floor — refusing early instead of
//     returning garbage.
//   - Graceful drain: shutdown stops admitting, completes in-flight
//     work, and reports what was dropped from the queue.
package serve

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"mqxgo/internal/fhe"
)

// Config sizes the server. Zero values take the listed defaults.
type Config struct {
	// Scheme is the shared evaluation scheme; required.
	Scheme *fhe.BackendScheme
	// Workers bounds concurrent evaluations (default 2).
	Workers int
	// QueueDepth bounds requests waiting for a worker before the server
	// sheds with 429 (default 8).
	QueueDepth int
	// RequestTimeout caps every evaluation-class request; clients may ask
	// for less via timeout_ms, never more (default 2s).
	RequestTimeout time.Duration
	// BudgetFloorBits is the guardrail floor: an evaluation whose
	// predicted post-op budget falls below it is refused (default 2).
	BudgetFloorBits int
}

// maxHandles bounds each tenant's ciphertext store.
const maxHandles = 4096

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 2 * time.Second
	}
	if c.BudgetFloorBits <= 0 {
		c.BudgetFloorBits = 2
	}
	return c
}

// Server is the evaluation service. Create with New, mount Handler on an
// http.Server, stop with Drain.
type Server struct {
	cfg Config
	reg registry
	m   *metrics

	// predCache memoizes PredictMulNoiseBits by (level, operand noise):
	// the underlying bound model computes in big.Int and would otherwise
	// put an allocation on every multiply's admission path. The key space
	// is tiny (levels × reachable noise bounds), so the cache converges
	// after the first request at each depth.
	predMu    sync.RWMutex
	predCache map[predKey]int

	// queueSlots holds requests waiting for a worker; full means shed.
	queueSlots chan struct{}
	// workSlots holds running evaluations; capacity is the worker count.
	workSlots chan struct{}

	draining atomic.Bool
	drainCh  chan struct{} // closed when drain starts; wakes queued waiters
}

// New builds a Server around a shared scheme.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	if cfg.Scheme == nil {
		panic("serve: Config.Scheme is required")
	}
	return &Server{
		cfg:        cfg,
		m:          newMetrics(),
		predCache:  make(map[predKey]int),
		queueSlots: make(chan struct{}, cfg.QueueDepth),
		workSlots:  make(chan struct{}, cfg.Workers),
		drainCh:    make(chan struct{}),
	}
}

type predKey struct{ level, noise int }

// predictMul is the memoized PredictMulNoiseBits.
func (s *Server) predictMul(level, opNoise int) int {
	k := predKey{level, opNoise}
	s.predMu.RLock()
	v, hit := s.predCache[k]
	s.predMu.RUnlock()
	if !hit {
		v = s.cfg.Scheme.PredictMulNoiseBits(level, opNoise)
		s.predMu.Lock()
		s.predCache[k] = v
		s.predMu.Unlock()
	}
	return v
}

// admit runs the admission path for an evaluation-class request: refuse
// when draining, shed when the queue is full, then wait — bounded by the
// request deadline and by drain — for a worker slot. On success the
// returned release func MUST be called when the evaluation finishes.
func (s *Server) admit(ctx context.Context) (release func(), apiErr *apiError) {
	if s.draining.Load() {
		return nil, errf(http.StatusServiceUnavailable, CodeDraining, "server is draining")
	}
	select {
	case s.queueSlots <- struct{}{}:
	default:
		s.m.shed.Add(1)
		return nil, errf(http.StatusTooManyRequests, CodeQueueFull,
			"admission queue full (%d waiting, %d in flight)", len(s.queueSlots), len(s.workSlots))
	}
	select {
	case s.workSlots <- struct{}{}:
		<-s.queueSlots
		s.m.admitted.Add(1)
		return func() { <-s.workSlots }, nil
	case <-ctx.Done():
		<-s.queueSlots
		s.m.deadlines.Add(1)
		return nil, errf(http.StatusGatewayTimeout, CodeDeadline, "deadline expired while queued: %v", ctx.Err())
	case <-s.drainCh:
		<-s.queueSlots
		s.m.dropped.Add(1)
		return nil, errf(http.StatusServiceUnavailable, CodeDraining, "dropped from queue: server is draining")
	}
}

// DrainReport summarizes a graceful shutdown.
type DrainReport struct {
	// Dropped counts queued requests refused because drain started
	// before a worker picked them up (cumulative, includes any earlier
	// drain attempts).
	Dropped uint64 `json:"dropped"`
	// Completed counts evaluation-class requests that finished 2xx over
	// the server's lifetime.
	Completed uint64 `json:"completed"`
	// Clean reports whether every in-flight evaluation finished before
	// ctx expired.
	Clean bool `json:"clean"`
}

// Drain gracefully stops the server: new work is refused with 503,
// queued-but-unstarted requests are dropped (and counted), and in-flight
// evaluations run to completion, bounded by ctx. Safe to call more than
// once. The HTTP listener itself is the caller's to close — typically
// http.Server.Shutdown after Drain returns.
func (s *Server) Drain(ctx context.Context) DrainReport {
	if s.draining.CompareAndSwap(false, true) {
		close(s.drainCh)
	}
	// When every worker slot can be held at once, nothing is in flight.
	clean := true
	acquired := 0
	for clean && acquired < cap(s.workSlots) {
		select {
		case s.workSlots <- struct{}{}:
			acquired++
		case <-ctx.Done():
			clean = false
		}
	}
	for i := 0; i < acquired; i++ {
		<-s.workSlots
	}
	return DrainReport{
		Dropped:   s.m.dropped.Load(),
		Completed: s.m.completed.Load(),
		Clean:     clean,
	}
}
