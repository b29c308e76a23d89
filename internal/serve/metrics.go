package serve

import (
	"math/bits"
	"sync/atomic"
	"time"

	"mqxgo/internal/faultinject"
	"mqxgo/internal/fhe"
)

// latencyBuckets is the number of log2 histogram buckets: bucket i counts
// observations with ceil(log2(us)) == i, covering 1µs up to ~16s.
const latencyBuckets = 25

// histogram is a lock-free log2 latency histogram. Buckets are powers of
// two in microseconds; quantiles are answered with the upper bound of the
// bucket the rank falls in, which is exact enough for p50/p99 shedding
// decisions and costs one atomic add per observation.
type histogram struct {
	count   atomic.Uint64
	buckets [latencyBuckets]atomic.Uint64
}

func (h *histogram) observe(d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	idx := bits.Len64(uint64(us))
	if idx >= latencyBuckets {
		idx = latencyBuckets - 1
	}
	h.buckets[idx].Add(1)
	h.count.Add(1)
}

// quantileUS returns the upper bound, in microseconds, of the bucket
// containing the q-quantile (0 < q <= 1), or 0 with no observations.
func (h *histogram) quantileUS(q float64) uint64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i := 0; i < latencyBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen >= rank {
			if i == 0 {
				return 1
			}
			return uint64(1) << i
		}
	}
	return uint64(1) << (latencyBuckets - 1)
}

// metrics is the server's counter set. Everything is atomic: handlers
// update counters without touching the registry locks.
type metrics struct {
	admitted  atomic.Uint64 // requests that made it past admission
	shed      atomic.Uint64 // 429s: queue full
	dropped   atomic.Uint64 // queued requests refused because drain started
	deadlines atomic.Uint64 // 504s: request deadline fired
	completed atomic.Uint64 // 2xx evaluation-class requests
	failed4xx atomic.Uint64
	failed5xx atomic.Uint64
	panics    atomic.Uint64 // requests that panicked and were recovered

	perOp map[string]*histogram // fixed key set, created once; values are atomic

	// The JSON transport of evaluation-class requests: reading and
	// decoding a body (every admitted request that gets that far),
	// printing and writing a success response.
	decodeBody, encodeBody histogram
}

// observedOps is every label evalClass can hand observe: the encrypt and
// decrypt routes, and each op /v1/eval accepts.
var observedOps = []string{"encrypt", "decrypt",
	"mul", "square", "add", "modswitch", "rotate", "conjugate", "encode", "decode", "free"}

func newMetrics() *metrics {
	m := &metrics{perOp: make(map[string]*histogram)}
	for _, op := range observedOps {
		m.perOp[op] = &histogram{}
	}
	return m
}

func (m *metrics) observe(op string, d time.Duration) {
	if h, ok := m.perOp[op]; ok {
		h.observe(d)
	}
}

// OpLatency is one operation's latency summary in a metrics snapshot.
type OpLatency struct {
	Count uint64 `json:"count"`
	P50US uint64 `json:"p50_us"`
	P99US uint64 `json:"p99_us"`
}

func (h *histogram) summary() OpLatency {
	return OpLatency{Count: h.count.Load(), P50US: h.quantileUS(0.50), P99US: h.quantileUS(0.99)}
}

// Snapshot is the /v1/metrics payload: admission counters, the two live
// gauges, the process-wide scratch quarantine count from the fhe layer,
// per-op latency summaries, and the transport's decode_body and
// encode_body summaries.
type Snapshot struct {
	Admitted    uint64 `json:"admitted"`
	Shed        uint64 `json:"shed"`
	Dropped     uint64 `json:"dropped_on_drain"`
	Deadlines   uint64 `json:"deadline_exceeded"`
	Completed   uint64 `json:"completed"`
	Failed4xx   uint64 `json:"failed_4xx"`
	Failed5xx   uint64 `json:"failed_5xx"`
	Panics      uint64 `json:"panics_recovered"`
	Quarantined uint64 `json:"scratch_quarantined"`
	QueueDepth  int    `json:"queue_depth"`
	InFlight    int    `json:"in_flight"`
	Draining    bool   `json:"draining"`

	FaultsArmed []string             `json:"faults_armed,omitempty"`
	PerOp       map[string]OpLatency `json:"per_op"`
	Transport   map[string]OpLatency `json:"transport"`
}

func (s *Server) snapshot() Snapshot {
	snap := Snapshot{
		Admitted:    s.m.admitted.Load(),
		Shed:        s.m.shed.Load(),
		Dropped:     s.m.dropped.Load(),
		Deadlines:   s.m.deadlines.Load(),
		Completed:   s.m.completed.Load(),
		Failed4xx:   s.m.failed4xx.Load(),
		Failed5xx:   s.m.failed5xx.Load(),
		Panics:      s.m.panics.Load(),
		Quarantined: fhe.QuarantinedScratch(),
		QueueDepth:  len(s.queueSlots),
		InFlight:    len(s.workSlots),
		Draining:    s.draining.Load(),
		PerOp:       make(map[string]OpLatency, len(s.m.perOp)),
		Transport: map[string]OpLatency{
			"decode_body": s.m.decodeBody.summary(),
			"encode_body": s.m.encodeBody.summary(),
		},
	}
	for op, h := range s.m.perOp {
		snap.PerOp[op] = h.summary()
	}
	if faultinject.Enabled {
		for _, spec := range faultinject.Armed() {
			snap.FaultsArmed = append(snap.FaultsArmed, spec.String())
		}
	}
	return snap
}
