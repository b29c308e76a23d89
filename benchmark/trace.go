package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one op
// share OpID; Parent is the span that caused this one, -1 at the root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	OpID    int    `json:"op_id"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run pays one nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) begin(parent, op int, layer, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, OpID: op, Layer: layer, Name: name, StartNS: now})
	t.mu.Unlock()
	return id
}

// beginUnder starts a span in another layer for the same call as span
// parent: it takes the parent's op and name. An unknown parent records
// nothing.
func (t *tracer) beginUnder(parent int, layer string) int {
	t.mu.Lock()
	known := parent >= 0 && parent < len(t.spans)
	var p span
	if known {
		p = t.spans[parent]
	}
	t.mu.Unlock()
	if !known {
		return -1
	}
	return t.begin(parent, p.OpID, layer, p.Name)
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNS = now
	t.mu.Unlock()
}

// opCtx is what a workload hands to every call it makes into the stack:
// where to record the span and which span and op caused it.
type opCtx struct {
	tr     *tracer
	op     int
	parent int
}

func (oc opCtx) begin(layer, name string) int { return oc.tr.begin(oc.parent, oc.op, layer, name) }
func (oc opCtx) end(id int)                   { oc.tr.end(id) }

// under returns the context for calls caused by span id.
func (oc opCtx) under(id int) opCtx { return opCtx{tr: oc.tr, op: oc.op, parent: id} }

// writeJSONL writes one span per line.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// childrenOf indexes spans by parent.
func childrenOf(spans []span) map[int][]span {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	return kids
}

// covered is the length of the part of [s.StartNS, s.EndNS] that the
// child spans cover, counting an interval two children share once.
func covered(s span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.StartNS, s.StartNS), min(k.EndNS, s.EndNS)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	end = s.StartNS
	for _, v := range iv {
		if v[1] <= end {
			continue
		}
		total += v[1] - max(v[0], end)
		end = v[1]
	}
	return total
}

// selfTime is a span's duration minus what its children cover.
func selfTime(s span, kids []span) int64 { return s.dur() - covered(s, kids) }

// closure is the share of the root spans' time that their direct children
// cover: 1 means the children account for the whole op.
func closure(spans []span, rootLayer string) float64 {
	kids := childrenOf(spans)
	var cov, total int64
	for _, s := range spans {
		if s.Layer == rootLayer && s.Parent < 0 {
			cov += covered(s, kids[s.ID])
			total += s.dur()
		}
	}
	if total == 0 {
		return 0
	}
	return float64(cov) / float64(total)
}
