package main

import (
	"io"
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if xs[0] != 5 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5})
	if q1 != 2 || q2 != 3 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v, want 2 3 4", q1, q2, q3)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
}

// A timing metric is the best round's figure, not a figure of the pooled
// ops: slow rounds must not move it.
func TestBestRound(t *testing.T) {
	fig := func(lat, wall, cpu float64) round {
		return round{ops: 2, wallS: wall, cpuS: cpu, latMS: []float64{lat, lat}}
	}
	rounds := []round{
		fig(10, 1, 0.2), fig(11, 1, 0.2), fig(12, 2, 0.4), fig(90, 10, 2), fig(100, 10, 2),
		{ops: 2, wallS: 1, cpuS: 0.2, latMS: nil}, // every op failed: no figure
	}
	m := metricSet{}
	endToEnd(m, io.Discard, rounds, []float64{3, 1, 2}, 42)
	want := map[string]float64{
		"op_p50_ms":     10,  // lowest of 10 11 12 90 100
		"ops_per_s":     2,   // highest of 2 2 1 0.2 0.2
		"cpu_ms_per_op": 100, // lowest of 100 100 200 1000 1000
		"peak_rss_mb":   42,
		"setup_s":       2, // the median
	}
	for name, v := range want {
		if got := m[name].Value; !near(got, v) {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	if len(m) != len(endToEndMetrics) {
		t.Errorf("endToEnd set %d metrics, the table has %d", len(m), len(endToEndMetrics))
	}
}

// A percentile is reported only with at least ten samples beyond it.
func TestTailSupport(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    int
		ok   bool
		at95 float64
	}{
		{39, 0, false, 0.5},
		{40, 75, true, 0.75},
		{100, 90, true, 0.90},
		{199, 90, true, 0.90},
		{200, 95, true, 0.95},
		{768, 95, true, 0.95},
		{1000, 99, true, 0.95},
	} {
		p, ok := supportedTail(c.n)
		if p != c.p || ok != c.ok {
			t.Errorf("supportedTail(%d) = %v, %v; want %v, %v", c.n, p, ok, c.p, c.ok)
		}
		if got := tailAtMost(c.n, 95); got != c.at95 {
			t.Errorf("tailAtMost(%d, 95) = %v, want %v", c.n, got, c.at95)
		}
	}
}

func TestSpanSelfTimeAndClosure(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, OpID: 0, Layer: "op", StartNS: 0, EndNS: 100},
		{ID: 1, Parent: 0, OpID: 0, Layer: "fhe", Name: "mulct", StartNS: 10, EndNS: 50},
		{ID: 2, Parent: 0, OpID: 0, Layer: "fhe", Name: "rotate", StartNS: 40, EndNS: 70}, // overlaps span 1
		{ID: 3, Parent: 1, OpID: 0, Layer: "rns", Name: "conv", StartNS: 20, EndNS: 30},
		{ID: 4, Parent: 0, OpID: 0, Layer: "fhe", Name: "add", StartNS: 90, EndNS: 120}, // runs past its parent
		{ID: 5, Parent: -1, OpID: 1, Layer: "op", StartNS: 200, EndNS: 300},             // no children
	}
	kids := childrenOf(spans)
	// Children cover [10,70] and [90,100] of span 0: 70 of 100.
	if got := selfTime(spans[0], kids[0]); got != 30 {
		t.Errorf("self time of the op = %d, want 30", got)
	}
	if got := selfTime(spans[1], kids[1]); got != 30 {
		t.Errorf("self time of mulct = %d, want 30", got)
	}
	if got := selfTime(spans[3], kids[3]); got != 10 {
		t.Errorf("self time of a leaf = %d, want its duration 10", got)
	}
	// Two ops of 100 each, 70 covered in all.
	if got := closure(spans, "op"); !near(got, 0.35) {
		t.Errorf("closure = %v, want 0.35", got)
	}
	if got := closure(nil, "op"); got != 0 {
		t.Errorf("closure of no spans = %v, want 0", got)
	}

	m := metricSet{}
	spanMetrics(m, spans)
	if got := m["fhe.spans"].Value; got != 3 {
		t.Errorf("fhe.spans = %v, want 3", got)
	}
	if got := m["fhe.rotate_spans"].Value; got != 1 {
		t.Errorf("fhe.rotate_spans = %v, want 1", got)
	}
	if got := m["fhe.mul_share"].Value; !near(got, 0.2) {
		t.Errorf("fhe.mul_share = %v, want 40/200", got)
	}
	if got := m["serve.spans"].Value; got != 0 {
		t.Errorf("serve.spans = %v, want 0", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin(-1, 0, "op", "x")
	tr.end(id)
	if id != -1 {
		t.Errorf("nil tracer gave span %d", id)
	}
	oc := opCtx{}
	oc.end(oc.begin("fhe", "mulct"))
}

func TestWorseBy(t *testing.T) {
	lower := metricDef{better: "lower"}
	higher := metricDef{better: "higher"}
	if got := worseBy(lower, 10, 11); !near(got, 0.1) {
		t.Errorf("lower-is-better 10 -> 11 is worse by %v, want 0.1", got)
	}
	if got := worseBy(higher, 10, 9); !near(got, 0.1) {
		t.Errorf("higher-is-better 10 -> 9 is worse by %v, want 0.1", got)
	}
	if got := worseBy(higher, 10, 11); got >= 0 {
		t.Errorf("higher-is-better 10 -> 11 is worse by %v, want negative", got)
	}
}
