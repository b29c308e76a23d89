package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"strings"
	"testing"
)

func smokeConfig(t *testing.T, info workloadInfo, trace bool) runConfig {
	return runConfig{info: info, sh: smokeShape, seed: 7, seconds: 0, trace: trace, ops: 2,
		probes: smokeProbes, outDir: t.TempDir(), log: new(bytes.Buffer)}
}

// TestSmoke runs every workload untraced and traced at n = 256, with
// serve's handler in this process, so that go test ./... keeps the
// benchmark compiling, passing its own correctness gate and printing
// every metric BENCHMARK.json lists.
func TestSmoke(t *testing.T) {
	for _, info := range workloads {
		t.Run(info.name, func(t *testing.T) {
			cfg := smokeConfig(t, info, false)
			res, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("untraced: %+v\n%s", res, cfg.log)
			}
			for _, d := range endToEndMetrics {
				if v, ok := res.Metrics[d.name]; !ok || v.Unit != d.unit || v.Value <= 0 {
					t.Errorf("untraced %s = %+v (present %v), want a positive value in %s", d.name, v, ok, d.unit)
				}
			}
			if len(res.Metrics) != len(endToEndMetrics) {
				t.Errorf("untraced run printed %d metrics, want the %d end-to-end ones", len(res.Metrics), len(endToEndMetrics))
			}

			cfg = smokeConfig(t, info, true)
			if res, err = run(cfg); err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("traced: %+v\n%s", res, cfg.log)
			}
			for _, d := range perLayerMetrics {
				if v, ok := res.Metrics[d.name]; !ok || v.Unit != d.unit {
					t.Errorf("traced %s = %+v (present %v), want unit %s", d.name, v, ok, d.unit)
				}
			}
			if len(res.Metrics) != len(perLayerMetrics) {
				t.Errorf("traced run printed %d metrics, want the %d per-layer ones", len(res.Metrics), len(perLayerMetrics))
			}
			if _, err := os.Stat(tracePath(cfg.outDir, info.name)); err != nil {
				t.Errorf("no trace file: %v", err)
			}
			whyHolds(t, info.name, res.Metrics)
		})
	}
}

// whyHolds checks the part of each workload's reason that the span counts
// show: which layers it calls and which it does not.
func whyHolds(t *testing.T, name string, m metricSet) {
	v := func(metric string) float64 { return m[metric].Value }
	var zero, nonzero []string
	switch name {
	case "kernels128":
		zero, nonzero = []string{"fhe.spans", "serve.spans"}, []string{"ntt.spans", "blas.spans", "ntt.polymul_share"}
	case "mulchain":
		zero, nonzero = []string{"fhe.rotate_spans", "serve.spans", "ntt.spans"}, []string{"fhe.spans", "fhe.mul_share"}
	case "dotprod":
		zero, nonzero = []string{"serve.spans", "ntt.spans"}, []string{"fhe.rotate_spans", "fhe.rotate_share", "fhe.mul_share"}
	case "serve_mix":
		zero = []string{"fhe.spans", "ntt.spans", "serve.shed", "serve.retries", "serve.http_5xx", "serve.wrong_decryptions"}
		nonzero = []string{"serve.spans", "serve.mul_client_p50_us", "serve.mul_handler_p50_us", "serve.transport_share",
			"serve.encrypt_req_bytes", "serve.decrypt_resp_bytes"}
	}
	for _, metric := range zero {
		if v(metric) != 0 {
			t.Errorf("%s: %s = %v, want 0", name, metric, v(metric))
		}
	}
	for _, metric := range nonzero {
		if v(metric) <= 0 {
			t.Errorf("%s: %s = %v, want more than 0", name, metric, v(metric))
		}
	}
	if name == "serve_mix" && v("serve.mul_client_p50_us") < v("serve.mul_handler_p50_us") {
		t.Errorf("a mul takes the client %v us and the handler inside it %v us", v("serve.mul_client_p50_us"), v("serve.mul_handler_p50_us"))
	}
}

// TestCorruptedExpectationIsCaught runs one round of each workload, checks
// that it verifies, then changes one input the model reads after the ops
// have run: verify must report the op, and only it.
func TestCorruptedExpectationIsCaught(t *testing.T) {
	for _, info := range workloads {
		t.Run(info.name, func(t *testing.T) {
			w := info.make(smokeShape, options{ops: 3})
			if err := w.setup(7); err != nil {
				t.Fatal(err)
			}
			defer w.close()
			if err := w.newRound(rand.New(rand.NewSource(7))); err != nil {
				t.Fatal(err)
			}
			r, err := runRound(w, nil, info.name, 0)
			if err != nil || len(r.errors) > 0 {
				t.Fatal(err, r.errors)
			}
			if bad := w.verify(); len(bad) != 0 {
				t.Fatalf("clean round reported %v", bad)
			}
			want := "op 1:"
			switch w := w.(type) {
			case *kernelWorkload:
				w.alpha[1] = w.k.mod.Add(w.alpha[1], w.alpha[1])
			case *fheWorkload:
				w.x[1][5] = (w.x[1][5] + 1) % w.sh.t
			case *serveWorkload:
				w.x[0][1][5] = (w.x[0][1][5] + 1) % w.sh.t
				want = "client 0 session 1:"
			}
			bad := w.verify()
			if len(bad) != 1 || !strings.HasPrefix(bad[0], want) {
				t.Fatalf("verify after corrupting one op reported %q, want one line starting %q", bad, want)
			}
		})
	}
}

// flakyWorkload fails one op with an error and returns one wrong result.
type flakyWorkload struct{ rounds int }

func (w *flakyWorkload) clients() int              { return 2 }
func (w *flakyWorkload) opsPerRound() int          { return 4 }
func (w *flakyWorkload) setup(int64) error         { return nil }
func (w *flakyWorkload) newRound(*rand.Rand) error { w.rounds++; return nil }
func (w *flakyWorkload) workerPID() int            { return 0 }
func (w *flakyWorkload) close() error              { return nil }
func (w *flakyWorkload) op(_ opCtx, c, i int) error {
	if w.rounds == 2 && c == 1 && i == 3 {
		return errors.New("refused")
	}
	return nil
}

func (w *flakyWorkload) verify() []string {
	if w.rounds == 3 {
		return []string{"op 0: slot 9: got 1, want 2"}
	}
	return nil
}

// A failed op and a wrong result both count, the first is printed, and
// the result says the run was not correct.
func TestFailuresCountAndFailTheRun(t *testing.T) {
	w := &flakyWorkload{}
	info := workloadInfo{name: "flaky", make: func(shape, options) workload { return w }}
	cfg := smokeConfig(t, info, false)
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 2 || res.Attempted != w.rounds*8 {
		t.Errorf("result %+v after %d rounds, want 2 failed of %d and not correct", res, w.rounds, w.rounds*8)
	}
	if log := cfg.log.(*bytes.Buffer).String(); !strings.Contains(log, "FIRST FAILURE: client 1 op 3: refused") {
		t.Errorf("log does not name the first failure:\n%s", log)
	}
}

// BENCHMARK.json must list exactly the workloads and metrics the program
// has, with their units, directions and bounds.
func TestManifestMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var manifest struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&manifest); err != nil {
		t.Fatal(err)
	}
	if manifest.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program defaults to %d", manifest.RunSeconds, defaultSeconds)
	}
	if len(manifest.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, the program has %d", len(manifest.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := manifest.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d is %+v, the program has %s: %s", i, got, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	check := func(kind string, listed []metric, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Fatalf("%d %s metrics listed, the program has %d", len(listed), kind, len(defs))
		}
		for i, d := range defs {
			got := listed[i]
			if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
				t.Errorf("%s metric %d is %+v, the program has %+v", kind, i, got, d)
			}
			if bounded != (got.Bound != nil) || bounded && *got.Bound != d.bound {
				t.Errorf("%s: bound %v listed, the program has %v (bounded %v)", d.name, got.Bound, d.bound, bounded)
			}
		}
	}
	check("end_to_end", manifest.EndToEnd, endToEndMetrics, true)
	check("per_layer", manifest.PerLayer, perLayerMetrics, false)
}
