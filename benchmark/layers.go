package main

import (
	"fmt"
	"os"
)

// perLayer adds to the probes' metrics the rest of the traced run's: what
// the spans of the traced rounds show about the workload, and the harness
// figures that compare the traced rounds with the untraced ones.
func perLayer(m metricSet, cfg runConfig, w workload, tr *tracer, plain, traced []round, tl tally) error {
	spans := tr.spans
	if cfg.outDir != "" {
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			return err
		}
		if err := writeJSONL(tracePath(cfg.outDir, cfg.info.name), spans); err != nil {
			return err
		}
	}
	spanMetrics(m, spans)
	if sw, ok := w.(*serveWorkload); ok {
		serveMetrics(m, sw, spans, tl)
	}

	all := pooled(plain)
	p := tailAtMost(len(all), 95)
	m.set("tail.op_p95_ms", quantile(sorted(all), p))
	if p != 0.95 {
		fmt.Fprintf(cfg.log, "tail.op_p95_ms reads p%.0f: %d ops leave fewer than 10 beyond p95\n", p*100, len(all))
	}
	if base := bestRound(opP50(plain), "lower"); base > 0 {
		m.set("trace.overhead_share", bestRound(opP50(traced), "lower")/base-1)
	}
	m.set("harness.failed_share", float64(tl.failed)/float64(tl.attempted))

	for _, d := range perLayerMetrics {
		if _, ok := m[d.name]; !ok {
			m.set(d.name, 0)
		}
		fmt.Fprintf(cfg.log, "  %-34s %14.4f %s\n", d.name, m[d.name].Value, d.unit)
	}
	return nil
}

// spanMetrics counts the spans of each layer and gives each kind of call
// its share of the ops' time.
func spanMetrics(m metricSet, spans []span) {
	count := map[string]float64{}
	dur := map[string]int64{}
	for _, s := range spans {
		count[s.Layer]++
		count[s.Layer+"/"+s.Name]++
		dur[s.Layer] += s.dur()
		dur[s.Layer+"/"+s.Name] += s.dur()
	}
	m.set("ntt.spans", count["ntt"])
	m.set("blas.spans", count["blas"])
	m.set("fhe.spans", count["fhe"])
	m.set("fhe.rotate_spans", count["fhe/rotate"])
	m.set("serve.spans", count["serve"])
	if ops := float64(dur["op"]); ops > 0 {
		m.set("ntt.polymul_share", float64(dur["ntt/polymul"])/ops)
		m.set("blas.share", float64(dur["blas"])/ops)
		m.set("fhe.mul_share", float64(dur["fhe/mulct"])/ops)
		m.set("fhe.rotate_share", float64(dur["fhe/rotate"])/ops)
	}
	m.set("trace.span_closure", closure(spans, "op"))
}

// serveMetrics reads the request spans of serve_mix: a client span per
// HTTP exchange, with the handler span it caused as its only child, so
// the client span's self time is the transport.
func serveMetrics(m metricSet, w *serveWorkload, spans []span, tl tally) {
	kids := childrenOf(spans)
	client, handler, transport := map[string][]float64{}, map[string][]float64{}, map[string][]float64{}
	var sessions []float64
	var sessionNS, transportNS, handlerNS int64
	for _, s := range spans {
		switch s.Layer {
		case "op":
			sessions = append(sessions, float64(s.dur())/1e6)
			sessionNS += s.dur()
		case "client":
			self := selfTime(s, kids[s.ID])
			client[s.Name] = append(client[s.Name], float64(s.dur())/1e3)
			transport[s.Name] = append(transport[s.Name], float64(self)/1e3)
			transportNS += self
		case "serve":
			handler[s.Name] = append(handler[s.Name], float64(s.dur())/1e3)
			handlerNS += s.dur()
		}
	}
	m.set("serve.boot_s", w.bootS)
	for _, name := range []string{"mul", "rotate", "encrypt", "decrypt", "free"} {
		m.set("serve."+name+"_client_p50_us", median(client[name]))
	}
	for _, name := range []string{"mul", "encrypt", "decrypt"} {
		m.set("serve."+name+"_handler_p50_us", median(handler[name]))
	}
	m.set("serve.mul_transport_p50_us", median(transport["mul"]))
	m.set("serve.mul_overhead_us", median(handler["mul"])-m["fhe.mulct_l0_procs1_us"].Value)
	m.set("serve.mul_client_p95_us", quantile(sorted(client["mul"]), tailAtMost(len(client["mul"]), 95)))
	m.set("serve.session_p95_ms", quantile(sorted(sessions), tailAtMost(len(sessions), 95)))
	if sessionNS > 0 {
		m.set("serve.transport_share", float64(transportNS)/float64(sessionNS))
		m.set("serve.handler_share", float64(handlerNS)/float64(sessionNS))
	}
	// Computed, not measured: the session's fhe calls as the probes time
	// them one at a time (the level-1 calls at their level-0 cost, so the
	// estimate errs low), against the median session.
	v := func(name string) float64 { return m[name].Value }
	direct := v("fhe.encode_us") + 2*v("fhe.encrypt_us") + v("fhe.mulct_l0_procs1_us") + v("fhe.modswitch_l0_us") +
		v("fhe.rotate_hop_l0_us") + v("fhe.add_l0_us") + v("fhe.decrypt_us") + v("fhe.decode_us")
	if s := median(sessions) * 1e3; s > 0 {
		m.set("serve.nonfhe_share_est", 1-direct/s)
	}
	m.set("serve.encrypt_req_bytes", float64(w.encReqBytes.Load()))
	m.set("serve.decrypt_resp_bytes", float64(w.decRespBytes.Load()))
	m.set("serve.shed", float64(w.shed.Load()))
	m.set("serve.retries", float64(w.retries.Load()))
	m.set("serve.http_5xx", float64(w.http5xx.Load()))
	m.set("serve.wrong_decryptions", float64(tl.wrong))
}
