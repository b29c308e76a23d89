package main

// metricValue is one metric as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metricValue

// set records a metric under the unit its definition gives it; a name
// with no definition is a bug in the benchmark.
func (m metricSet) set(name string, v float64) {
	unit, ok := metricUnits[name]
	if !ok {
		panic("benchmark: metric " + name + " has no definition")
	}
	m[name] = metricValue{v, unit}
}

// metricDef is a metric as BENCHMARK.json lists it. bound is the share of
// the parent's median by which an end-to-end metric may get worse; the
// per-layer metrics have none.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEndMetrics are what a user of the stack sees, on every workload.
// failed_share is not among them because the driver's contract wants
// metrics that are never 0: it is the result line's failed / attempted.
//
// ISSUE 11 asked for 10 % on the three timing metrics. A bound is one
// number for all four workloads, and the contract asks that ten runs'
// quartiles lie within a third of it: on the reference host they are up to
// 4.3 % (op_p50_ms), 6.2 % (ops_per_s) and 7.5 % (cpu_ms_per_op) of the
// median apart, dotprod being the widest each time, so the bounds are the
// next round numbers above three times that. README.md has every spread.
var endToEndMetrics = []metricDef{
	{"op_p50_ms", "ms", "lower", 0.20},
	{"ops_per_s", "1/s", "higher", 0.20},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// perLayerMetrics are the traced run's metrics, in layer order. The ones
// measured from spans describe the workload the run was given and read 0
// where it records no such span; the probes read the same on any workload.
var perLayerMetrics = []metricDef{
	// probes
	{name: "modmath.mul128_ns", unit: "ns", better: "lower"},
	{name: "modmath.mul64_shoup_ns", unit: "ns", better: "lower"},
	{name: "blas.vecadd_ns_per_elem", unit: "ns", better: "lower"},
	{name: "blas.vecsub_ns_per_elem", unit: "ns", better: "lower"},
	{name: "blas.vecpmul_ns_per_elem", unit: "ns", better: "lower"},
	{name: "blas.axpy_ns_per_elem", unit: "ns", better: "lower"},
	{name: "blas.vecpmul_bignum_ns_per_elem", unit: "ns", better: "lower"},
	{name: "blas.vecpmul_speedup_vs_bignum_x", unit: "x", better: "higher"},
	{name: "ntt.fwd128_n16384_us", unit: "us", better: "lower"},
	{name: "ntt.inv128_n16384_us", unit: "us", better: "lower"},
	{name: "ntt.polymul128_n16384_us", unit: "us", better: "lower"},
	{name: "ntt.fwd128_n4096_us", unit: "us", better: "lower"},
	{name: "ntt.fwd_bignum_n4096_us", unit: "us", better: "lower"},
	{name: "ntt.fwd128_speedup_vs_bignum_x", unit: "x", better: "higher"},
	{name: "ring.fwd64_n4096_us", unit: "us", better: "lower"},
	{name: "ring.inv64_n4096_us", unit: "us", better: "lower"},
	{name: "ring.fwd64_n4096_scalar_us", unit: "us", better: "lower"},
	{name: "ring.fwd64_ns_per_bfly", unit: "ns", better: "lower"},
	{name: "ring.pmul64_n4096_us", unit: "us", better: "lower"},
	{name: "ring.galois_eval64_n4096_us", unit: "us", better: "lower"},
	{name: "rns.nttall_k4_us", unit: "us", better: "lower"},
	{name: "rns.baseconv_k4_us", unit: "us", better: "lower"},
	{name: "rns.mont_baseconv_k4_us", unit: "us", better: "lower"},
	{name: "rns.sk_return_k4_us", unit: "us", better: "lower"},
	{name: "rns.rescale_ntt_k4_us", unit: "us", better: "lower"},
	{name: "fhe.keygen_s", unit: "s", better: "lower"},
	{name: "fhe.encode_us", unit: "us", better: "lower"},
	{name: "fhe.encrypt_us", unit: "us", better: "lower"},
	{name: "fhe.decrypt_us", unit: "us", better: "lower"},
	{name: "fhe.decode_us", unit: "us", better: "lower"},
	{name: "fhe.mulct_l0_us", unit: "us", better: "lower"},
	{name: "fhe.mulct_l1_us", unit: "us", better: "lower"},
	{name: "fhe.mulct_l2_us", unit: "us", better: "lower"},
	{name: "fhe.modswitch_l0_us", unit: "us", better: "lower"},
	{name: "fhe.rotate_hop_l0_us", unit: "us", better: "lower"},
	{name: "fhe.add_l0_us", unit: "us", better: "lower"},
	{name: "fhe.mulct_l0_allocs", unit: "count", better: "lower"},
	{name: "fhe.rotate_hop_l0_allocs", unit: "count", better: "lower"},
	{name: "fhe.mulct_l0_procs1_us", unit: "us", better: "lower"},
	{name: "fhe.tower_scaling_x", unit: "x", better: "higher"},
	{name: "fhe.mulct_l0_oracle_us", unit: "us", better: "lower"},
	{name: "fhe.transform_share_mulct_est", unit: "ratio", better: "lower"},
	{name: "perfmodel.fwd64_n4096_pred_us", unit: "us", better: "lower"},
	{name: "perfmodel.fwd64_pred_over_meas", unit: "ratio", better: "higher"},
	// spans of the traced workload
	{name: "ntt.spans", unit: "count", better: "lower"},
	{name: "blas.spans", unit: "count", better: "lower"},
	{name: "fhe.spans", unit: "count", better: "lower"},
	{name: "fhe.rotate_spans", unit: "count", better: "lower"},
	{name: "serve.spans", unit: "count", better: "lower"},
	{name: "ntt.polymul_share", unit: "ratio", better: "lower"},
	{name: "blas.share", unit: "ratio", better: "lower"},
	{name: "fhe.mul_share", unit: "ratio", better: "lower"},
	{name: "fhe.rotate_share", unit: "ratio", better: "lower"},
	{name: "serve.boot_s", unit: "s", better: "lower"},
	{name: "serve.mul_client_p50_us", unit: "us", better: "lower"},
	{name: "serve.mul_handler_p50_us", unit: "us", better: "lower"},
	{name: "serve.mul_transport_p50_us", unit: "us", better: "lower"},
	{name: "serve.mul_overhead_us", unit: "us", better: "lower"},
	{name: "serve.rotate_client_p50_us", unit: "us", better: "lower"},
	{name: "serve.encrypt_client_p50_us", unit: "us", better: "lower"},
	{name: "serve.encrypt_handler_p50_us", unit: "us", better: "lower"},
	{name: "serve.decrypt_client_p50_us", unit: "us", better: "lower"},
	{name: "serve.decrypt_handler_p50_us", unit: "us", better: "lower"},
	{name: "serve.free_client_p50_us", unit: "us", better: "lower"},
	{name: "serve.mul_client_p95_us", unit: "us", better: "lower"},
	{name: "serve.session_p95_ms", unit: "ms", better: "lower"},
	{name: "serve.transport_share", unit: "ratio", better: "lower"},
	{name: "serve.handler_share", unit: "ratio", better: "lower"},
	{name: "serve.nonfhe_share_est", unit: "ratio", better: "lower"},
	{name: "serve.encrypt_req_bytes", unit: "count", better: "lower"},
	{name: "serve.decrypt_resp_bytes", unit: "count", better: "lower"},
	{name: "serve.shed", unit: "count", better: "lower"},
	{name: "serve.retries", unit: "count", better: "lower"},
	{name: "serve.http_5xx", unit: "count", better: "lower"},
	{name: "serve.wrong_decryptions", unit: "count", better: "lower"},
	// harness
	{name: "tail.op_p95_ms", unit: "ms", better: "lower"},
	{name: "trace.span_closure", unit: "ratio", better: "higher"},
	{name: "trace.overhead_share", unit: "ratio", better: "lower"},
	{name: "harness.failed_share", unit: "ratio", better: "lower"},
}

var metricUnits = func() map[string]string {
	units := map[string]string{}
	for _, d := range append(append([]metricDef{}, endToEndMetrics...), perLayerMetrics...) {
		units[d.name] = d.unit
	}
	return units
}()
