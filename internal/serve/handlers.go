package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"time"

	"mqxgo/internal/faultinject"
)

// bodyEnvelope is the room a request body gets beyond its values: the
// tenant, op, handle and option fields and the JSON punctuation.
const bodyEnvelope = 64 << 10

// Handler returns the server's HTTP mux. Every request body is capped at
// room for N 20-digit values (the widest encrypt or encode array) plus
// bodyEnvelope; reqBuf.decode answers 413 as soon as a body reads past the
// cap.
func (s *Server) Handler() http.Handler {
	limit := 21*int64(s.cfg.Scheme.B.N()) + bodyEnvelope
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/v1/metrics", s.handleMetrics)
	mux.HandleFunc("/v1/keygen", s.handleKeygen)
	mux.HandleFunc("/v1/encrypt", s.evalClass("encrypt", s.doEncrypt))
	mux.HandleFunc("/v1/eval", s.evalClass("", s.doEval))
	mux.HandleFunc("/v1/decrypt", s.evalClass("decrypt", s.doDecrypt))
	mux.HandleFunc("/v1/fault", s.handleFault)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, limit)
		mux.ServeHTTP(w, r)
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) writeErr(w http.ResponseWriter, e *apiError) {
	switch {
	case e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable:
		// Shed and drain responses carry a retry hint so well-behaved
		// clients back off instead of hammering a saturated queue.
		w.Header().Set("Retry-After", "1")
	}
	if e.Status >= 500 {
		s.m.failed5xx.Add(1)
	} else if e.Status >= 400 {
		s.m.failed4xx.Add(1)
	}
	writeJSON(w, e.Status, map[string]*apiError{"error": e})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.snapshot())
}

func (s *Server) handleKeygen(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Tenant string `json:"tenant"`
	}
	rb := reqBufs.Get()
	defer reqBufs.Put(rb)
	if apiErr := rb.decode(r, &req); apiErr != nil {
		s.writeErr(w, apiErr)
		return
	}
	if _, apiErr := s.reg.create(req.Tenant, s.cfg.Scheme); apiErr != nil {
		s.writeErr(w, apiErr)
		return
	}
	b := s.cfg.Scheme.B
	deltaBits := make([]int, b.Levels())
	for l := range deltaBits {
		deltaBits[l] = b.DeltaBits(l)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"tenant":            req.Tenant,
		"backend":           b.Name(),
		"n":                 b.N(),
		"plain_modulus":     b.PlainModulus(),
		"levels":            b.Levels(),
		"delta_bits":        deltaBits,
		"budget_floor_bits": s.cfg.BudgetFloorBits,
	})
}

// tighten narrows an already-deadlined request context when the client
// asked for less time than the server cap.
func tighten(ctx context.Context, timeoutMS int) (context.Context, context.CancelFunc) {
	if timeoutMS <= 0 {
		return context.WithCancel(ctx)
	}
	return context.WithTimeout(ctx, time.Duration(timeoutMS)*time.Millisecond)
}

// evalOp is an evaluation-class endpoint's work on its decoded request.
type evalOp func(ctx context.Context, req *evalRequest) (evalResponse, *apiError)

// evalClass wraps an evaluation-class endpoint in serveEval.
func (s *Server) evalClass(opName string, op evalOp) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) { s.serveEval(w, r, opName, op) }
}

// serveEval is the full hardened request path of an evaluation-class
// endpoint: admission, deadline, panic recovery, pooled transport, latency
// metrics. opName labels the latency histogram; when empty the decoded op
// field is used.
func (s *Server) serveEval(w http.ResponseWriter, r *http.Request, opName string, op evalOp) {
	if faultinject.Exhausted(faultinject.SiteServePool) {
		s.writeErr(w, errf(http.StatusServiceUnavailable, CodePoolExhausted, "scratch pool exhausted"))
		return
	}
	// The per-request deadline covers the whole stay in the server:
	// time spent queued counts against it, so a saturated queue turns
	// into fast 504s instead of unbounded client-side hangs.
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	release, apiErr := s.admit(ctx)
	if apiErr != nil {
		s.writeErr(w, apiErr)
		return
	}
	defer release()
	rb := reqBufs.Get()
	defer reqBufs.Put(rb) // after the response is written: it may print rb's values
	start := time.Now()
	resp, apiErr := s.recoverEval(ctx, op, r, rb)
	if apiErr != nil {
		s.writeErr(w, apiErr)
		return
	}
	label := opName
	if label == "" {
		label = rb.req.Op
	}
	s.m.completed.Add(1)
	s.m.observe(label, time.Since(start))

	start = time.Now()
	rb.out = appendEvalResponse(rb.out[:0], &resp)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(rb.out)
	s.m.encodeBody.observe(time.Since(start))
}

// recoverEval decodes the request body into rb and runs op on it, with
// panic containment: a panic — organic or injected — is recovered here,
// counted, and surfaced as a typed 500. The fhe layer has already
// quarantined any pooled scratch the panic unwound through, so the next
// request starts from clean buffers.
func (s *Server) recoverEval(ctx context.Context, op evalOp, r *http.Request, rb *reqBuf) (resp evalResponse, apiErr *apiError) {
	defer func() {
		if rec := recover(); rec != nil {
			s.m.panics.Add(1)
			apiErr = errf(http.StatusInternalServerError, CodeInternal,
				"evaluation panicked (recovered, scratch quarantined): %v", rec)
		}
	}()
	faultinject.Hit(faultinject.SiteServeHandler)
	start := time.Now()
	apiErr = rb.decodeEval(r)
	s.m.decodeBody.observe(time.Since(start))
	if apiErr != nil {
		return evalResponse{}, apiErr
	}
	return op(ctx, &rb.req)
}

func (s *Server) doEncrypt(_ context.Context, req *evalRequest) (evalResponse, *apiError) {
	t, apiErr := s.reg.get(req.Tenant)
	if apiErr != nil {
		return evalResponse{}, apiErr
	}
	return s.applyEncrypt(t, req.Values)
}

func (s *Server) doEval(ctx context.Context, req *evalRequest) (evalResponse, *apiError) {
	t, apiErr := s.reg.get(req.Tenant)
	if apiErr != nil {
		return evalResponse{}, apiErr
	}
	evalCtx, cancel := tighten(ctx, req.TimeoutMS)
	defer cancel()
	return s.applyEval(evalCtx, t, *req)
}

func (s *Server) doDecrypt(_ context.Context, req *evalRequest) (evalResponse, *apiError) {
	t, apiErr := s.reg.get(req.Tenant)
	if apiErr != nil {
		return evalResponse{}, apiErr
	}
	return s.applyDecrypt(t, req.Handle)
}

// handleFault is the test-only fault administration endpoint. On
// production builds (no faultinject tag) it answers 501 for arming and
// succeeds only for reset/disarm, which are no-ops there.
func (s *Server) handleFault(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Spec   string `json:"spec,omitempty"`
		Disarm string `json:"disarm,omitempty"`
		Reset  bool   `json:"reset,omitempty"`
	}
	rb := reqBufs.Get()
	defer reqBufs.Put(rb)
	if apiErr := rb.decode(r, &req); apiErr != nil {
		s.writeErr(w, apiErr)
		return
	}
	switch {
	case req.Reset:
		faultinject.Reset()
	case req.Disarm != "":
		faultinject.Disarm(req.Disarm)
	case req.Spec != "":
		spec, err := faultinject.ParseSpec(req.Spec)
		if err != nil {
			s.writeErr(w, errBadRequest("%v", err))
			return
		}
		if err := faultinject.Arm(spec); err != nil {
			s.writeErr(w, errf(http.StatusNotImplemented, CodeNotCompiled, "%v", err))
			return
		}
	default:
		s.writeErr(w, errBadRequest("need one of spec, disarm, reset"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"armed": armedStrings(), "enabled": faultinject.Enabled})
}

func armedStrings() []string {
	if !faultinject.Enabled {
		return nil
	}
	specs := faultinject.Armed()
	out := make([]string, 0, len(specs))
	for _, sp := range specs {
		out = append(out, sp.String())
	}
	return out
}
