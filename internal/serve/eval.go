package serve

import (
	"context"
	"errors"
	"net/http"

	"mqxgo/internal/faultinject"
	"mqxgo/internal/fhe"
	"mqxgo/internal/rns"
)

// evalRequest is the decoded body of /v1/eval (and the encrypt/decrypt
// variants reuse the relevant fields).
type evalRequest struct {
	Tenant    string   `json:"tenant"`
	Op        string   `json:"op"`
	Args      []string `json:"args"`
	Out       string   `json:"out,omitempty"`        // optional: overwrite this handle in place
	Steps     int      `json:"steps,omitempty"`      // rotate: slot rotation amount (may be negative)
	TimeoutMS int      `json:"timeout_ms,omitempty"` // optional: tighter than the server cap
	Values    []uint64 `json:"values,omitempty"`     // encrypt / encode / decode
	Handle    string   `json:"handle,omitempty"`     // decrypt / free
}

// evalResponse is the success body for evaluation-class requests.
type evalResponse struct {
	Handle     string   `json:"handle,omitempty"`
	Level      int      `json:"level"`
	NoiseBits  int      `json:"noise_bits"`       // tracked upper bound
	BudgetBits int      `json:"budget_bits"`      // predicted (eval) or measured (decrypt)
	Values     []uint64 `json:"values,omitempty"` // decrypt
}

// lookup resolves a handle in the tenant's store. Caller holds t.mu.
func (t *tenant) lookup(handle string) (*entry, *apiError) {
	e := t.cts[handle]
	if e == nil {
		return nil, errf(http.StatusNotFound, CodeUnknownHandle, "unknown ciphertext handle %q", handle)
	}
	return e, nil
}

// store inserts a fresh entry, enforcing the per-tenant cap. Caller
// holds t.mu.
func (t *tenant) store(s *Server, ct fhe.BackendCiphertext, noiseBits int) (string, *apiError) {
	if len(t.cts) >= s.cfg.MaxHandles {
		return "", errf(http.StatusConflict, CodeTooManyHandles,
			"tenant holds %d ciphertexts (cap %d); free some handles", len(t.cts), s.cfg.MaxHandles)
	}
	h := t.newHandle()
	t.cts[h] = &entry{ct: ct, noiseBits: noiseBits}
	return h, nil
}

// injectFlip is the bit-flip fault seam: when a KindBitFlip spec is
// armed at serve.decode, the operand's stored residues are corrupted
// in place before the evaluation consumes them — modeling a torn write
// or DMA corruption between requests. Compiled to nothing in production
// builds (Enabled is a constant false).
func injectFlip(ct fhe.BackendCiphertext) {
	if !faultinject.Enabled {
		return
	}
	if p, ok := ct.A.(rns.Poly); ok {
		faultinject.FlipBits(faultinject.SiteServeDecode, p.Res...)
	}
	if p, ok := ct.B.(rns.Poly); ok {
		faultinject.FlipBits(faultinject.SiteServeDecode, p.Res...)
	}
}

// ctxErr maps a context abort surfaced by the fhe layer onto the typed
// 504; anything else is an internal evaluation failure.
func ctxErr(s *Server, err error) *apiError {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		s.m.deadlines.Add(1)
		return errf(http.StatusGatewayTimeout, CodeDeadline, "deadline expired mid-evaluation: %v", err)
	}
	return errf(http.StatusInternalServerError, CodeInternal, "evaluation failed: %v", err)
}

// dropOut forgets the in-place destination out after its backend call
// failed: the Backend contract leaves dst unspecified on error, so the
// handle would otherwise decrypt to garbage. Caller holds t.mu.
func (t *tenant) dropOut(s *Server, out string, err error) *apiError {
	delete(t.cts, out)
	return ctxErr(s, err)
}

// guardMul enforces the budget floor for a multiply at level with the
// given operand noise bound, returning the predicted result noise.
func (s *Server) guardMul(level, opNoise int) (int, *apiError) {
	pred := s.predictMul(level, opNoise)
	if budget := s.cfg.Scheme.PredictedBudgetBits(level, pred); budget < s.cfg.BudgetFloorBits {
		return 0, errf(http.StatusUnprocessableEntity, CodeBudgetExhausted,
			"multiply at level %d would leave %d budget bits (floor %d)", level, budget, s.cfg.BudgetFloorBits)
	}
	return pred, nil
}

// applyEval executes one evaluation op against a tenant's store under
// its lock. It is the transport-free core the HTTP handler, the alloc
// gate, and the fault tests all drive: admission, panic recovery, and
// JSON live in the caller.
func (s *Server) applyEval(ctx context.Context, t *tenant, req evalRequest) (evalResponse, *apiError) {
	sch := s.cfg.Scheme
	t.mu.Lock()
	defer t.mu.Unlock()

	switch req.Op {
	case "mul", "square", "add":
		var h1, h2 string
		if req.Op == "square" {
			if len(req.Args) != 1 {
				return evalResponse{}, errBadRequest("op %q takes exactly 1 arg", req.Op)
			}
			h1, h2 = req.Args[0], req.Args[0]
		} else {
			if len(req.Args) != 2 {
				return evalResponse{}, errBadRequest("op %q takes exactly 2 args", req.Op)
			}
			h1, h2 = req.Args[0], req.Args[1]
		}
		e1, apiErr := t.lookup(h1)
		if apiErr != nil {
			return evalResponse{}, apiErr
		}
		e2, apiErr := t.lookup(h2)
		if apiErr != nil {
			return evalResponse{}, apiErr
		}
		injectFlip(e1.ct)
		if h2 != h1 {
			injectFlip(e2.ct)
		}
		opNoise := e1.noiseBits
		if e2.noiseBits > opNoise {
			opNoise = e2.noiseBits
		}
		level := e1.ct.Level

		if req.Op == "add" {
			out, err := sch.AddCiphertexts(e1.ct, e2.ct)
			if err != nil {
				return evalResponse{}, errBadRequest("add: %v", err)
			}
			noise := opNoise + 1
			h, apiErr := t.store(s, out, noise)
			if apiErr != nil {
				return evalResponse{}, apiErr
			}
			return evalResponse{Handle: h, Level: out.Level, NoiseBits: noise, BudgetBits: sch.PredictedBudgetBits(out.Level, noise)}, nil
		}

		pred, apiErr := s.guardMul(level, opNoise)
		if apiErr != nil {
			return evalResponse{}, apiErr
		}
		// In-place fast path: overwrite an existing destination handle
		// whose buffers already have the right shape. This is the
		// steady-state serving loop — no allocation beyond the backend's
		// pooled scratch.
		if dst := s.reusableDst(t, req.Out, level, h1, h2); dst != nil {
			if err := sch.B.MulCtCtx(ctx, &dst.ct, e1.ct, e2.ct, t.rlk); err != nil {
				return evalResponse{}, t.dropOut(s, req.Out, err)
			}
			dst.noiseBits = pred
			return evalResponse{Handle: req.Out, Level: level, NoiseBits: pred, BudgetBits: sch.PredictedBudgetBits(level, pred)}, nil
		}
		out, err := sch.MulCiphertextsCtx(ctx, e1.ct, e2.ct, t.rlk)
		if err != nil {
			return evalResponse{}, ctxErr(s, err)
		}
		h, apiErr := t.store(s, out, pred)
		if apiErr != nil {
			return evalResponse{}, apiErr
		}
		return evalResponse{Handle: h, Level: level, NoiseBits: pred, BudgetBits: sch.PredictedBudgetBits(level, pred)}, nil

	case "modswitch":
		if len(req.Args) != 1 {
			return evalResponse{}, errBadRequest("op modswitch takes exactly 1 arg")
		}
		e, apiErr := t.lookup(req.Args[0])
		if apiErr != nil {
			return evalResponse{}, apiErr
		}
		injectFlip(e.ct)
		level := e.ct.Level
		if level >= sch.B.Levels()-1 {
			return evalResponse{}, errf(http.StatusUnprocessableEntity, CodeLevelFloor,
				"ciphertext already at bottom level %d", level)
		}
		pred := sch.PredictModSwitchNoiseBits(level, e.noiseBits)
		if budget := sch.PredictedBudgetBits(level+1, pred); budget < s.cfg.BudgetFloorBits {
			return evalResponse{}, errf(http.StatusUnprocessableEntity, CodeBudgetExhausted,
				"modswitch to level %d would leave %d budget bits (floor %d)", level+1, budget, s.cfg.BudgetFloorBits)
		}
		if dst := s.reusableDst(t, req.Out, level+1, req.Args[0], ""); dst != nil {
			if err := sch.B.ModSwitchCtx(ctx, &dst.ct, e.ct); err != nil {
				return evalResponse{}, t.dropOut(s, req.Out, err)
			}
			dst.noiseBits = pred
			return evalResponse{Handle: req.Out, Level: level + 1, NoiseBits: pred, BudgetBits: sch.PredictedBudgetBits(level+1, pred)}, nil
		}
		out, err := sch.ModSwitchCtx(ctx, e.ct)
		if err != nil {
			return evalResponse{}, ctxErr(s, err)
		}
		h, apiErr := t.store(s, out, pred)
		if apiErr != nil {
			return evalResponse{}, apiErr
		}
		return evalResponse{Handle: h, Level: level + 1, NoiseBits: pred, BudgetBits: sch.PredictedBudgetBits(level+1, pred)}, nil

	case "rotate", "conjugate":
		if len(req.Args) != 1 {
			return evalResponse{}, errBadRequest("op %q takes exactly 1 arg", req.Op)
		}
		e, apiErr := t.lookup(req.Args[0])
		if apiErr != nil {
			return evalResponse{}, apiErr
		}
		injectFlip(e.ct)
		level := e.ct.Level
		var pred int
		if req.Op == "rotate" {
			pred = sch.PredictRotateNoiseBits(level, e.noiseBits, req.Steps)
		} else {
			pred = sch.PredictConjugateNoiseBits(level, e.noiseBits)
		}
		if budget := sch.PredictedBudgetBits(level, pred); budget < s.cfg.BudgetFloorBits {
			return evalResponse{}, errf(http.StatusUnprocessableEntity, CodeBudgetExhausted,
				"%s at level %d would leave %d budget bits (floor %d)", req.Op, level, budget, s.cfg.BudgetFloorBits)
		}
		// In-place fast path, same shape as mul: a rotation lands in an
		// existing same-level destination with zero allocation beyond the
		// backend's pooled scratch.
		if dst := s.reusableDst(t, req.Out, level, req.Args[0], ""); dst != nil {
			var err error
			if req.Op == "rotate" {
				err = sch.B.RotateSlotsCtx(ctx, &dst.ct, e.ct, req.Steps, t.gk)
			} else {
				err = sch.B.ConjugateCtx(ctx, &dst.ct, e.ct, t.gk)
			}
			if err != nil {
				return evalResponse{}, t.dropOut(s, req.Out, err)
			}
			dst.noiseBits = pred
			return evalResponse{Handle: req.Out, Level: level, NoiseBits: pred, BudgetBits: sch.PredictedBudgetBits(level, pred)}, nil
		}
		var out fhe.BackendCiphertext
		var err error
		if req.Op == "rotate" {
			out, err = sch.RotateSlotsCtx(ctx, e.ct, req.Steps, t.gk)
		} else {
			out, err = sch.ConjugateCtx(ctx, e.ct, t.gk)
		}
		if err != nil {
			return evalResponse{}, ctxErr(s, err)
		}
		h, apiErr := t.store(s, out, pred)
		if apiErr != nil {
			return evalResponse{}, apiErr
		}
		return evalResponse{Handle: h, Level: level, NoiseBits: pred, BudgetBits: sch.PredictedBudgetBits(level, pred)}, nil

	case "encode", "decode":
		// Plaintext slot transforms: encode maps n slot values to the
		// coefficient message /v1/encrypt accepts (so rotations on the
		// resulting ciphertext rotate slots); decode inverts it on
		// decrypted values. The transform is in place over req.Values —
		// the steady-state serving core allocates nothing.
		if len(req.Args) != 0 {
			return evalResponse{}, errBadRequest("op %q takes values, not handle args", req.Op)
		}
		var err error
		if req.Op == "encode" {
			err = sch.EncodeSlotsInto(req.Values, req.Values)
		} else {
			err = sch.DecodeSlotsInto(req.Values, req.Values)
		}
		if err != nil {
			return evalResponse{}, errBadRequest("%s: %v", req.Op, err)
		}
		return evalResponse{Values: req.Values}, nil

	case "free":
		if len(req.Args) != 1 {
			return evalResponse{}, errBadRequest("op free takes exactly 1 arg")
		}
		if _, apiErr := t.lookup(req.Args[0]); apiErr != nil {
			return evalResponse{}, apiErr
		}
		delete(t.cts, req.Args[0])
		return evalResponse{}, nil

	default:
		return evalResponse{}, errBadRequest("unknown op %q (want mul, square, add, modswitch, rotate, conjugate, encode, decode, free)", req.Op)
	}
}

// reusableDst returns the entry named by out when it can be overwritten
// in place: it exists, is not an operand of the current op, and its
// buffers match the result's level. Caller holds t.mu.
//
//mqx:hotpath
func (s *Server) reusableDst(t *tenant, out string, level int, arg1, arg2 string) *entry {
	if out == "" || out == arg1 || out == arg2 {
		return nil
	}
	e := t.cts[out]
	if e == nil || e.ct.Level != level {
		return nil
	}
	return e
}

// applyEncrypt encrypts values for a tenant and stores the result.
func (s *Server) applyEncrypt(t *tenant, values []uint64) (evalResponse, *apiError) {
	sch := s.cfg.Scheme
	t.mu.Lock()
	defer t.mu.Unlock()
	ct, err := sch.Encrypt(t.sk, values)
	if err != nil {
		return evalResponse{}, errBadRequest("encrypt: %v", err)
	}
	h, apiErr := t.store(s, ct, fhe.FreshNoiseBits)
	if apiErr != nil {
		return evalResponse{}, apiErr
	}
	return evalResponse{Handle: h, Level: 0, NoiseBits: fhe.FreshNoiseBits,
		BudgetBits: sch.PredictedBudgetBits(0, fhe.FreshNoiseBits)}, nil
}

// applyDecrypt decrypts a handle and measures its remaining budget with
// the secret key. A result whose measured budget is zero is withheld:
// the plaintext cannot be distinguished from rounding garbage, which is
// exactly what a bit-flip fault produces — the integrity check turns
// silent corruption into a typed 500.
func (s *Server) applyDecrypt(t *tenant, handle string) (evalResponse, *apiError) {
	sch := s.cfg.Scheme
	t.mu.Lock()
	defer t.mu.Unlock()
	e, apiErr := t.lookup(handle)
	if apiErr != nil {
		return evalResponse{}, apiErr
	}
	injectFlip(e.ct)
	values, err := sch.Decrypt(t.sk, e.ct)
	if err != nil {
		return evalResponse{}, errBadRequest("decrypt: %v", err)
	}
	budget, err := sch.NoiseBudgetBits(t.sk, e.ct, values)
	if err != nil {
		return evalResponse{}, errf(http.StatusInternalServerError, CodeInternal, "budget measurement: %v", err)
	}
	if budget <= 0 {
		return evalResponse{}, errf(http.StatusInternalServerError, CodeCorrupt,
			"handle %q failed the decrypt integrity check (0 budget bits); plaintext withheld", handle)
	}
	return evalResponse{Handle: handle, Level: e.ct.Level, NoiseBits: e.noiseBits, BudgetBits: budget, Values: values}, nil
}
