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
	Values    values   `json:"values,omitempty"`     // encrypt / encode / decode
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
func (t *tenant) store(ct fhe.BackendCiphertext, noiseBits int) (string, *apiError) {
	if len(t.cts) >= maxHandles {
		return "", errf(http.StatusConflict, CodeTooManyHandles,
			"tenant holds %d ciphertexts (cap %d); free some handles", len(t.cts), maxHandles)
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

// evalDst is where one evaluation lands: the tenant's entry named by out
// when reusableDst accepts it for in-place overwrite, else a fresh
// ciphertext (e nil) stored once the evaluation succeeds.
type evalDst struct {
	ct  *fhe.BackendCiphertext
	out string
	e   *entry
}

// dstFor picks the destination of an evaluation whose result sits at
// level. Caller holds t.mu.
func (s *Server) dstFor(t *tenant, out string, level int, arg1, arg2 string) evalDst {
	if e := s.reusableDst(t, out, level, arg1, arg2); e != nil {
		return evalDst{ct: &e.ct, out: out, e: e}
	}
	b := s.cfg.Scheme.B
	return evalDst{ct: &fhe.BackendCiphertext{A: b.NewPolyAt(level), B: b.NewPolyAt(level), Level: level}}
}

// land finishes an evaluation that ran into d with result err and
// tracked noise bound noise. On failure an in-place destination is
// forgotten: the scheme leaves it unspecified on error, so the handle
// would otherwise decrypt to garbage. On success the in-place entry takes
// the new bound, or the fresh result is stored. Caller holds t.mu.
func (t *tenant) land(s *Server, d evalDst, err error, noise int) (evalResponse, *apiError) {
	if err != nil {
		if d.e != nil {
			delete(t.cts, d.out)
		}
		return evalResponse{}, ctxErr(s, err)
	}
	h := d.out
	if d.e != nil {
		d.e.noiseBits = noise
	} else {
		var apiErr *apiError
		if h, apiErr = t.store(*d.ct, noise); apiErr != nil {
			return evalResponse{}, apiErr
		}
	}
	level := d.ct.Level
	return evalResponse{Handle: h, Level: level, NoiseBits: noise, BudgetBits: s.cfg.Scheme.PredictedBudgetBits(level, noise)}, nil
}

// guardBudget enforces the budget floor: op, landing at level with
// predicted noise bound pred, is refused when its predicted budget falls
// below the configured floor.
func (s *Server) guardBudget(op string, level, pred int) *apiError {
	if budget := s.cfg.Scheme.PredictedBudgetBits(level, pred); budget < s.cfg.BudgetFloorBits {
		return errf(http.StatusUnprocessableEntity, CodeBudgetExhausted,
			"%s landing at level %d would leave %d budget bits (floor %d)", op, level, budget, s.cfg.BudgetFloorBits)
	}
	return nil
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
		// Operands at different levels are a malformed request: refuse it
		// before a destination is picked, so no out handle is touched.
		if e2.ct.Level != level {
			return evalResponse{}, errBadRequest("op %q: operands at levels %d and %d", req.Op, level, e2.ct.Level)
		}

		// Overwriting an existing destination handle whose buffers already
		// have the right shape is the steady-state serving loop: no
		// allocation beyond the backend's pooled scratch.
		if req.Op == "add" {
			dst := s.dstFor(t, req.Out, level, h1, h2)
			return t.land(s, dst, sch.AddCiphertextsInto(ctx, dst.ct, e1.ct, e2.ct), opNoise+1)
		}

		pred := s.predictMul(level, opNoise)
		if apiErr := s.guardBudget(req.Op, level, pred); apiErr != nil {
			return evalResponse{}, apiErr
		}
		dst := s.dstFor(t, req.Out, level, h1, h2)
		return t.land(s, dst, sch.MulCiphertextsInto(ctx, dst.ct, e1.ct, e2.ct, t.rlk), pred)

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
		if apiErr := s.guardBudget(req.Op, level+1, pred); apiErr != nil {
			return evalResponse{}, apiErr
		}
		dst := s.dstFor(t, req.Out, level+1, req.Args[0], "")
		return t.land(s, dst, sch.ModSwitchInto(ctx, dst.ct, e.ct), pred)

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
		if apiErr := s.guardBudget(req.Op, level, pred); apiErr != nil {
			return evalResponse{}, apiErr
		}
		dst := s.dstFor(t, req.Out, level, req.Args[0], "")
		var err error
		if req.Op == "rotate" {
			err = sch.RotateSlotsInto(ctx, dst.ct, e.ct, req.Steps, t.gk)
		} else {
			err = sch.ConjugateInto(ctx, dst.ct, e.ct, t.gk)
		}
		return t.land(s, dst, err, pred)

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
	h, apiErr := t.store(ct, fhe.FreshNoiseBits)
	if apiErr != nil {
		return evalResponse{}, apiErr
	}
	return evalResponse{Handle: h, Level: 0, NoiseBits: fhe.FreshNoiseBits,
		BudgetBits: sch.PredictedBudgetBits(0, fhe.FreshNoiseBits)}, nil
}

// applyDecrypt decrypts a handle and measures its remaining budget with
// the secret key, both from one phase (fhe.DecryptWithBudget: the budget
// is measured in residues, against the decrypted values). A result whose
// measured budget is zero is withheld: the plaintext cannot be
// distinguished from rounding garbage, which is exactly what a bit-flip
// fault produces — the integrity check turns silent corruption into a
// typed 500.
func (s *Server) applyDecrypt(t *tenant, handle string) (evalResponse, *apiError) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, apiErr := t.lookup(handle)
	if apiErr != nil {
		return evalResponse{}, apiErr
	}
	injectFlip(e.ct)
	vals, budget, err := s.cfg.Scheme.DecryptWithBudget(t.sk, e.ct)
	if err != nil {
		return evalResponse{}, errBadRequest("decrypt: %v", err)
	}
	if budget <= 0 {
		return evalResponse{}, errf(http.StatusInternalServerError, CodeCorrupt,
			"handle %q failed the decrypt integrity check (0 budget bits); plaintext withheld", handle)
	}
	return evalResponse{Handle: handle, Level: e.ct.Level, NoiseBits: e.noiseBits, BudgetBits: budget, Values: vals}, nil
}
