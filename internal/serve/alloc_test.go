package serve

import (
	"context"
	"testing"

	"mqxgo/internal/scratch"
)

// TestServeEvalSteadyStateAllocs extends the repo's zero-allocation
// discipline through the serving layer's evaluation core: with a
// destination handle reused via the in-place path (the steady-state
// serving loop), applyEval — handle lookups, guardrail prediction, the
// backend multiply through its pooled scratch, bound update — allocates
// nothing, and so do the in-place add and modswitch. The JSON transport
// around it is pinned by TestEvalBodyDecodeAllocs.
func TestServeEvalSteadyStateAllocs(t *testing.T) {
	if scratch.Race {
		t.Skip("race instrumentation allocates")
	}
	s := newTestServer(t, nil)
	ten, apiErr := s.reg.create("alloc", s.cfg.Scheme)
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	enc1, apiErr := s.applyEncrypt(ten, testMsg(20))
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	enc2, apiErr := s.applyEncrypt(ten, testMsg(21))
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	ctx := context.Background()
	mulReq := evalRequest{Tenant: "alloc", Op: "mul", Args: []string{enc1.Handle, enc2.Handle}}
	dst, apiErr := s.applyEval(ctx, ten, mulReq) // creates the destination handle
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	mulReq.Out = dst.Handle
	if _, apiErr := s.applyEval(ctx, ten, mulReq); apiErr != nil { // warm the in-place path
		t.Fatal(apiErr)
	}
	if got := testing.AllocsPerRun(10, func() {
		if _, apiErr := s.applyEval(ctx, ten, mulReq); apiErr != nil {
			t.Fatal(apiErr)
		}
	}); got != 0 {
		t.Errorf("steady-state serve mul allocates %.1f per run, want 0", got)
	}

	// The add in-place path holds the same bar.
	addReq := evalRequest{Tenant: "alloc", Op: "add", Args: []string{enc1.Handle, enc2.Handle}}
	sum, apiErr := s.applyEval(ctx, ten, addReq)
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	addReq.Out = sum.Handle
	if _, apiErr := s.applyEval(ctx, ten, addReq); apiErr != nil {
		t.Fatal(apiErr)
	}
	if got := testing.AllocsPerRun(10, func() {
		if _, apiErr := s.applyEval(ctx, ten, addReq); apiErr != nil {
			t.Fatal(apiErr)
		}
	}); got != 0 {
		t.Errorf("steady-state serve add allocates %.1f per run, want 0", got)
	}

	// The modswitch in-place path holds the same bar.
	msReq := evalRequest{Tenant: "alloc", Op: "modswitch", Args: []string{dst.Handle}}
	low, apiErr := s.applyEval(ctx, ten, msReq)
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	msReq.Out = low.Handle
	if _, apiErr := s.applyEval(ctx, ten, msReq); apiErr != nil {
		t.Fatal(apiErr)
	}
	if got := testing.AllocsPerRun(10, func() {
		if _, apiErr := s.applyEval(ctx, ten, msReq); apiErr != nil {
			t.Fatal(apiErr)
		}
	}); got != 0 {
		t.Errorf("steady-state serve modswitch allocates %.1f per run, want 0", got)
	}
}

// TestServeDecryptAllocs pins the decrypt integrity check: applyDecrypt
// decrypts and measures the budget from one phase, in residues, so it
// allocates only the plaintext it returns — where the big-integer budget
// measurement alone once made one big.Int per coefficient.
func TestServeDecryptAllocs(t *testing.T) {
	if scratch.Race {
		t.Skip("race instrumentation allocates")
	}
	s := newTestServer(t, nil)
	ten, apiErr := s.reg.create("alloc", s.cfg.Scheme)
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	enc, apiErr := s.applyEncrypt(ten, testMsg(22))
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	if _, apiErr := s.applyDecrypt(ten, enc.Handle); apiErr != nil { // warm the scratch pool
		t.Fatal(apiErr)
	}
	if got := testing.AllocsPerRun(10, func() {
		if _, apiErr := s.applyDecrypt(ten, enc.Handle); apiErr != nil {
			t.Fatal(apiErr)
		}
	}); got > 2 {
		t.Errorf("applyDecrypt allocates %.1f per run, want at most 2", got)
	}
}
