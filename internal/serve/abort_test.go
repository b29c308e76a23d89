package serve

import (
	"context"
	"slices"
	"testing"
)

// countdownCtx is a deterministic context whose Err() starts returning
// context.DeadlineExceeded on its fireAt-th call (1-based), so a test can
// aim a deadline at each context check of an evaluation in turn.
type countdownCtx struct {
	context.Context
	calls, fireAt int
}

func (c *countdownCtx) Err() error {
	c.calls++
	if c.calls >= c.fireAt {
		return context.DeadlineExceeded
	}
	return nil
}

// TestInPlaceAbortNeverLeavesCorruptOut walks a deadline through every
// context check of the in-place modswitch, mul and rotate paths. The
// destination first holds a result computed from other operands. After
// each abort it must decrypt to that previous plaintext or be gone (404),
// never fail the integrity check on a half-written ciphertext.
func TestInPlaceAbortNeverLeavesCorruptOut(t *testing.T) {
	s := newTestServer(t, nil)
	ten, apiErr := s.reg.create("abort", s.cfg.Scheme)
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	encrypt := func(seed int) string {
		t.Helper()
		r, apiErr := s.applyEncrypt(ten, testMsg(seed))
		if apiErr != nil {
			t.Fatal(apiErr)
		}
		return r.Handle
	}
	x, y := encrypt(40), encrypt(41)
	for _, tc := range []struct {
		op          string
		args, other []string // run operands; the destination's operands
		steps       int
	}{
		{"modswitch", []string{x}, []string{y}, 0},
		{"mul", []string{x, y}, []string{y, y}, 0},
		{"rotate", []string{x}, []string{y}, 3},
	} {
		finished := false
		for fireAt := 1; !finished && fireAt <= 64; fireAt++ {
			dst, apiErr := s.applyEval(context.Background(), ten, evalRequest{Op: tc.op, Args: tc.other, Steps: tc.steps})
			if apiErr != nil {
				t.Fatal(apiErr)
			}
			prev, apiErr := s.applyDecrypt(ten, dst.Handle)
			if apiErr != nil {
				t.Fatal(apiErr)
			}
			ctx := &countdownCtx{Context: context.Background(), fireAt: fireAt}
			req := evalRequest{Op: tc.op, Args: tc.args, Steps: tc.steps, Out: dst.Handle}
			if _, apiErr := s.applyEval(ctx, ten, req); apiErr == nil {
				finished = ctx.calls < fireAt // ran to completion: every check walked
			} else if apiErr.Code != CodeDeadline {
				t.Fatalf("%s check %d: got %v, want %s", tc.op, fireAt, apiErr, CodeDeadline)
			} else {
				got, apiErr := s.applyDecrypt(ten, dst.Handle)
				switch {
				case apiErr != nil && apiErr.Code == CodeUnknownHandle:
				case apiErr != nil:
					t.Fatalf("%s aborted at check %d: out decrypts to %v", tc.op, fireAt, apiErr)
				case !slices.Equal(got.Values, prev.Values):
					t.Fatalf("%s aborted at check %d: out no longer holds its previous plaintext", tc.op, fireAt)
				}
			}
			delete(ten.cts, dst.Handle)
		}
		if !finished {
			t.Fatalf("%s: the countdown never outlasted the evaluation", tc.op)
		}
	}
}
