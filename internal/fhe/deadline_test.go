package fhe

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"mqxgo/internal/faultinject"
	"mqxgo/internal/modmath"
	"mqxgo/internal/rns"
	"mqxgo/internal/scratch"
)

// countdownCtx is a deterministic context whose Err() starts returning
// context.DeadlineExceeded on its fireAt-th call (1-based; 0 = never).
// It lets the tests aim a deadline expiry at an exact phase boundary
// instead of racing a wall-clock timer against the evaluation.
type countdownCtx struct {
	context.Context
	calls  int
	fireAt int
}

func newCountdown(fireAt int) *countdownCtx {
	return &countdownCtx{Context: context.Background(), fireAt: fireAt}
}

func (c *countdownCtx) Err() error {
	c.calls++
	if c.fireAt > 0 && c.calls >= c.fireAt {
		return context.DeadlineExceeded
	}
	return nil
}

// deadlineFixtures builds one ready-to-multiply state per backend the
// deadline contract must hold on: the RNS backend in its sequential
// zero-alloc configuration, the RNS backend with pool dispatch, and the
// 128-bit oracle.
func deadlineFixtures(t *testing.T) map[string]struct {
	s      *BackendScheme
	sk     BackendSecretKey
	rlk    BackendRelinKey
	c1, c2 BackendCiphertext
	want   []uint64
} {
	t.Helper()
	const n, T = 256, 257
	out := map[string]struct {
		s      *BackendScheme
		sk     BackendSecretKey
		rlk    BackendRelinKey
		c1, c2 BackendCiphertext
		want   []uint64
	}{}
	build := func(name string, b Backend) {
		s := NewBackendScheme(b, 987)
		sk := s.KeyGen()
		rlk, err := s.RelinKeyGen(sk)
		if err != nil {
			t.Fatal(err)
		}
		msg := make([]uint64, n)
		for i := range msg {
			msg[i] = uint64(5*i+2) % T
		}
		c1, err := s.Encrypt(sk, msg)
		if err != nil {
			t.Fatal(err)
		}
		c2, err := s.Encrypt(sk, msg)
		if err != nil {
			t.Fatal(err)
		}
		want := NegacyclicProductModT(msg, msg, T)
		out[name] = struct {
			s      *BackendScheme
			sk     BackendSecretKey
			rlk    BackendRelinKey
			c1, c2 BackendCiphertext
			want   []uint64
		}{s, sk, rlk, c1, c2, want}
	}

	c, err := rns.NewContext(59, 2, n)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := NewRNSBackendWorkers(c, T, 1)
	if err != nil {
		t.Fatal(err)
	}
	build("rns_sequential", seq)
	par, err := NewRNSBackendWorkers(c, T, 2)
	if err != nil {
		t.Fatal(err)
	}
	build("rns_parallel", par)
	p, err := NewParams(modmath.DefaultModulus128(), n, T)
	if err != nil {
		t.Fatal(err)
	}
	build("oracle", NewRingBackend(p))
	return out
}

// TestMulCtCtxAbortsAtEveryPhaseBoundary walks the deadline through every
// context observation point of the multiply on every backend: for each
// possible firing position it asserts the call aborts with an unwrapped
// context.DeadlineExceeded and returns the zero ciphertext — never a
// partially-written one — and that with the deadline past all boundaries
// the multiply completes and decrypts correctly.
func TestMulCtCtxAbortsAtEveryPhaseBoundary(t *testing.T) {
	for name, f := range deadlineFixtures(t) {
		t.Run(name, func(t *testing.T) {
			probe := newCountdown(0)
			out, err := f.s.MulCiphertextsCtx(probe, f.c1, f.c2, f.rlk)
			if err != nil {
				t.Fatal(err)
			}
			// The scheme pre-check plus the four BEHZ phase gates.
			if probe.calls < 5 {
				t.Fatalf("multiply observed the context %d times, want >= 5 (pre-check + 4 phases)", probe.calls)
			}
			got, err := f.s.Decrypt(f.sk, out)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if got[i] != f.want[i] {
					t.Fatalf("uncancelled multiply wrong at coeff %d: got %d want %d", i, got[i], f.want[i])
				}
			}
			for k := 1; k <= probe.calls; k++ {
				cc := newCountdown(k)
				aborted, err := f.s.MulCiphertextsCtx(cc, f.c1, f.c2, f.rlk)
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("deadline at check %d/%d: got err %v, want context.DeadlineExceeded", k, probe.calls, err)
				}
				if err != context.DeadlineExceeded {
					t.Fatalf("deadline at check %d: error %v is wrapped, want ctx.Err() itself", k, err)
				}
				if aborted.A != nil || aborted.B != nil {
					t.Fatalf("deadline at check %d: aborted multiply returned a non-zero ciphertext", k)
				}
			}
		})
	}
}

// TestModSwitchCtxAborts does the same walk for the ladder primitive.
func TestModSwitchCtxAborts(t *testing.T) {
	for name, f := range deadlineFixtures(t) {
		t.Run(name, func(t *testing.T) {
			probe := newCountdown(0)
			out, err := f.s.ModSwitchCtx(probe, f.c1)
			if err != nil {
				t.Fatal(err)
			}
			if probe.calls < 2 {
				t.Fatalf("modswitch observed the context %d times, want >= 2", probe.calls)
			}
			got, err := f.s.Decrypt(f.sk, out)
			if err != nil {
				t.Fatal(err)
			}
			msg := make([]uint64, len(got))
			copy(msg, got)
			for k := 1; k <= probe.calls; k++ {
				cc := newCountdown(k)
				aborted, err := f.s.ModSwitchCtx(cc, f.c1)
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("deadline at check %d/%d: got err %v, want context.DeadlineExceeded", k, probe.calls, err)
				}
				if aborted.A != nil || aborted.B != nil {
					t.Fatalf("deadline at check %d: aborted modswitch returned a non-zero ciphertext", k)
				}
			}
		})
	}
}

// TestDeadlineErrorIdentity pins the contract against the real context
// package: an expired timeout surfaces as context.DeadlineExceeded, a
// cancellation as context.Canceled, both matchable with errors.Is.
func TestDeadlineErrorIdentity(t *testing.T) {
	f := deadlineFixtures(t)["rns_sequential"]
	expired, cancelTimeout := context.WithTimeout(context.Background(), -1)
	defer cancelTimeout()
	if _, err := f.s.MulCiphertextsCtx(expired, f.c1, f.c2, f.rlk); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired timeout: got %v, want context.DeadlineExceeded", err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.s.MulCiphertextsCtx(cancelled, f.c1, f.c2, f.rlk); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context: got %v, want context.Canceled", err)
	}
	if _, err := f.s.ModSwitchCtx(cancelled, f.c1); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled modswitch: got %v, want context.Canceled", err)
	}
	gk, err := f.s.GaloisKeyGen(f.sk)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.s.RotateSlotsCtx(cancelled, f.c1, 1, gk); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled rotate: got %v, want context.Canceled", err)
	}
}

// TestCancelledMulLeaksNoPooledBuffers is the serving-layer leak gate: a
// request aborted by its deadline mid-pipeline must return its scratch
// frame to the pool (cancellation is clean — only panics quarantine), so
// a long run of cancelled evaluations allocates nothing and leaves the
// warmed pool intact for the next successful multiply.
func TestCancelledMulLeaksNoPooledBuffers(t *testing.T) {
	if scratch.Race {
		t.Skip("race instrumentation allocates")
	}
	s, rlk, _, c1, c2 := allocFixture(t, 59, 2, 1)
	dst := BackendCiphertext{A: s.B.NewPolyAt(0), B: s.B.NewPolyAt(0)}
	if err := s.MulCiphertextsInto(context.Background(), &dst, c1, c2, rlk); err != nil { // warm the scratch pool
		t.Fatal(err)
	}
	before := QuarantinedScratch()
	cc := newCountdown(0)
	totalPhases := 4
	for i := 0; i < 1000; i++ {
		cc.calls = 0
		// Check 1 is the scheme's entry check; 2..5 are the four phases.
		cc.fireAt = 2 + i%totalPhases // rotate the abort across every phase
		if err := s.MulCiphertextsInto(cc, &dst, c1, c2, rlk); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("cancelled request %d: got err %v", i, err)
		}
	}
	if got := QuarantinedScratch(); got != before {
		t.Fatalf("cancellation quarantined %d scratch frames, want 0", got-before)
	}
	if got := testing.AllocsPerRun(100, func() {
		cc.calls = 0
		cc.fireAt = 3
		if err := s.MulCiphertextsInto(cc, &dst, c1, c2, rlk); err == nil {
			t.Fatal("countdown context did not fire")
		}
	}); got != 0 {
		t.Errorf("cancelled MulCiphertextsInto allocates %.1f per run, want 0", got)
	}
	if got := testing.AllocsPerRun(10, func() {
		cc.calls = 0
		cc.fireAt = 0
		if err := s.MulCiphertextsInto(cc, &dst, c1, c2, rlk); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("post-cancellation MulCiphertextsInto allocates %.1f per run, want 0 (pool leaked)", got)
	}
}

// TestSharedBackendConcurrentEval is the -race hammer for the serving
// topology: ONE backend and ONE scheme shared by many goroutines, each
// concurrently encrypting (exercising the scheme's rng lock), multiplying
// through the pooled scratch, switching a level, and verifying its own
// decryption. Any data race on the shared evaluation state trips the race
// detector; any cross-request scratch corruption trips the decrypt check.
func TestSharedBackendConcurrentEval(t *testing.T) {
	const n, T = 256, 257
	c, err := rns.NewContext(59, 2, n)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRNSBackendWorkers(c, T, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := NewBackendScheme(b, 4242)
	sk := s.KeyGen()
	rlk, err := s.RelinKeyGen(sk)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, iters = 8, 4
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			msg := make([]uint64, n)
			for i := range msg {
				msg[i] = uint64(g*131+7*i+1) % T
			}
			want := NegacyclicProductModT(msg, msg, T)
			for it := 0; it < iters; it++ {
				c1, err := s.Encrypt(sk, msg)
				if err != nil {
					errs <- err
					return
				}
				c2, err := s.Encrypt(sk, msg)
				if err != nil {
					errs <- err
					return
				}
				prod, err := s.MulCiphertextsCtx(context.Background(), c1, c2, rlk)
				if err != nil {
					errs <- err
					return
				}
				low, err := s.ModSwitchCtx(context.Background(), prod)
				if err != nil {
					errs <- err
					return
				}
				got, err := s.Decrypt(sk, low)
				if err != nil {
					errs <- err
					return
				}
				for i := range got {
					if got[i] != want[i] {
						errs <- fmt.Errorf("goroutine %d iter %d: coeff %d got %d want %d", g, it, i, got[i], want[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPanicQuarantinesScratch forces a panic inside the tensor phase via
// fault injection and asserts the pooled scratch frame is quarantined —
// not recycled — and that the backend keeps producing correct products
// afterwards from a fresh frame. Needs the faultinject build tag.
func TestPanicQuarantinesScratch(t *testing.T) {
	if !faultinject.Enabled {
		t.Skip("requires -tags faultinject")
	}
	f := deadlineFixtures(t)["rns_sequential"]
	if err := faultinject.Arm(faultinject.Spec{Site: faultinject.SiteMulTensor, Kind: faultinject.KindPanic, Count: 1}); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()
	before := QuarantinedScratch()
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("armed panic did not fire")
			}
			if _, ok := r.(faultinject.InjectedPanic); !ok {
				t.Fatalf("recovered %v (%T), want faultinject.InjectedPanic", r, r)
			}
		}()
		_, _ = f.s.MulCiphertextsCtx(context.Background(), f.c1, f.c2, f.rlk)
	}()
	if got := QuarantinedScratch(); got != before+1 {
		t.Fatalf("quarantined count went %d -> %d, want +1", before, got)
	}
	out, err := f.s.MulCiphertextsCtx(context.Background(), f.c1, f.c2, f.rlk)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.s.Decrypt(f.sk, out)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != f.want[i] {
			t.Fatalf("post-quarantine multiply wrong at coeff %d: got %d want %d", i, got[i], f.want[i])
		}
	}
}
