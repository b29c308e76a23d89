package fhe

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"mqxgo/internal/rns"
	"mqxgo/internal/scratch"
)

// allocFixture builds a scheme on an RNS backend of levels towers of
// primeBits-bit primes at the given tower dispatch width (1 runs every
// step on the caller, wider widths go through the ring worker pool) with
// two encryptions of the same message and relin and Galois keys.
func allocFixture(t *testing.T, primeBits, levels, workers int) (*BackendScheme, BackendRelinKey, BackendGaloisKey, BackendCiphertext, BackendCiphertext) {
	t.Helper()
	const n, T = 256, 257
	c, err := rns.NewContext(primeBits, levels, n)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRNSBackendWorkers(c, T, workers)
	if err != nil {
		t.Fatal(err)
	}
	s := NewBackendScheme(b, 321)
	sk := s.KeyGen()
	rlk, rlkErr := s.RelinKeyGen(sk)
	if rlkErr != nil {
		t.Fatal(rlkErr)
	}
	gk, gkErr := s.GaloisKeyGen(sk)
	if gkErr != nil {
		t.Fatal(gkErr)
	}
	msg := make([]uint64, n)
	for i := range msg {
		msg[i] = uint64(3*i+1) % T
	}
	c1, err := s.Encrypt(sk, msg)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := s.Encrypt(sk, msg)
	if err != nil {
		t.Fatal(err)
	}
	return s, rlk, gk, c1, c2
}

// Steady-state allocation regression for the BEHZ multiply, extending the
// PR 1 discipline to the hot path in its PR 6 resting state: with the
// scratch pool warmed and a reused destination ciphertext, the scheme's
// in-place multiply on the RNS backend — operand validation, operand
// crossing, base extension, tensor, divide-and-round, relinearization,
// evaluation-domain return — must allocate nothing. (The 128-bit oracle backend is exempt by
// design: it trades allocation discipline for exact big-int arithmetic.)
func TestRNSMulCtDoesNotAllocate(t *testing.T) {
	if scratch.Race {
		t.Skip("race instrumentation allocates")
	}
	s, rlk, _, c1, c2 := allocFixture(t, 59, 2, 1)
	dst := BackendCiphertext{A: s.B.NewPolyAt(0), B: s.B.NewPolyAt(0)}
	if err := s.MulCiphertextsInto(context.Background(), &dst, c1, c2, rlk); err != nil { // warm the multiply and transform pools
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(10, func() {
		if err := s.MulCiphertextsInto(context.Background(), &dst, c1, c2, rlk); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("RNS MulCt allocates %.1f per run, want 0", got)
	}
}

// TestRNSMulCtSquaringDoesNotAllocate pins the squaring
// shortcut (aliased operands, deduplicated crossings and extensions) to
// the same zero-allocation bar — it is the ladder benchmark's exact
// workload.
func TestRNSMulCtSquaringDoesNotAllocate(t *testing.T) {
	if scratch.Race {
		t.Skip("race instrumentation allocates")
	}
	s, rlk, _, c1, _ := allocFixture(t, 59, 2, 1)
	dst := BackendCiphertext{A: s.B.NewPolyAt(0), B: s.B.NewPolyAt(0)}
	if err := s.MulCiphertextsInto(context.Background(), &dst, c1, c1, rlk); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(10, func() {
		if err := s.MulCiphertextsInto(context.Background(), &dst, c1, c1, rlk); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("RNS squaring allocates %.1f per run, want 0", got)
	}
}

// TestRNSModSwitchDoesNotAllocate extends the gate to the ladder
// primitive: with the Rescaler's scratch pool warmed and a reused
// destination ciphertext, dropping a level allocates nothing.
func TestRNSModSwitchDoesNotAllocate(t *testing.T) {
	if scratch.Race {
		t.Skip("race instrumentation allocates")
	}
	s, _, _, ct, _ := allocFixture(t, 59, 3, 1)
	dst := BackendCiphertext{A: s.B.NewPolyAt(1), B: s.B.NewPolyAt(1), Level: 1}
	if err := s.ModSwitchInto(context.Background(), &dst, ct); err != nil { // warm the rescale scratch pool
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(10, func() {
		if err := s.ModSwitchInto(context.Background(), &dst, ct); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("RNS ModSwitch allocates %.1f per run, want 0", got)
	}
}

// TestRNSRotateDoesNotAllocate extends the gate to the Galois key-switch
// chain: with the multiply scratch pool warmed and a reused destination,
// a multi-hop rotation — eval-domain permutation, gadget
// decomposition, fused MAC accumulation, landing — allocates nothing.
// Rotation is plain ring arithmetic mod Q, so the gate runs on the
// standard fixture regardless of the plaintext modulus.
func TestRNSRotateDoesNotAllocate(t *testing.T) {
	if scratch.Race {
		t.Skip("race instrumentation allocates")
	}
	s, _, gk, c1, _ := allocFixture(t, 59, 2, 1)
	dst := BackendCiphertext{A: s.B.NewPolyAt(0), B: s.B.NewPolyAt(0)}
	if err := s.RotateSlotsInto(context.Background(), &dst, c1, 3, gk); err != nil { // 2 hops; warms the pools
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(10, func() {
		if err := s.RotateSlotsInto(context.Background(), &dst, c1, 3, gk); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("RNS RotateSlots allocates %.1f per run, want 0", got)
	}
	if err := s.ConjugateInto(context.Background(), &dst, c1, gk); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(10, func() {
		if err := s.ConjugateInto(context.Background(), &dst, c1, gk); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("RNS Conjugate allocates %.1f per run, want 0", got)
	}
}

// TestRNSEvalWidth2DoesNotAllocate holds the tower-parallel
// configuration to the gates above: at dispatch width 2 every step of
// every evaluation op fans its towers out through the pooled frame's
// ring.Fanout, which must allocate nothing either.
func TestRNSEvalWidth2DoesNotAllocate(t *testing.T) {
	if scratch.Race {
		t.Skip("race instrumentation allocates")
	}
	s, rlk, gk, c1, c2 := allocFixture(t, 59, 3, 2)
	assertEvalOpsDoNotAllocate(t, "width 2", s, rlk, gk, c1, c2)
}

// TestRNSKeySwitchLandingDoesNotAllocate holds the key switch's in-place
// landings to the same bar: five 61-bit towers take fewer lazy products
// per accumulator row than they have digits, so every level-0 key switch
// lands its rows between digits, at width 1.
func TestRNSKeySwitchLandingDoesNotAllocate(t *testing.T) {
	if scratch.Race {
		t.Skip("race instrumentation allocates")
	}
	s, rlk, gk, c1, c2 := allocFixture(t, 61, 5, 1)
	if L := s.B.(*rnsBackend).levels[0].landEvery; L >= 5 {
		t.Fatalf("level 0 lands every %d digits, want fewer than 5", L)
	}
	assertEvalOpsDoNotAllocate(t, "61x5 width 1", s, rlk, gk, c1, c2)
}

// assertEvalOpsDoNotAllocate runs every in-place evaluation op at level 0
// of the fixture once to warm the frame, scratch and worker pools, then
// requires 0 allocs/op of each.
func assertEvalOpsDoNotAllocate(t *testing.T, label string, s *BackendScheme, rlk BackendRelinKey, gk BackendGaloisKey, c1, c2 BackendCiphertext) {
	t.Helper()
	ctx := context.Background()
	dst := BackendCiphertext{A: s.B.NewPolyAt(0), B: s.B.NewPolyAt(0)}
	down := BackendCiphertext{A: s.B.NewPolyAt(1), B: s.B.NewPolyAt(1), Level: 1}
	for name, op := range map[string]func() error{
		"mul":       func() error { return s.MulCiphertextsInto(ctx, &dst, c1, c2, rlk) },
		"square":    func() error { return s.MulCiphertextsInto(ctx, &dst, c1, c1, rlk) },
		"rotate":    func() error { return s.RotateSlotsInto(ctx, &dst, c1, 3, gk) },
		"conjugate": func() error { return s.ConjugateInto(ctx, &dst, c1, gk) },
		"modswitch": func() error { return s.ModSwitchInto(ctx, &down, c1) },
		"add":       func() error { return s.AddCiphertextsInto(ctx, &dst, c1, c2) },
	} {
		if err := op(); err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(10, func() {
			if err := op(); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			logAllocStacks(t, 10, func() { _ = op() })
			t.Errorf("%s at %s allocates %.1f per run, want 0", name, label, got)
		}
	}
}

// logAllocStacks re-runs op under runtime.MemProfileRate = 1 and logs
// the stack of every allocation the process made meanwhile, on any
// goroutine, so a gate that reads nonzero names its cause. It restores
// the rate before returning.
func logAllocStacks(t *testing.T, runs int, op func()) {
	t.Helper()
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := allocSites()
	for i := 0; i < runs; i++ {
		op()
	}
	after := allocSites()
	var b strings.Builder
	for stk, n := range after {
		if n -= before[stk]; n <= 0 {
			continue
		}
		var frames strings.Builder
		own := false
		for fs, more := runtime.CallersFrames((&runtime.MemProfileRecord{Stack0: stk}).Stack()), true; more; {
			var f runtime.Frame
			f, more = fs.Next()
			own = own || strings.HasSuffix(f.Function, ".allocSites")
			fmt.Fprintf(&frames, "\t%s\n\t\t%s:%d\n", f.Function, f.File, f.Line)
		}
		if !own {
			fmt.Fprintf(&b, "%d allocations in %d runs at\n%s", n, runs, frames.String())
		}
	}
	if b.Len() == 0 {
		t.Logf("re-run of %d under MemProfileRate=1 recorded no allocation", runs)
		return
	}
	t.Logf("re-run of %d under MemProfileRate=1:\n%s", runs, b.String())
}

// allocSites returns the allocation count of every profiled stack, after
// two collections so that the profile includes every allocation made
// before the call.
func allocSites() map[[32]uintptr]int64 {
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs := make([]runtime.MemProfileRecord, n+64)
		m, ok := runtime.MemProfile(recs, true)
		if !ok {
			n = m
			continue
		}
		sites := make(map[[32]uintptr]int64, m)
		for _, r := range recs[:m] {
			sites[r.Stack0] += r.AllocObjects
		}
		return sites
	}
}

// TestRNSDecryptAllocs pins the ciphertext edges. Decrypt rounds the phase
// in residues, in a pooled polynomial, so it allocates the plaintext it
// returns and nothing per coefficient; DecryptWithBudget measures the
// noise of that phase in fixed-width words and allocates no more (the
// big-integer measurement it replaced made one big.Int per coefficient);
// Encrypt allocates its fresh
// ciphertext and noise, within a bound of 11; and an in-place add
// allocates nothing.
func TestRNSDecryptAllocs(t *testing.T) {
	if scratch.Race {
		t.Skip("race instrumentation allocates")
	}
	const n, T = 256, 257
	c, err := rns.NewContext(59, 3, n)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRNSBackendWorkers(c, T, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := NewBackendScheme(b, 99)
	sk := s.KeyGen()
	msg := make([]uint64, n)
	for i := range msg {
		msg[i] = uint64(5*i+2) % T
	}
	ct, err := s.Encrypt(sk, msg)
	if err != nil {
		t.Fatal(err)
	}
	down, err := s.ModSwitchCtx(context.Background(), ct)
	if err != nil {
		t.Fatal(err)
	}
	dst := BackendCiphertext{A: b.NewPolyAt(0), B: b.NewPolyAt(0)}
	for _, gate := range []struct {
		name string
		max  float64
		op   func() error
	}{
		{"Decrypt", 2, func() error { _, err := s.Decrypt(sk, ct); return err }},
		{"Decrypt/level1", 2, func() error { _, err := s.Decrypt(sk, down); return err }},
		{"DecryptWithBudget", 2, func() error { _, _, err := s.DecryptWithBudget(sk, ct); return err }},
		{"DecryptWithBudget/level1", 2, func() error { _, _, err := s.DecryptWithBudget(sk, down); return err }},
		{"Encrypt", 11, func() error { _, err := s.Encrypt(sk, msg); return err }},
		{"AddCiphertextsInto", 0, func() error { return s.AddCiphertextsInto(context.Background(), &dst, ct, ct) }},
	} {
		if err := gate.op(); err != nil { // warm the scratch pools
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(10, func() {
			if err := gate.op(); err != nil {
				t.Fatal(err)
			}
		}); got > gate.max {
			t.Errorf("%s allocates %.1f per run, want at most %.0f", gate.name, got, gate.max)
		}
	}
}

// TestSlotEncoderDoesNotAllocate pins the plaintext-CRT transforms: with
// the encoder's scratch pool warmed, EncodeInto and DecodeInto allocate
// nothing — they are the per-request core of the serve layer's
// encode/decode ops.
func TestSlotEncoderDoesNotAllocate(t *testing.T) {
	if scratch.Race {
		t.Skip("race instrumentation allocates")
	}
	const n, T = 256, 40961
	e, err := NewSlotEncoder(n, T)
	if err != nil {
		t.Fatal(err)
	}
	slots := make([]uint64, n)
	msg := make([]uint64, n)
	for i := range slots {
		slots[i] = uint64(7*i+5) % T
	}
	if err := e.EncodeInto(msg, slots); err != nil { // warm the scratch pool
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(10, func() {
		if err := e.EncodeInto(msg, slots); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("EncodeInto allocates %.1f per run, want 0", got)
	}
	if got := testing.AllocsPerRun(10, func() {
		if err := e.DecodeInto(slots, msg); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("DecodeInto allocates %.1f per run, want 0", got)
	}
}
