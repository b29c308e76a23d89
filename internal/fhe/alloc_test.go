package fhe

import (
	"context"
	"testing"

	"mqxgo/internal/rns"
)

// allocFixture builds a width-1 RNS backend (the zero-allocation
// configuration: the tower dispatch runs on the caller, no pool
// submission) with two encryptions of the same message and relin and
// Galois keys.
func allocFixture(t *testing.T, levels int) (Backend, *BackendScheme, BackendRelinKey, BackendGaloisKey, BackendCiphertext, BackendCiphertext) {
	t.Helper()
	const n, T = 256, 257
	c, err := rns.NewContext(59, levels, n)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRNSBackendWorkers(c, T, 1)
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
	return b, s, rlk, gk, c1, c2
}

// Steady-state allocation regression for the BEHZ multiply, extending the
// PR 1 discipline to the hot path in its PR 6 resting state: with the
// scratch pool warmed and a reused destination ciphertext, the RNS
// backend's NTT-resident MulCt — operand crossing, base extension,
// tensor, divide-and-round, relinearization, resident return —
// must allocate nothing. (The 128-bit oracle backend is exempt by
// design: it trades allocation discipline for exact big-int arithmetic.)
func TestRNSMulCtDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	b, _, rlk, _, c1, c2 := allocFixture(t, 2)
	dst := BackendCiphertext{A: b.NewPoly(), B: b.NewPoly(), Domain: DomainNTT}
	if err := b.MulCtCtx(context.Background(), &dst, c1, c2, rlk); err != nil { // warm the multiply and transform pools
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(10, func() {
		if err := b.MulCtCtx(context.Background(), &dst, c1, c2, rlk); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("RNS resident MulCt allocates %.1f per run, want 0", got)
	}
}

// TestRNSMulCtSquaringDoesNotAllocate pins the resident squaring
// shortcut (aliased operands, deduplicated crossings and extensions) to
// the same zero-allocation bar — it is the ladder benchmark's exact
// workload.
func TestRNSMulCtSquaringDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	b, _, rlk, _, c1, _ := allocFixture(t, 2)
	dst := BackendCiphertext{A: b.NewPoly(), B: b.NewPoly(), Domain: DomainNTT}
	if err := b.MulCtCtx(context.Background(), &dst, c1, c1, rlk); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(10, func() {
		if err := b.MulCtCtx(context.Background(), &dst, c1, c1, rlk); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("RNS resident squaring allocates %.1f per run, want 0", got)
	}
}

// TestRNSMulCtCoeffDoesNotAllocate holds the coefficient-domain adapter
// (coeffIn / coeffOut around the resident steps, reached by handles that
// went through ConvertDomain) to the same gate: it parks the operand
// transforms in pooled rows, so it may not allocate either.
func TestRNSMulCtCoeffDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	b, s, rlk, _, c1, c2 := allocFixture(t, 2)
	cc1, err := s.ConvertDomain(c1, DomainCoeff)
	if err != nil {
		t.Fatal(err)
	}
	cc2, err := s.ConvertDomain(c2, DomainCoeff)
	if err != nil {
		t.Fatal(err)
	}
	dst := BackendCiphertext{A: b.NewPoly(), B: b.NewPoly()}
	if err := b.MulCtCtx(context.Background(), &dst, cc1, cc2, rlk); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(10, func() {
		if err := b.MulCtCtx(context.Background(), &dst, cc1, cc2, rlk); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("RNS coefficient MulCt allocates %.1f per run, want 0", got)
	}
}

// TestRNSModSwitchDoesNotAllocate extends the gate to the ladder
// primitive in its resident form: with the Rescaler's scratch pool warmed
// and a reused destination ciphertext, dropping a level of an NTT-domain
// ciphertext allocates nothing.
func TestRNSModSwitchDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	b, _, _, _, ct, _ := allocFixture(t, 3)
	dst := BackendCiphertext{A: b.NewPolyAt(1), B: b.NewPolyAt(1), Level: 1, Domain: DomainNTT}
	if err := b.ModSwitchCtx(context.Background(), &dst, ct); err != nil { // warm the rescale scratch pool
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(10, func() {
		if err := b.ModSwitchCtx(context.Background(), &dst, ct); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("RNS resident ModSwitch allocates %.1f per run, want 0", got)
	}
}

// TestRNSModSwitchCoeffDoesNotAllocate is the coefficient-domain variant.
func TestRNSModSwitchCoeffDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	b, s, _, _, ct, _ := allocFixture(t, 3)
	cct, err := s.ConvertDomain(ct, DomainCoeff)
	if err != nil {
		t.Fatal(err)
	}
	dst := BackendCiphertext{A: b.NewPolyAt(1), B: b.NewPolyAt(1), Level: 1}
	if err := b.ModSwitchCtx(context.Background(), &dst, cct); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(10, func() {
		if err := b.ModSwitchCtx(context.Background(), &dst, cct); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("RNS coefficient ModSwitch allocates %.1f per run, want 0", got)
	}
}

// TestRNSRotateDoesNotAllocate extends the gate to the Galois key-switch
// chain: with the multiply scratch pool warmed and a reused destination,
// a resident multi-hop rotation — eval-domain permutation, gadget
// decomposition, fused MAC accumulation, landing — allocates nothing.
// Rotation is plain ring arithmetic mod Q, so the gate runs on the
// standard fixture regardless of the plaintext modulus.
func TestRNSRotateDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	b, s, _, gk, c1, _ := allocFixture(t, 2)
	dst := BackendCiphertext{A: b.NewPoly(), B: b.NewPoly(), Domain: DomainNTT}
	if err := b.RotateSlotsCtx(context.Background(), &dst, c1, 3, gk); err != nil { // 2 hops; warms the pools
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(10, func() {
		if err := b.RotateSlotsCtx(context.Background(), &dst, c1, 3, gk); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("RNS resident RotateSlots allocates %.1f per run, want 0", got)
	}
	if err := b.ConjugateCtx(context.Background(), &dst, c1, gk); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(10, func() {
		if err := b.ConjugateCtx(context.Background(), &dst, c1, gk); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("RNS resident Conjugate allocates %.1f per run, want 0", got)
	}
	// The same chain on a coefficient-domain handle, through the adapter.
	cc1, err := s.ConvertDomain(c1, DomainCoeff)
	if err != nil {
		t.Fatal(err)
	}
	dst.Domain = DomainCoeff
	if err := b.RotateSlotsCtx(context.Background(), &dst, cc1, 3, gk); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(10, func() {
		if err := b.RotateSlotsCtx(context.Background(), &dst, cc1, 3, gk); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("RNS coefficient RotateSlots allocates %.1f per run, want 0", got)
	}
}

// TestSlotEncoderDoesNotAllocate pins the plaintext-CRT transforms: with
// the encoder's scratch pool warmed, EncodeInto and DecodeInto allocate
// nothing — they are the per-request core of the serve layer's
// encode/decode ops.
func TestSlotEncoderDoesNotAllocate(t *testing.T) {
	if raceEnabled {
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
