package fhe

import (
	"context"
	"fmt"
	"math/big"
	"math/bits"
	"math/rand"
	"sync"

	"mqxgo/internal/rns"
	"mqxgo/internal/scratch"
	"mqxgo/internal/u128"
)

// Poly is an opaque backend-owned polynomial handle: []u128.U128 for the
// 128-bit ring backend, rns.Poly for the RNS backend. Handles from
// different backends must never be mixed; the scheme layer validates
// provenance at every public entry point and returns errors instead of
// crashing when they are.
type Poly any

// Backend is the ring-arithmetic seam the RLWE scheme runs on: the
// paper's two hardware philosophies — one 124-bit double-word ring versus
// a basis of 64-bit RNS towers — as swappable implementations. A backend
// fixes the ring degree N, the plaintext modulus T, and a modulus-switching
// LADDER: a decreasing chain of ciphertext moduli Q_0 > Q_1 > ... >
// Q_{L-1} built once at construction. Level 0 is the full modulus fresh
// encryptions live at; a modulus switch moves a ciphertext down one level
// (dividing coefficients — and noise — by the dropped factor), and every
// ciphertext-space operation takes the level it runs at, because the
// modulus, the plaintext scale Delta_l = floor(Q_l / T), and (for RNS) the
// tower count all depend on it. The scheme layer (BackendScheme) never
// sees coefficients.
//
// Backends assume validated arguments. BackendScheme is the one
// validation perimeter: levels on the chain, operand handles of this
// backend, shaped for their level, with reduced residues. A backend checks
// only what it alone can: its key types and shapes, and the type, shape
// and aliasing of the destination it writes. The evaluation methods are
// unexported, so no caller outside the scheme can skip its checks.
type Backend interface {
	// Name identifies the backend in benchmarks and reports.
	Name() string
	// N is the ring degree.
	N() int
	// PlainModulus is the plaintext modulus T.
	PlainModulus() uint64
	// Levels is the length of the modulus chain; valid levels are
	// [0, Levels()-1], level 0 the widest.
	Levels() int
	// NewPolyAt returns a zero polynomial shaped for the given level.
	NewPolyAt(level int) Poly
	// Copy returns an independent copy of a (any level; the shape is
	// carried by the handle).
	Copy(a Poly) Poly
	// CheckPoly validates a polynomial handle at a level on the chain:
	// backend type, the level's shape, and residue ranges. It is the
	// scheme layer's gate — a handle from another backend (or a corrupted
	// one) fails here with an error instead of crashing deeper in the
	// pipeline.
	CheckPoly(level int, a Poly) error
	// checkDst validates the destination an in-place evaluation writes:
	// this backend's handles shaped for dst.Level. Its residues are about
	// to be overwritten, so they are not scanned.
	checkDst(dst *BackendCiphertext) error
	// Add computes dst = a + b at the given level; dst may alias a or b.
	Add(level int, dst, a, b Poly)
	// Sub computes dst = a - b at the given level; dst may alias a or b.
	Sub(level int, dst, a, b Poly)
	// ToNTT moves a (coefficient form at the given level) into the
	// twisted-evaluation domain: every tower/limb forward-transformed.
	// dst may alias a.
	ToNTT(level int, dst, a Poly)
	// ToCoeff is the inverse of ToNTT (1/N folded in). dst may alias a.
	ToCoeff(level int, dst, a Poly)
	// PMul computes the evaluation-domain pointwise product dst = a ∘ b
	// for operands already in the twisted NTT domain — the negacyclic
	// convolution of their coefficient forms. dst may alias a or b.
	PMul(level int, dst, a, b Poly)
	// SampleUniform overwrites dst (a level-0 polynomial) with a uniform
	// ring element.
	SampleUniform(dst Poly, rng *rand.Rand)
	// SetSigned overwrites dst (a level-0 polynomial) with small signed
	// coefficients (secret keys, noise), each of magnitude below every
	// level-0 modulus. len(coeffs) must equal N.
	SetSigned(dst Poly, coeffs []int64)
	// SecretAt returns the level-0 secret (or any small signed
	// polynomial set by SetSigned) re-encoded at the given level. The
	// result may share storage with s and must be treated as read-only.
	SecretAt(level int, s Poly) Poly
	// AddDeltaMsg computes dst = a + Delta_l*msg for msg coefficients in
	// [0, T); dst may alias a.
	AddDeltaMsg(level int, dst, a Poly, msg []uint64)
	// RoundToPlain recovers the plaintext of a phase a (coefficient form
	// at the given level) per coefficient: the oracle rounds a / Delta_l,
	// the RNS backend a * T / Q_l, both mod T. The two differ only near
	// half-integers; a phase Delta_l*m + e with |e| a hair below
	// Delta_l/2 - T (see rnsBackend.RoundToPlain) rounds to m on both.
	RoundToPlain(level int, a Poly) []uint64
	// DeltaBits is the bit length of Delta_l (the noise budget ceiling
	// at that level).
	DeltaBits(level int) int
	// NoiseBits returns the bit length of the largest centered noise
	// magnitude of a - Delta_l*msg modulo Q_l, or 0 when the noise is
	// exactly zero; msg entries are read mod T. It builds no big integer.
	NoiseBits(level int, a Poly, msg []uint64) int
	// RelinKeyGen builds a relinearization key for the secret s: at
	// every level of the chain, gadget encryptions of s^2 (stored in the
	// NTT domain) that mulCtx uses to bring a degree-2 tensor product
	// back to a degree-1 ciphertext. The key representation is
	// backend-owned and must not be mixed across backends.
	RelinKeyGen(s Poly, rng *rand.Rand) BackendRelinKey
	// mulCtx computes the homomorphic product of ct1 and ct2 into dst:
	// tensor product over the integers in the operands' level basis,
	// rescale by T/Q_l, and relinearization with rlk's keys for that
	// level, so dst decrypts (degree-1, via the usual B - A*S) to the
	// negacyclic product of the plaintexts mod T, noise permitting. dst is
	// tagged with the operands' level and may alias an operand. ctx is
	// observed at the four phase boundaries (base extension, tensor,
	// divide-and-round, relinearization): a phase runs to completion or not
	// at all, and once ctx fires the call returns ctx.Err() itself, with
	// dst's contents unspecified.
	mulCtx(ctx context.Context, dst *BackendCiphertext, ct1, ct2 BackendCiphertext, rlk BackendRelinKey) error
	// modSwitchCtx rescales ct from its level to level+1 into dst: every
	// coefficient becomes round(c * Q_{l+1} / Q_l), dividing the noise by
	// the dropped factor along with the modulus. ctx is observed before
	// the switch starts and between the two components, with mulCtx's
	// abort contract.
	modSwitchCtx(ctx context.Context, dst *BackendCiphertext, ct BackendCiphertext) error
	// GaloisKeyGen builds the slot-rotation key set for the secret s: at
	// every level of the chain, gadget encryptions of tau_g(s) — the
	// same per-level NTT-domain gadget RelinKeyGen uses — for the
	// power-of-two rotation elements g = 3^(2^j) mod 2N plus the
	// conjugation element 2N-1. A rotation composes power-of-two hops,
	// so one key set covers every rotation amount with O(log N) key
	// material. The key representation is backend-owned and must not be
	// mixed across backends.
	GaloisKeyGen(s Poly, rng *rand.Rand) BackendGaloisKey
	// galoisCtx key-switches ct through the automorphisms in hops, in
	// order, writing the result into dst at ct's level; dst's storage must
	// not alias ct's (rejected). No hops is the identity, a copy. ctx is
	// observed before every hop, with mulCtx's abort contract.
	galoisCtx(ctx context.Context, dst *BackendCiphertext, ct BackendCiphertext, hops galoisHops, gk BackendGaloisKey) error
	// MulNoiseModel returns the MulNoiseBoundBits parameters at a level —
	// the relinearization gadget digit count, the per-digit magnitude in
	// bits, and the base-conversion operand overshoot factor — so the
	// guardrail's noise prediction needs no backend type switches.
	MulNoiseModel(level int) (digits, digitBits, overshoot int)
}

// BackendRelinKey is an opaque backend-owned relinearization key handle.
type BackendRelinKey any

// BackendGaloisKey is an opaque backend-owned slot-rotation key handle.
type BackendGaloisKey any

// BackendSecretKey is a small ternary secret polynomial S (level 0, in
// coefficient form), together with its evaluation form at every level of
// the chain. KeyGen builds both; a key without the evaluation form is
// refused.
type BackendSecretKey struct {
	S Poly

	// sHat[l] = ToNTT(l, SecretAt(l, S)): the key product of Encrypt and
	// of the decryption phase is one pointwise product against it.
	sHat []Poly
}

// BackendCiphertext is an RLWE pair (A, B) with B = A*S + E + Delta*M,
// tagged with the modulus-chain level its components live at. Both
// components always hold the level's twisted-evaluation (negacyclic NTT)
// values — double-CRT form on the RNS backend — so that evaluation runs
// on pointwise products and never on convolutions. Encrypt produces that
// form at level 0, every evaluation op consumes and produces it, and
// ModSwitch increments Level. Coefficient form exists only inside an
// operation that needs positional coefficients — the samples Encrypt
// draws, the phase Decrypt rounds and the noise diagnostics measure, the
// plaintext operands of MulPlain and AddPlain, the BEHZ conversions, the
// oracle backend's exact arithmetic — and never in a handle.
type BackendCiphertext struct {
	A, B  Poly
	Level int
}

// BackendScheme is the symmetric-key RLWE ("BFV-style") scheme written
// once against the Backend seam. The rand.Rand source keeps examples and
// tests reproducible; production code would use crypto/rand.
//
// A BackendScheme is safe for concurrent use: the evaluation entry points
// share no mutable state (the backends keep per-call scratch in
// scratch.Pools), and the sampling entry points — KeyGen, Encrypt,
// RelinKeyGen — serialize on an internal mutex because rand.Rand is not
// goroutine-safe.
type BackendScheme struct {
	B Backend

	rngMu sync.Mutex
	rng   *rand.Rand

	// Slot encoder, built lazily on first EncodeSlots/DecodeSlots: it
	// exists only when the backend's (N, T) pair supports the plaintext
	// CRT, and the construction error is sticky.
	slotOnce sync.Once
	slotEnc  *SlotEncoder
	slotErr  error

	// scratch[l] pools level-l polynomials, contents unspecified: the
	// phase Decrypt, DecryptWithBudget and NoiseBits read, and the
	// noise-plus-message term of Encrypt.
	scratch []scratch.Pool[Poly]
}

// NewBackendScheme builds a scheme on b with the given seed.
func NewBackendScheme(b Backend, seed int64) *BackendScheme {
	s := &BackendScheme{B: b, rng: rand.New(rand.NewSource(seed))}
	s.scratch = make([]scratch.Pool[Poly], b.Levels())
	for l := range s.scratch {
		s.scratch[l].New = func() *Poly {
			p := b.NewPolyAt(l)
			return &p
		}
		s.scratch[l].Poison = poisonPoly
	}
	return s
}

// poisonPoly overwrites a pooled polynomial's coefficients with a
// non-residue (race builds only; see scratch.Pool).
func poisonPoly(p *Poly) {
	switch x := (*p).(type) {
	case rns.Poly:
		scratch.FillRows(x.Res)
	case []u128.U128:
		scratch.Fill(x)
	}
}

// noiseBound bounds the centered error magnitude of fresh encryptions.
const noiseBound = 8

// KeyGen samples a ternary secret s with coefficients in {-1, 0, 1} and
// derives its evaluation form at every level.
func (s *BackendScheme) KeyGen() BackendSecretKey {
	s.rngMu.Lock()
	defer s.rngMu.Unlock()
	n := s.B.N()
	coeffs := make([]int64, n)
	for i := range coeffs {
		switch s.rng.Intn(3) {
		case 0:
			coeffs[i] = 0
		case 1:
			coeffs[i] = 1
		default:
			coeffs[i] = -1
		}
	}
	sk := BackendSecretKey{S: s.B.NewPolyAt(0)}
	s.B.SetSigned(sk.S, coeffs)
	for l := 0; l < s.B.Levels(); l++ {
		sh := s.B.NewPolyAt(l)
		s.B.ToNTT(l, sh, s.B.SecretAt(l, sk.S))
		sk.sHat = append(sk.sHat, sh)
	}
	return sk
}

// checkSecret validates a secret-key handle's provenance before it is
// handed to backend internals that index into it: S, and the evaluation
// form at level, the one the caller reads. A key from another backend (or
// a zero-value BackendSecretKey, or one missing its evaluation form)
// fails here with an error instead of panicking in a type assertion.
// level must be on the chain.
func (s *BackendScheme) checkSecret(sk BackendSecretKey, level int) error {
	if sk.S == nil {
		return fmt.Errorf("fhe: nil secret key handle")
	}
	if err := s.B.CheckPoly(0, sk.S); err != nil {
		return fmt.Errorf("fhe: bad secret key: %w", err)
	}
	if len(sk.sHat) != s.B.Levels() {
		return fmt.Errorf("fhe: secret key carries %d evaluation-form levels, want %d (keys come from KeyGen)",
			len(sk.sHat), s.B.Levels())
	}
	if err := s.B.CheckPoly(level, sk.sHat[level]); err != nil {
		return fmt.Errorf("fhe: bad secret key evaluation form: %w", err)
	}
	return nil
}

func (s *BackendScheme) checkMsg(msg []uint64) error {
	if len(msg) != s.B.N() {
		return fmt.Errorf("fhe: message length %d != N %d", len(msg), s.B.N())
	}
	t := s.B.PlainModulus()
	for _, m := range msg {
		if m >= t {
			return fmt.Errorf("fhe: coefficient %d out of plaintext range", m)
		}
	}
	return nil
}

// checkCts validates every ciphertext against the backend — a level on
// the chain, both components this backend's handles shaped for it, with
// reduced residues — and that they all sit at one level: the hardening
// gate every public entry point passes malformed inputs through instead
// of panicking.
func (s *BackendScheme) checkCts(cts ...BackendCiphertext) error {
	for i, ct := range cts {
		if ct.Level < 0 || ct.Level >= s.B.Levels() {
			return fmt.Errorf("fhe: level %d outside the %d-level chain", ct.Level, s.B.Levels())
		}
		if ct.Level != cts[0].Level {
			return fmt.Errorf("fhe: operand %d at level %d, operand 0 at level %d",
				i, ct.Level, cts[0].Level)
		}
		if err := s.B.CheckPoly(ct.Level, ct.A); err != nil {
			return err
		}
		if err := s.B.CheckPoly(ct.Level, ct.B); err != nil {
			return err
		}
	}
	return nil
}

// Encrypt encrypts a plaintext polynomial with coefficients in [0, T) at
// level 0, the top of the modulus chain, straight into the evaluation form
// every ciphertext takes: A = NTT(a) for a uniform a, and B = A∘ŝ +
// NTT(e + Delta*M), the key product one pointwise product against the
// key's cached evaluation form. By the transform's linearity that is
// NTT(a*s + e + Delta*M) residue for residue, at two transforms per tower.
// The generator draws a, then e — the order every seeded ciphertext
// depends on.
func (s *BackendScheme) Encrypt(sk BackendSecretKey, msg []uint64) (BackendCiphertext, error) {
	if err := s.checkSecret(sk, 0); err != nil {
		return BackendCiphertext{}, err
	}
	if err := s.checkMsg(msg); err != nil {
		return BackendCiphertext{}, err
	}
	b := s.B
	a, bb := b.NewPolyAt(0), b.NewPolyAt(0)
	noise := make([]int64, b.N())
	s.rngMu.Lock()
	b.SampleUniform(a, s.rng)
	for i := range noise {
		noise[i] = int64(s.rng.Intn(2*noiseBound+1) - noiseBound)
	}
	s.rngMu.Unlock()
	ep := s.scratch[0].Get()
	defer s.scratch[0].Put(ep)
	e := *ep
	b.SetSigned(e, noise)        // E
	b.AddDeltaMsg(0, e, e, msg)  // + Delta*M
	b.ToNTT(0, e, e)             // NTT(E + Delta*M)
	b.ToNTT(0, a, a)             // A
	b.PMul(0, bb, a, sk.sHat[0]) // A∘ŝ
	b.Add(0, bb, bb, e)
	return BackendCiphertext{A: a, B: bb}, nil
}

// phase returns B - A*S = Delta_l*M + E in coefficient form at ct's
// level: the value decryption rounds and the noise diagnostics measure.
// It is B - A∘ŝ_l in the evaluation domain, then one inverse transform per
// tower, all in one polynomial taken from the level's scratch pool, which
// the caller Puts back; ct is never mutated.
func (s *BackendScheme) phase(sk BackendSecretKey, ct BackendCiphertext) *Poly {
	b, l := s.B, ct.Level
	pp := s.scratch[l].Get()
	p := *pp
	b.PMul(l, p, ct.A, sk.sHat[l])
	b.Sub(l, p, ct.B, p)
	b.ToCoeff(l, p, p)
	return pp
}

// Decrypt recovers the plaintext at the ciphertext's level:
// round((B - A*S) * T / Q_l) mod T.
func (s *BackendScheme) Decrypt(sk BackendSecretKey, ct BackendCiphertext) ([]uint64, error) {
	if err := s.checkCts(ct); err != nil {
		return nil, err
	}
	if err := s.checkSecret(sk, ct.Level); err != nil {
		return nil, err
	}
	p := s.phase(sk, ct)
	defer s.scratch[ct.Level].Put(p)
	return s.B.RoundToPlain(ct.Level, *p), nil
}

// DecryptWithBudget is Decrypt plus NoiseBudgetBits against the decrypted
// values, from one phase: it rounds the phase to the plaintext and
// measures that same phase's noise against it. A budget of 0 means the
// noise has reached Delta_l/2, where the rounded plaintext can no longer
// be told from garbage.
func (s *BackendScheme) DecryptWithBudget(sk BackendSecretKey, ct BackendCiphertext) (values []uint64, budgetBits int, err error) {
	if err := s.checkCts(ct); err != nil {
		return nil, 0, err
	}
	if err := s.checkSecret(sk, ct.Level); err != nil {
		return nil, 0, err
	}
	p := s.phase(sk, ct)
	defer s.scratch[ct.Level].Put(p)
	values = s.B.RoundToPlain(ct.Level, *p)
	return values, s.budgetBits(ct.Level, s.B.NoiseBits(ct.Level, *p, values)), nil
}

// AddCiphertextsInto is homomorphic addition into dst, shaped for and
// tagged with the operands' shared level: the result decrypts to the
// coefficient-wise sum of the plaintexts mod T, noise permitting. dst may
// be either operand. It shares MulCiphertextsInto's in-place contract.
func (s *BackendScheme) AddCiphertextsInto(ctx context.Context, dst *BackendCiphertext, c1, c2 BackendCiphertext) error {
	if err := s.checkEval(ctx, dst, 0, c1, c2); err != nil {
		return err
	}
	if err := s.B.checkDst(dst); err != nil {
		return err
	}
	s.B.Add(dst.Level, dst.A, c1.A, c2.A)
	s.B.Add(dst.Level, dst.B, c1.B, c2.B)
	return nil
}

// AddCiphertexts is AddCiphertextsInto into a fresh ciphertext.
func (s *BackendScheme) AddCiphertexts(c1, c2 BackendCiphertext) (BackendCiphertext, error) {
	out, err := s.newResult(c1.Level)
	if err == nil {
		err = s.AddCiphertextsInto(context.Background(), &out, c1, c2)
	}
	return resultOf(out, err)
}

// RelinKeyGen samples a relinearization key for sk, required by the
// multiply. One key serves any number of multiplications at any
// level of the chain. A secret-key handle from another backend is
// rejected here — key generation indexes deep into the handle and must
// never see a foreign one.
func (s *BackendScheme) RelinKeyGen(sk BackendSecretKey) (BackendRelinKey, error) {
	if err := s.checkSecret(sk, 0); err != nil {
		return nil, err
	}
	s.rngMu.Lock()
	defer s.rngMu.Unlock()
	return s.B.RelinKeyGen(sk.S, s.rng), nil
}

// GaloisKeyGen samples the slot-rotation key set for sk, required by
// rotation and conjugation. One key set serves every rotation amount at
// every level of the chain (power-of-two hops compose). Foreign secret
// keys are rejected, as in RelinKeyGen.
func (s *BackendScheme) GaloisKeyGen(sk BackendSecretKey) (BackendGaloisKey, error) {
	if err := s.checkSecret(sk, 0); err != nil {
		return nil, err
	}
	s.rngMu.Lock()
	defer s.rngMu.Unlock()
	return s.B.GaloisKeyGen(sk.S, s.rng), nil
}

// checkEval is the one validation of every in-place evaluation, in
// order: observe ctx, validate the operands (checkCts), and require dst
// tagged with the result level, drop levels below the operands' and on
// the chain. Only then may the backend run; it checks dst's handles
// itself, without scanning residues it is about to overwrite.
func (s *BackendScheme) checkEval(ctx context.Context, dst *BackendCiphertext, drop int, cts ...BackendCiphertext) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := s.checkCts(cts...); err != nil {
		return err
	}
	if want := cts[0].Level + drop; dst.Level != want || want >= s.B.Levels() {
		return fmt.Errorf("fhe: destination at level %d, result at level %d of a %d-level chain",
			dst.Level, want, s.B.Levels())
	}
	return nil
}

// newResult allocates the zero ciphertext an allocating evaluation call
// lands in, refusing a level off the chain before it allocates.
func (s *BackendScheme) newResult(level int) (BackendCiphertext, error) {
	if level < 0 || level >= s.B.Levels() {
		return BackendCiphertext{}, fmt.Errorf("fhe: result level %d outside the %d-level chain", level, s.B.Levels())
	}
	return BackendCiphertext{A: s.B.NewPolyAt(level), B: s.B.NewPolyAt(level), Level: level}, nil
}

// MulCiphertextsInto is homomorphic multiplication at the operands'
// shared level, into dst: the result decrypts to NegacyclicProductModT of
// the two plaintexts, noise permitting. dst must hold this backend's
// handles shaped for that level, with dst.Level set to it; it may alias
// an operand. Each multiply grows the noise roughly as documented at
// MulNoiseBoundBits; once the budget is gone, decryption fails. Running
// the chain down the modulus ladder (ModSwitchInto between multiplies)
// makes every subsequent multiply cheaper — fewer towers, smaller
// transforms — at the same decryption correctness.
//
// Every in-place call shares one contract: ctx is observed first and at
// each of the backend's phase boundaries, and once it fires the call
// returns ctx.Err() itself. On any error dst's contents are unspecified
// and must be discarded.
func (s *BackendScheme) MulCiphertextsInto(ctx context.Context, dst *BackendCiphertext, c1, c2 BackendCiphertext, rlk BackendRelinKey) error {
	if err := s.checkEval(ctx, dst, 0, c1, c2); err != nil {
		return err
	}
	return s.B.mulCtx(ctx, dst, c1, c2, rlk)
}

// ModSwitchInto moves a ciphertext one level down the modulus chain into
// dst, shaped for and tagged with ct.Level+1: coefficients (and noise) are
// divided-and-rounded by the dropped modulus factor. The plaintext is
// unchanged; what shrinks is the cost of every subsequent operation.
// Fails when the ciphertext is malformed or already at the bottom of the
// chain.
func (s *BackendScheme) ModSwitchInto(ctx context.Context, dst *BackendCiphertext, ct BackendCiphertext) error {
	if err := s.checkEval(ctx, dst, 1, ct); err != nil {
		return err
	}
	return s.B.modSwitchCtx(ctx, dst, ct)
}

// RotateSlotsInto homomorphically rotates both slot rows of ct left by
// steps (negative steps rotate right) into dst at ct's level: the result
// decrypts — after DecodeSlots — to the slot vector of ct rotated within
// each row. dst must not share storage with ct. Requires a Galois key
// from this scheme's backend; the key-switch adds relin-gadget-sized
// noise per power-of-two hop.
func (s *BackendScheme) RotateSlotsInto(ctx context.Context, dst *BackendCiphertext, ct BackendCiphertext, steps int, gk BackendGaloisKey) error {
	if err := s.checkEval(ctx, dst, 0, ct); err != nil {
		return err
	}
	return s.B.galoisCtx(ctx, dst, ct, s.rotationHops(steps), gk)
}

// ConjugateInto homomorphically swaps the two slot rows of ct (the Galois
// element -1), with the same contract as RotateSlotsInto.
func (s *BackendScheme) ConjugateInto(ctx context.Context, dst *BackendCiphertext, ct BackendCiphertext, gk BackendGaloisKey) error {
	if err := s.checkEval(ctx, dst, 0, ct); err != nil {
		return err
	}
	return s.B.galoisCtx(ctx, dst, ct, s.conjugationHops(), gk)
}

// MulCiphertextsCtx is MulCiphertextsInto into a fresh ciphertext. On any
// error the zero ciphertext is returned, never a partially written one;
// so for ModSwitchCtx and RotateSlotsCtx.
func (s *BackendScheme) MulCiphertextsCtx(ctx context.Context, c1, c2 BackendCiphertext, rlk BackendRelinKey) (BackendCiphertext, error) {
	out, err := s.newResult(c1.Level)
	if err == nil {
		err = s.MulCiphertextsInto(ctx, &out, c1, c2, rlk)
	}
	return resultOf(out, err)
}

// ModSwitchCtx is ModSwitchInto into a fresh ciphertext.
func (s *BackendScheme) ModSwitchCtx(ctx context.Context, ct BackendCiphertext) (BackendCiphertext, error) {
	out, err := s.newResult(ct.Level + 1)
	if err == nil {
		err = s.ModSwitchInto(ctx, &out, ct)
	}
	return resultOf(out, err)
}

// RotateSlotsCtx is RotateSlotsInto into a fresh ciphertext.
func (s *BackendScheme) RotateSlotsCtx(ctx context.Context, ct BackendCiphertext, steps int, gk BackendGaloisKey) (BackendCiphertext, error) {
	out, err := s.newResult(ct.Level)
	if err == nil {
		err = s.RotateSlotsInto(ctx, &out, ct, steps, gk)
	}
	return resultOf(out, err)
}

// resultOf returns an allocating call's result, or the zero ciphertext
// with err.
func resultOf(out BackendCiphertext, err error) (BackendCiphertext, error) {
	if err != nil {
		return BackendCiphertext{}, err
	}
	return out, nil
}

// MulNoiseBoundBits bounds the noise magnitude (in bits) of a MulCt
// result, turning the scheme's depth capacity into code instead of
// folklore. Writing 2^noiseBits for the operands' current noise
// magnitude, n for the ring degree, T for the plaintext modulus, digits
// gadget digits each of magnitude < 2^digitBits in the relin key, and
// overshoot for the base-conversion operand overshoot factor — how many
// multiples of Q an extended operand may carry: k-1 for the plain
// FastBConv PR 4 shipped, 1 for the m~-corrected conversion (PR 5,
// rns.MontBaseConverter), 0 for the oracle's exact integer tensor — the
// dominant post-multiply noise terms are
//
//	tensor scaling:   ~ 2*n*T*2^noiseBits * (1+overshoot)
//	                  (T/q * Delta*m_i * e_j cross terms; each operand's
//	                  overshoot multiple of Q survives the rescale as an
//	                  extra T * [operand](s) cross term, so the factor)
//	plaintext wrap:   ~ n*T^2             ((q mod T) * floor(m1*m2 / T): the
//	                                      integer plaintext product exceeds T
//	                                      and its excess folds into noise)
//	relinearization:  ~ digits*n*2^digitBits*noiseBound
//	conversion/round: ~ 2*(overshoot+2)*n^2  (divide-by-Q FastBConv
//	                                      overshoot + rounding, times ||s^2||_1)
//
// Decryption of the product round-trips while this stays below
// DeltaBits - 1 — the depth-1 property test asserts exactly that, the
// over-deep chain test shows the bound's growth exhausting the budget,
// and the m~ property test shows the overshoot=1 bound sitting strictly
// below the PR 4 overshoot=k-1 bound once the tensor term dominates.
func MulNoiseBoundBits(n int, t uint64, noiseBits, digits, digitBits, overshoot int) int {
	nb := new(big.Int).SetInt64(int64(n))
	tb := new(big.Int).SetUint64(t)
	tensor := new(big.Int).Lsh(big.NewInt(1), uint(noiseBits))
	tensor.Mul(tensor, nb).Mul(tensor, tb).Lsh(tensor, 1)
	tensor.Mul(tensor, big.NewInt(int64(1+overshoot)))
	wrap := new(big.Int).Mul(tb, tb)
	wrap.Mul(wrap, nb)
	relin := new(big.Int).Lsh(big.NewInt(1), uint(digitBits))
	relin.Mul(relin, nb).Mul(relin, big.NewInt(int64(digits)*noiseBound))
	conv := new(big.Int).Mul(nb, nb)
	conv.Mul(conv, big.NewInt(2*int64(overshoot+2)))
	sum := tensor.Add(tensor, wrap)
	sum.Add(sum, relin)
	sum.Add(sum, conv)
	return sum.BitLen() + 1
}

// MulPlain multiplies a ciphertext by a plaintext polynomial with small
// coefficients (negacyclic convolution of both components). pt must be a
// COEFFICIENT-form handle from this scheme's backend shaped for ct's
// level. pt forward-transforms once into scratch and both components take
// the pointwise product, so the multiply costs one transform instead of
// two negacyclic convolutions.
func (s *BackendScheme) MulPlain(ct BackendCiphertext, pt Poly) (BackendCiphertext, error) {
	if err := s.checkCts(ct); err != nil {
		return BackendCiphertext{}, err
	}
	l := ct.Level
	if err := s.B.CheckPoly(l, pt); err != nil {
		return BackendCiphertext{}, err
	}
	ev := s.B.Copy(pt)
	s.B.ToNTT(l, ev, ev)
	out := BackendCiphertext{A: s.B.NewPolyAt(l), B: s.B.NewPolyAt(l), Level: l}
	s.B.PMul(l, out.A, ct.A, ev)
	s.B.PMul(l, out.B, ct.B, ev)
	return out, nil
}

// AddPlain adds a plaintext message to a ciphertext without encrypting it
// first: only the B component moves, by the transform of Delta_l * m (the
// NTT is linear, so adding its image is adding the message).
func (s *BackendScheme) AddPlain(ct BackendCiphertext, msg []uint64) (BackendCiphertext, error) {
	if err := s.checkCts(ct); err != nil {
		return BackendCiphertext{}, err
	}
	if err := s.checkMsg(msg); err != nil {
		return BackendCiphertext{}, err
	}
	l := ct.Level
	dm := s.B.NewPolyAt(l)
	s.B.AddDeltaMsg(l, dm, dm, msg)
	s.B.ToNTT(l, dm, dm)
	out := BackendCiphertext{A: s.B.Copy(ct.A), B: s.B.NewPolyAt(l), Level: l}
	s.B.Add(l, out.B, ct.B, dm)
	return out, nil
}

// NegacyclicProductModT is the schoolbook product in Z_T[x]/(x^n + 1):
// the plaintext-side ground truth a MulCiphertextsCtx result decrypts to.
// O(n^2) — it exists for tests, demos, and benchmark gates, not for
// performance.
func NegacyclicProductModT(m1, m2 []uint64, t uint64) []uint64 {
	n := len(m1)
	out := make([]uint64, n)
	for i, a := range m1 {
		if a == 0 {
			continue
		}
		for j, b := range m2 {
			hi, lo := bits.Mul64(a%t, b%t)
			p := bits.Rem64(hi, lo, t)
			if i+j < n {
				out[i+j] = (out[i+j] + p) % t
			} else {
				out[i+j-n] = (out[i+j-n] + t - p) % t // x^n = -1
			}
		}
	}
	return out
}

// NoiseBits measures a ciphertext's noise magnitude in bits against the
// expected plaintext: the bit length of max |B - A*S - Delta_l*msg| over
// the coefficients, centred modulo Q_l. The RNS backend measures it in
// residues and fixed-width words, the oracle backend in 128-bit words;
// neither builds a big integer. Diagnostic (requires the secret key); the
// property tests compare it against MulNoiseBoundBits.
func (s *BackendScheme) NoiseBits(sk BackendSecretKey, ct BackendCiphertext, msg []uint64) (int, error) {
	if err := s.checkCts(ct); err != nil {
		return 0, err
	}
	if err := s.checkSecret(sk, ct.Level); err != nil {
		return 0, err
	}
	if len(msg) != s.B.N() {
		return 0, fmt.Errorf("fhe: message length mismatch")
	}
	p := s.phase(sk, ct)
	defer s.scratch[ct.Level].Put(p)
	return s.B.NoiseBits(ct.Level, *p, msg), nil
}

// NoiseBudgetBits estimates the remaining noise budget of a ciphertext in
// bits at its level: log2(Delta_l / (2*|noise|)) where noise =
// B - A*S - Delta_l*m, measured by the same pass as NoiseBits. When it
// reaches zero, decryption starts failing. ModSwitch approximately
// preserves the budget (both Delta and the noise shrink by the dropped
// factor, up to a small additive rounding floor) — what it buys is
// cheaper arithmetic, not headroom. Diagnostic (requires the secret key);
// DecryptWithBudget measures it against the decrypted values.
func (s *BackendScheme) NoiseBudgetBits(sk BackendSecretKey, ct BackendCiphertext, msg []uint64) (int, error) {
	nb, err := s.NoiseBits(sk, ct, msg)
	if err != nil {
		return 0, err
	}
	return s.budgetBits(ct.Level, nb), nil
}

// budgetBits is the budget left at level by noise of nb bits.
func (s *BackendScheme) budgetBits(level, nb int) int {
	db := s.B.DeltaBits(level)
	if nb == 0 {
		return db
	}
	return max(db-nb-1, 0)
}
