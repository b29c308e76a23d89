package fhe

import (
	"context"
	"fmt"
	"math/big"
	"math/bits"
	"math/rand"
	"sync"
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
// fixes the ring degree N, the plaintext modulus T, and — since PR 5 — a
// modulus-switching LADDER: a decreasing chain of ciphertext moduli
// Q_0 > Q_1 > ... > Q_{L-1} built once at construction. Level 0 is the
// full modulus fresh encryptions live at; ModSwitch moves a ciphertext
// down one level (dividing coefficients — and noise — by the dropped
// factor), and every ciphertext-space operation takes the level it runs
// at, because the modulus, the plaintext scale Delta_l = floor(Q_l / T),
// and (for RNS) the tower count all depend on it. The scheme layer
// (BackendScheme) never sees coefficients.
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
	// NewPoly returns a zero polynomial at level 0.
	NewPoly() Poly
	// NewPolyAt returns a zero polynomial shaped for the given level.
	NewPolyAt(level int) Poly
	// Copy returns an independent copy of a (any level; the shape is
	// carried by the handle).
	Copy(a Poly) Poly
	// CheckCiphertext validates a ciphertext's provenance against this
	// backend: handle types, level range, per-level shape, and
	// coefficient ranges. It is the scheme layer's gate — a ciphertext
	// from another backend (or a corrupted one) fails here with an error
	// instead of crashing deeper in the pipeline.
	CheckCiphertext(ct BackendCiphertext) error
	// CheckPoly validates a single polynomial handle the same way:
	// backend type, the level's shape, and residue ranges.
	CheckPoly(level int, a Poly) error
	// Add computes dst = a + b at the given level; dst may alias a or b.
	Add(level int, dst, a, b Poly)
	// Sub computes dst = a - b at the given level; dst may alias a or b.
	Sub(level int, dst, a, b Poly)
	// MulNegacyclic computes dst = a*b in Z_{Q_l}[x]/(x^N + 1), both
	// operands in coefficient form.
	MulNegacyclic(level int, dst, a, b Poly)
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
	// coefficients (secret keys, noise). len(coeffs) must equal N.
	SetSigned(dst Poly, coeffs []int64)
	// SecretAt returns the level-0 secret (or any small signed
	// polynomial set by SetSigned) re-encoded at the given level. The
	// result may share storage with s and must be treated as read-only.
	SecretAt(level int, s Poly) Poly
	// AddDeltaMsg computes dst = a + Delta_l*msg for msg coefficients in
	// [0, T); dst may alias a.
	AddDeltaMsg(level int, dst, a Poly, msg []uint64)
	// RoundToPlain recovers round(a / Delta_l) mod T per coefficient.
	RoundToPlain(level int, a Poly) []uint64
	// DeltaBits is the bit length of Delta_l (the noise budget ceiling
	// at that level).
	DeltaBits(level int) int
	// NoiseBits returns the bit length of the largest centered noise
	// magnitude of a - Delta_l*msg, or 0 when the noise is exactly zero.
	NoiseBits(level int, a Poly, msg []uint64) int
	// RelinKeyGen builds a relinearization key for the secret s: at
	// every level of the chain, gadget encryptions of s^2 (stored in the
	// NTT domain) that MulCtCtx uses to bring a degree-2 tensor product
	// back to a degree-1 ciphertext. The key representation is
	// backend-owned and must not be mixed across backends.
	RelinKeyGen(s Poly, rng *rand.Rand) BackendRelinKey
	// MulCtCtx computes the homomorphic product of ct1 and ct2 into dst:
	// tensor product over the integers in the CURRENT level's basis,
	// rescale by T/Q_l, and relinearization with rlk's keys for that
	// level, so dst decrypts (degree-1, via the usual B - A*S) to the
	// negacyclic product of the plaintexts mod T, noise permitting.
	// ct1, ct2, and dst must share one level (set dst.Level before the
	// call; mismatched handles are rejected). Malformed handles,
	// mixed-backend keys, and out-of-range tensors (the oracle backend's
	// rescale detection) return errors. ctx is observed at the four phase
	// boundaries (base extension, tensor, divide-and-round,
	// relinearization): a phase runs to completion or not at all, and once
	// ctx fires the call returns ctx.Err() itself — errors.Is(err,
	// context.DeadlineExceeded) works without unwrapping — with dst's
	// contents unspecified, to be discarded.
	MulCtCtx(ctx context.Context, dst *BackendCiphertext, ct1, ct2 BackendCiphertext, rlk BackendRelinKey) error
	// ModSwitchCtx rescales ct from its level to level+1 into dst: every
	// coefficient becomes round(c * Q_{l+1} / Q_l), dividing the noise
	// by the dropped factor along with the modulus. dst must be shaped
	// for ct.Level+1 with dst.Level already set. ctx is observed before
	// the switch starts and between the two components, with MulCtCtx's
	// abort contract.
	ModSwitchCtx(ctx context.Context, dst *BackendCiphertext, ct BackendCiphertext) error
	// GaloisKeyGen builds the slot-rotation key set for the secret s: at
	// every level of the chain, gadget encryptions of tau_g(s) — the
	// same per-level NTT-domain gadget RelinKeyGen uses — for the
	// power-of-two rotation elements g = 3^(2^j) mod 2N plus the
	// conjugation element 2N-1. RotateSlotsCtx composes power-of-two hops,
	// so one key set covers every rotation amount with O(log N) key
	// material. The key representation is backend-owned and must not be
	// mixed across backends.
	GaloisKeyGen(s Poly, rng *rand.Rand) BackendGaloisKey
	// RotateSlotsCtx key-switches ct through the automorphism that
	// rotates both slot rows left by steps (negative steps rotate right),
	// writing the result into dst: dst must be shaped for ct's level with
	// dst.Level already matching, and its storage must not alias ct's
	// (rejected). ctx is observed before every power-of-two key-switch
	// hop, with MulCtCtx's abort contract.
	RotateSlotsCtx(ctx context.Context, dst *BackendCiphertext, ct BackendCiphertext, steps int, gk BackendGaloisKey) error
	// ConjugateCtx applies the row-swap automorphism x -> x^(2N-1) with
	// the same contract as RotateSlotsCtx.
	ConjugateCtx(ctx context.Context, dst *BackendCiphertext, ct BackendCiphertext, gk BackendGaloisKey) error
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

// BackendSecretKey is a small ternary secret polynomial (level 0).
type BackendSecretKey struct {
	S Poly
}

// BackendCiphertext is an RLWE pair (A, B) with B = A*S + E + Delta*M,
// tagged with the modulus-chain level its components live at. Both
// components always hold the level's twisted-evaluation (negacyclic NTT)
// values — double-CRT form on the RNS backend — so that evaluation runs
// on pointwise products and never on convolutions. Encrypt produces that
// form at level 0, every evaluation op consumes and produces it, and
// ModSwitch increments Level. Coefficient form exists only inside an
// operation that needs positional coefficients — Encrypt, Decrypt, the
// noise diagnostics, the plaintext operands of MulPlain and AddPlain, the
// BEHZ conversions, the oracle backend's exact arithmetic — and never in
// a handle.
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
// sync.Pools), and the sampling entry points — KeyGen, Encrypt,
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
}

// NewBackendScheme builds a scheme on b with the given seed.
func NewBackendScheme(b Backend, seed int64) *BackendScheme {
	return &BackendScheme{B: b, rng: rand.New(rand.NewSource(seed))}
}

// noiseBound bounds the centered error magnitude of fresh encryptions.
const noiseBound = 8

// KeyGen samples a ternary secret s with coefficients in {-1, 0, 1}.
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
	sk := s.B.NewPoly()
	s.B.SetSigned(sk, coeffs)
	return BackendSecretKey{S: sk}
}

// checkSecret validates a secret-key handle's provenance before it is
// handed to backend internals that index into it. A key from another
// backend (or a zero-value BackendSecretKey) fails here with an error
// instead of panicking in SecretAt's type assertion.
func (s *BackendScheme) checkSecret(sk BackendSecretKey) error {
	if sk.S == nil {
		return fmt.Errorf("fhe: nil secret key handle")
	}
	if err := s.B.CheckPoly(0, sk.S); err != nil {
		return fmt.Errorf("fhe: bad secret key: %w", err)
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

// checkCts validates every ciphertext's provenance against the backend
// and that they all sit at one level — the hardening gate every public
// entry point passes malformed inputs through instead of panicking.
//
//mqx:validator
func (s *BackendScheme) checkCts(cts ...BackendCiphertext) error {
	for i, ct := range cts {
		if err := s.B.CheckCiphertext(ct); err != nil {
			return err
		}
		if ct.Level != cts[0].Level {
			return fmt.Errorf("fhe: operand %d at level %d, operand 0 at level %d",
				i, ct.Level, cts[0].Level)
		}
	}
	return nil
}

// checkMulLevels, checkSwitchLevels and checkRotateLevels are the backend
// seam's tag checks, shared by both backends: they validate the Level
// tags of an evaluation call against a chain of `levels` rungs before any
// component is unpacked. Handle types and shapes are checked where the
// components are unpacked; residue ranges are CheckCiphertext's.
//
//mqx:validator
func checkMulLevels(levels int, dst *BackendCiphertext, ct1, ct2 BackendCiphertext) error {
	if ct1.Level != ct2.Level || dst.Level != ct1.Level {
		return fmt.Errorf("fhe: MulCt level mismatch: %d, %d -> %d", ct1.Level, ct2.Level, dst.Level)
	}
	if ct1.Level < 0 || ct1.Level >= levels {
		return fmt.Errorf("fhe: level %d outside the %d-level chain", ct1.Level, levels)
	}
	return nil
}

//mqx:validator
func checkSwitchLevels(levels int, dst *BackendCiphertext, ct BackendCiphertext) error {
	if ct.Level < 0 || ct.Level+1 >= levels {
		return fmt.Errorf("fhe: cannot switch below level %d of a %d-level chain", ct.Level, levels)
	}
	if dst.Level != ct.Level+1 {
		return fmt.Errorf("fhe: ModSwitch destination at level %d, want %d", dst.Level, ct.Level+1)
	}
	return nil
}

//mqx:validator
func checkRotateLevels(levels int, dst *BackendCiphertext, ct BackendCiphertext) error {
	if ct.Level < 0 || ct.Level >= levels {
		return fmt.Errorf("fhe: level %d outside the %d-level chain", ct.Level, levels)
	}
	if dst.Level != ct.Level {
		return fmt.Errorf("fhe: rotate level mismatch: %d -> %d", ct.Level, dst.Level)
	}
	return nil
}

// Encrypt encrypts a plaintext polynomial with coefficients in [0, T) at
// level 0, the top of the modulus chain. Sampling, key product, and
// message embedding happen in coefficient form, then both components
// forward-transform once into the evaluation form every ciphertext takes
// — the last mandatory transform until Decrypt, as far as the linear ops,
// MulCiphertextsCtx, and ModSwitchCtx are concerned.
func (s *BackendScheme) Encrypt(sk BackendSecretKey, msg []uint64) (BackendCiphertext, error) {
	if err := s.checkSecret(sk); err != nil {
		return BackendCiphertext{}, err
	}
	if err := s.checkMsg(msg); err != nil {
		return BackendCiphertext{}, err
	}
	b := s.B
	a := b.NewPoly()
	noise := make([]int64, b.N())
	s.rngMu.Lock()
	b.SampleUniform(a, s.rng)
	for i := range noise {
		noise[i] = int64(s.rng.Intn(2*noiseBound+1) - noiseBound)
	}
	s.rngMu.Unlock()
	e := b.NewPoly()
	b.SetSigned(e, noise)
	bb := b.NewPoly()
	b.MulNegacyclic(0, bb, a, sk.S) // A*S
	b.Add(0, bb, bb, e)             // + E
	b.AddDeltaMsg(0, bb, bb, msg)   // + Delta*M
	b.ToNTT(0, a, a)
	b.ToNTT(0, bb, bb)
	return BackendCiphertext{A: a, B: bb}, nil
}

// phase returns B - A*S = Delta_l*M + E in coefficient form at ct's
// level: the value decryption rounds and the noise diagnostics measure.
// The components cross to coefficient form in scratch copies (rounding
// needs positional coefficients); ct is never mutated.
func (s *BackendScheme) phase(sk BackendSecretKey, ct BackendCiphertext) Poly {
	b, l := s.B, ct.Level
	ca, cb := b.Copy(ct.A), b.Copy(ct.B)
	b.ToCoeff(l, ca, ca)
	b.ToCoeff(l, cb, cb)
	noisy := b.NewPolyAt(l)
	b.MulNegacyclic(l, noisy, ca, b.SecretAt(l, sk.S))
	b.Sub(l, noisy, cb, noisy)
	return noisy
}

// Decrypt recovers the plaintext at the ciphertext's level:
// round((B - A*S) * T / Q_l) mod T.
func (s *BackendScheme) Decrypt(sk BackendSecretKey, ct BackendCiphertext) ([]uint64, error) {
	if err := s.checkSecret(sk); err != nil {
		return nil, err
	}
	if err := s.checkCts(ct); err != nil {
		return nil, err
	}
	return s.B.RoundToPlain(ct.Level, s.phase(sk, ct)), nil
}

// AddCiphertexts is homomorphic addition: decrypts to the coefficient-wise
// sum of the plaintexts mod T (noise permitting). The operands must share
// a level.
func (s *BackendScheme) AddCiphertexts(c1, c2 BackendCiphertext) (BackendCiphertext, error) {
	if err := s.checkCts(c1, c2); err != nil {
		return BackendCiphertext{}, err
	}
	l := c1.Level
	out := BackendCiphertext{A: s.B.NewPolyAt(l), B: s.B.NewPolyAt(l), Level: l}
	s.B.Add(l, out.A, c1.A, c2.A)
	s.B.Add(l, out.B, c1.B, c2.B)
	return out, nil
}

// RelinKeyGen samples a relinearization key for sk, required by
// MulCiphertextsCtx. One key serves any number of multiplications at any
// level of the chain. A secret-key handle from another backend is
// rejected here — key generation indexes deep into the handle and must
// never see a foreign one.
func (s *BackendScheme) RelinKeyGen(sk BackendSecretKey) (BackendRelinKey, error) {
	if err := s.checkSecret(sk); err != nil {
		return nil, err
	}
	s.rngMu.Lock()
	defer s.rngMu.Unlock()
	return s.B.RelinKeyGen(sk.S, s.rng), nil
}

// GaloisKeyGen samples the slot-rotation key set for sk, required by
// RotateSlotsCtx and ConjugateCtx. One key set serves every rotation amount at
// every level of the chain (power-of-two hops compose). Foreign secret
// keys are rejected, as in RelinKeyGen.
func (s *BackendScheme) GaloisKeyGen(sk BackendSecretKey) (BackendGaloisKey, error) {
	if err := s.checkSecret(sk); err != nil {
		return nil, err
	}
	s.rngMu.Lock()
	defer s.rngMu.Unlock()
	return s.B.GaloisKeyGen(sk.S, s.rng), nil
}

// evalCtx is the shape the four evaluation entry points share: observe
// ctx before starting, validate the operands (one backend, one level),
// allocate the result drop levels below them, and run eval into it. On
// any error the zero ciphertext is returned, never a partially written
// one. Once the context has fired, that error is ctx.Err() itself,
// whether this check or one of the backend's phase boundaries saw it.
func (s *BackendScheme) evalCtx(ctx context.Context, drop int, eval func(out *BackendCiphertext) error, cts ...BackendCiphertext) (BackendCiphertext, error) {
	if err := ctx.Err(); err != nil {
		return BackendCiphertext{}, err
	}
	if err := s.checkCts(cts...); err != nil {
		return BackendCiphertext{}, err
	}
	l := cts[0].Level + drop
	if l >= s.B.Levels() {
		return BackendCiphertext{}, fmt.Errorf("fhe: ciphertext already at bottom level %d", cts[0].Level)
	}
	out := BackendCiphertext{A: s.B.NewPolyAt(l), B: s.B.NewPolyAt(l), Level: l}
	if err := eval(&out); err != nil {
		return BackendCiphertext{}, err
	}
	return out, nil
}

// MulCiphertextsCtx is homomorphic multiplication at the operands' shared
// level: the result decrypts to NegacyclicProductModT of the two
// plaintexts, noise permitting. Each multiply grows the noise roughly as
// documented at MulNoiseBoundBits; once the budget is gone, decryption
// fails. Running the chain down the modulus ladder (ModSwitchCtx between
// multiplies) makes every subsequent multiply cheaper — fewer towers,
// smaller transforms — at the same decryption correctness.
func (s *BackendScheme) MulCiphertextsCtx(ctx context.Context, c1, c2 BackendCiphertext, rlk BackendRelinKey) (BackendCiphertext, error) {
	return s.evalCtx(ctx, 0, func(out *BackendCiphertext) error {
		return s.B.MulCtCtx(ctx, out, c1, c2, rlk)
	}, c1, c2)
}

// ModSwitchCtx moves a ciphertext one level down the modulus chain:
// coefficients (and noise) are divided-and-rounded by the dropped modulus
// factor. The plaintext is unchanged; what shrinks is the cost of every
// subsequent operation. Fails when the ciphertext is malformed or already
// at the bottom of the chain.
func (s *BackendScheme) ModSwitchCtx(ctx context.Context, ct BackendCiphertext) (BackendCiphertext, error) {
	return s.evalCtx(ctx, 1, func(out *BackendCiphertext) error {
		return s.B.ModSwitchCtx(ctx, out, ct)
	}, ct)
}

// RotateSlotsCtx homomorphically rotates both slot rows of ct left by
// steps (negative steps rotate right): the result decrypts — after
// DecodeSlots — to the slot vector of ct rotated within each row. Requires
// a Galois key from this scheme's backend; the key-switch adds
// relin-gadget-sized noise per power-of-two hop.
func (s *BackendScheme) RotateSlotsCtx(ctx context.Context, ct BackendCiphertext, steps int, gk BackendGaloisKey) (BackendCiphertext, error) {
	return s.evalCtx(ctx, 0, func(out *BackendCiphertext) error {
		return s.B.RotateSlotsCtx(ctx, out, ct, steps, gk)
	}, ct)
}

// ConjugateCtx homomorphically swaps the two slot rows of ct (the Galois
// element -1), with the same contract as RotateSlotsCtx.
func (s *BackendScheme) ConjugateCtx(ctx context.Context, ct BackendCiphertext, gk BackendGaloisKey) (BackendCiphertext, error) {
	return s.evalCtx(ctx, 0, func(out *BackendCiphertext) error {
		return s.B.ConjugateCtx(ctx, out, ct, gk)
	}, ct)
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
// the coefficients. Diagnostic only (requires the secret key); the
// property tests compare it against MulNoiseBoundBits.
func (s *BackendScheme) NoiseBits(sk BackendSecretKey, ct BackendCiphertext, msg []uint64) (int, error) {
	if err := s.checkSecret(sk); err != nil {
		return 0, err
	}
	if err := s.checkCts(ct); err != nil {
		return 0, err
	}
	if len(msg) != s.B.N() {
		return 0, fmt.Errorf("fhe: message length mismatch")
	}
	return s.B.NoiseBits(ct.Level, s.phase(sk, ct), msg), nil
}

// NoiseBudgetBits estimates the remaining noise budget of a ciphertext in
// bits at its level: log2(Delta_l / (2*|noise|)) where noise =
// B - A*S - Delta_l*m. When it reaches zero, decryption starts failing.
// ModSwitch approximately preserves the budget (both Delta and the noise
// shrink by the dropped factor, up to a small additive rounding floor) —
// what it buys is cheaper arithmetic, not headroom. Diagnostic only
// (requires the secret key).
func (s *BackendScheme) NoiseBudgetBits(sk BackendSecretKey, ct BackendCiphertext, msg []uint64) (int, error) {
	nb, err := s.NoiseBits(sk, ct, msg)
	if err != nil {
		return 0, err
	}
	db := s.B.DeltaBits(ct.Level)
	if nb == 0 {
		return db, nil
	}
	return max(db-nb-1, 0), nil
}
