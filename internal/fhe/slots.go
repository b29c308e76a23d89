package fhe

import (
	"fmt"

	"mqxgo/internal/modmath"
	"mqxgo/internal/ntt"
	"mqxgo/internal/ring"
	"mqxgo/internal/scratch"
)

// Slot packing: the plaintext CRT. When the plaintext modulus T is an
// NTT-friendly prime for the ring degree n (T prime, 2n | T-1), the
// plaintext ring Z_T[x]/(x^n + 1) splits into n copies of Z_T — one per
// 2n-th root of unity — and a message polynomial IS a vector of n
// independent slots. Encoding is the inverse negacyclic NTT at modulus T;
// decoding the forward one. Ciphertext Add/MulCt then act slot-wise, and
// the Galois automorphisms (RotateSlots/Conjugate) permute the slots as
// two rows of n/2 — see internal/ring's galois tables for the layout.
//
// The encoder deliberately reuses the exact engine the ciphertext towers
// run on (ntt.Plan64 over a ring.Shoup64), so the slot order here and the
// evaluation-order permutation the rotations apply agree by construction.

// SlotEncoder maps slot vectors to message polynomials and back for one
// (n, T) pair. Safe for concurrent use; the Into variants allocate
// nothing in steady state.
type SlotEncoder struct {
	n    int
	t    uint64
	plan *ring.Plan[uint64, ring.Shoup64]
	pos  []int32 // slot index -> evaluation-order position

	scratch scratch.Pool[[]uint64] // rows of length n
}

// NewSlotEncoder builds the plaintext-CRT encoder for degree n and
// plaintext modulus t. It fails with a descriptive error when t does not
// support the CRT: t must be prime with 2n | t-1 (so x^n + 1 splits into
// linear factors mod t), and n a power of two >= 4 (the slot rows need
// the orbit structure of 3 in Z*_{2n}).
func NewSlotEncoder(n int, t uint64) (*SlotEncoder, error) {
	if n < 4 || n&(n-1) != 0 {
		return nil, fmt.Errorf("fhe: slot packing needs a power-of-two degree >= 4, got %d", n)
	}
	if !modmath.IsPrime64(t) {
		return nil, fmt.Errorf("fhe: plaintext modulus %d is not prime; slot packing needs the plaintext CRT", t)
	}
	if (t-1)%uint64(2*n) != 0 {
		return nil, fmt.Errorf("fhe: plaintext modulus %d is not NTT-friendly for degree %d (need 2n | t-1)", t, n)
	}
	mod, err := modmath.NewModulus64(t)
	if err != nil {
		return nil, err
	}
	plan, err := ntt.CachedPlan64(mod, n)
	if err != nil {
		return nil, err
	}
	pos, err := ring.SlotPositions(n)
	if err != nil {
		return nil, err
	}
	e := &SlotEncoder{n: n, t: t, plan: plan.Generic(), pos: pos}
	e.scratch.New = func() *[]uint64 {
		s := make([]uint64, n)
		return &s
	}
	e.scratch.Poison = func(s *[]uint64) { scratch.Fill(*s) }
	return e, nil
}

// EncodeInto writes into msg the message polynomial whose slot vector is
// slots. Slot values are reduced mod T. Both slices must have length n;
// msg may be exactly the slots slice (the transform stages through
// internal scratch), but partial overlap is not allowed. Steady-state it
// allocates nothing.
func (e *SlotEncoder) EncodeInto(msg, slots []uint64) error {
	if len(msg) != e.n || len(slots) != e.n {
		return fmt.Errorf("fhe: encode needs %d slots and %d coefficients, got %d and %d", e.n, e.n, len(slots), len(msg))
	}
	bp := e.scratch.Get()
	tmp := *bp
	for j, p := range e.pos {
		tmp[p] = slots[j] % e.t
	}
	e.plan.NegacyclicInverseInto(msg, tmp)
	e.scratch.Put(bp)
	return nil
}

// DecodeInto reads the slot vector of the message polynomial msg into
// slots. msg must hold canonical residues in [0, T) — exactly what
// Decrypt returns. slots may be exactly the msg slice, but partial
// overlap is not allowed. Steady-state it allocates nothing.
func (e *SlotEncoder) DecodeInto(slots, msg []uint64) error {
	if len(msg) != e.n || len(slots) != e.n {
		return fmt.Errorf("fhe: decode needs %d coefficients and %d slots, got %d and %d", e.n, e.n, len(msg), len(slots))
	}
	bp := e.scratch.Get()
	tmp := *bp
	e.plan.NegacyclicForwardInto(tmp, msg)
	for j, p := range e.pos {
		slots[j] = tmp[p]
	}
	e.scratch.Put(bp)
	return nil
}

// Encode is EncodeInto with an allocated result.
func (e *SlotEncoder) Encode(slots []uint64) ([]uint64, error) {
	msg := make([]uint64, e.n)
	if err := e.EncodeInto(msg, slots); err != nil {
		return nil, err
	}
	return msg, nil
}

// Decode is DecodeInto with an allocated result.
func (e *SlotEncoder) Decode(msg []uint64) ([]uint64, error) {
	slots := make([]uint64, e.n)
	if err := e.DecodeInto(slots, msg); err != nil {
		return nil, err
	}
	return slots, nil
}

// SlotEncoder returns the scheme's plaintext-CRT encoder, built lazily on
// first use from the backend's (N, T). The error is sticky: a scheme over
// a non-NTT-friendly plaintext modulus reports the same validation
// failure on every call, and the message ops keep working unpacked.
func (s *BackendScheme) SlotEncoder() (*SlotEncoder, error) {
	s.slotOnce.Do(func() {
		s.slotEnc, s.slotErr = NewSlotEncoder(s.B.N(), s.B.PlainModulus())
	})
	return s.slotEnc, s.slotErr
}

// EncodeSlots maps a slot vector to the message polynomial Encrypt
// expects. Fails when the scheme's plaintext modulus does not support the
// plaintext CRT.
func (s *BackendScheme) EncodeSlots(slots []uint64) ([]uint64, error) {
	e, err := s.SlotEncoder()
	if err != nil {
		return nil, err
	}
	return e.Encode(slots)
}

// DecodeSlots maps a decrypted message polynomial back to its slot
// vector.
func (s *BackendScheme) DecodeSlots(msg []uint64) ([]uint64, error) {
	e, err := s.SlotEncoder()
	if err != nil {
		return nil, err
	}
	return e.Decode(msg)
}

// EncodeSlotsInto is EncodeSlots without the allocation.
func (s *BackendScheme) EncodeSlotsInto(msg, slots []uint64) error {
	e, err := s.SlotEncoder()
	if err != nil {
		return err
	}
	return e.EncodeInto(msg, slots)
}

// DecodeSlotsInto is DecodeSlots without the allocation.
func (s *BackendScheme) DecodeSlotsInto(slots, msg []uint64) error {
	e, err := s.SlotEncoder()
	if err != nil {
		return err
	}
	return e.DecodeInto(slots, msg)
}
