// Package kernels builds the paper's double-word modular arithmetic kernels
// (Listings 1-3), and the single-word RNS-lane kernels beside them, as
// instruction streams on the internal/vm machine, once per ISA tier: scalar
// x86-64, AVX2, AVX-512 and MQX (including the Figure 6 sensitivity
// variants). perfmodel records their loop bodies for the modeled tables and
// figures, and perfmodel.ForwardVM runs a whole forward transform on them,
// which core.VerifyAllTiers checks against the native engine.
//
// The algorithms are written once against the Ops interface; each backend
// lowers the primitive operations to its ISA's best sequence. A backend with
// hardware carry support (scalar, MQX) lowers AddOut/Adc to single
// instructions; AVX-512 lowers them to the add/compare/mask sequences of
// Table 1 and Listing 2; AVX2 additionally pays for emulated unsigned
// comparisons. This reproduces exactly the instruction-count asymmetry the
// paper identifies as the AVX-512 bottleneck (Section 4).
package kernels

// Ops is the primitive vocabulary of double-word modular arithmetic over a
// backend's word type W (one or more 64-bit lanes) and condition type C
// (carry/borrow/comparison results: CPU flags, k-masks, or lane masks).
//
// Backends must be constructed before vm.Machine.BeginLoop is called so
// their internal constants land in the preamble.
type Ops[W, C any] interface {
	// Lanes returns how many 64-bit elements W holds.
	Lanes() int

	// Broadcast materializes a loop-invariant constant. Call before
	// BeginLoop so it lands in the preamble.
	Broadcast(x uint64) W
	// Load reads Lanes() contiguous words from s at index i.
	Load(s []uint64, i int) W
	// Store writes Lanes() contiguous words to s at index i.
	Store(s []uint64, i int, w W)

	Add(a, b W) W
	Sub(a, b W) W
	// MulWide is the full 64x64->128 widening multiply per lane.
	MulWide(a, b W) (hi, lo W)
	// MulLo is the low 64 bits of the product per lane.
	MulLo(a, b W) W

	// AddOut returns a+b and the carry-out (no carry-in).
	AddOut(a, b W) (W, C)
	// Adc returns a+b+ci and the carry-out.
	//
	// Emulated-carry backends (AVX-512/AVX2) use the detection sequence of
	// Table 1, which requires that a and b are never simultaneously the
	// all-ones word when ci is set; all kernel call sites satisfy this
	// because at least one operand is a product limb (<= 2^64-2) or a
	// value bounded by the 124-bit Barrett limit.
	Adc(a, b W, ci C) (W, C)
	// AddCW returns a + ci (carry-in only, no carry-out).
	AddCW(a W, ci C) W
	// SubOut returns a-b and the borrow-out (no borrow-in).
	SubOut(a, b W) (W, C)
	// Sbb returns a-b-bi and the borrow-out.
	Sbb(a, b W, bi C) (W, C)
	// SubCW returns a - bi (borrow-in only, no borrow-out).
	SubCW(a W, bi C) W
	// CondAddOut conditionally adds b where cond is set, with carry-out.
	CondAddOut(a W, cond C, b W) (W, C)

	// CmpLt / CmpLe / CmpEq are unsigned lane comparisons a<b, a<=b, a==b.
	CmpLt(a, b W) C
	CmpLe(a, b W) C
	CmpEq(a, b W) C

	COr(a, b C) C
	CAnd(a, b C) C

	// Select returns b where c is set, a elsewhere.
	Select(c C, a, b W) W

	// Interleave maps (even outputs, odd outputs) to consecutive-storage
	// order: r0 holds lanes {e0,o0,e1,o1,...} and r1 the upper half. For
	// a scalar backend this is the identity.
	Interleave(even, odd W) (r0, r1 W)

	// Shr and Shl are lane-wise shifts by an immediate.
	Shr(a W, n uint) W
	Shl(a W, n uint) W
	Or(a, b W) W
}

// MinUOps is the optional unsigned-minimum extension: VPMINUQ on AVX-512.
// Lazy-reduction kernels use it for the branchless conditional subtract
// min(x, x-c) — correct for ANY unsigned x, because a wrapped difference
// always exceeds the original value. Backends without a 64-bit unsigned
// minimum (scalar x86-64, AVX2) do not implement it and pay the
// compare/select sequence instead; generic code type-asserts.
type MinUOps[W any] interface {
	// MinU returns the lane-wise unsigned minimum of a and b.
	MinU(a, b W) W
}

// PredOps is the optional predicated-execution extension of Section 5.5
// (+M,C,P): predicated add/sub with carry/borrow-in that return the first
// operand in lanes where pred is clear, without producing a carry-out.
type PredOps[W, C any] interface {
	// HasPredication reports whether the backend was configured with the
	// +P instructions; generic code must check it before calling the
	// predicated ops (a backend type may implement them but have the
	// feature disabled for the current level).
	HasPredication() bool
	PredAdd(pred C, a, b W, ci C) W
	PredSub(pred C, a, b W, bi C) W
}
