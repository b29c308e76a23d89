// Package ring implements the generic polynomial-ring transform engine
// shared by every coefficient width. The paper's central comparison —
// double-word 128-bit residues versus conventional 64-bit RNS towers
// (Sections 1 and 8) — previously lived as two copy-pasted NTT stacks;
// here the Pease constant-geometry stage loop (one for both directions),
// pooled ping-pong scratch, negacyclic twist/untwist, the 1/N landing
// pass after the inverse stages, the process-wide plan cache, and the
// batch worker pool with its one dispatch frame (Fanout) are each
// implemented exactly once, generically over the element type. A
// Fanout's ranges are claimed by whichever goroutine is free, so a range
// may dispatch again: large negacyclic products and inverse transforms
// split across two goroutines, also from inside an RNS tower range.
// plan.go describes that schedule and its floors once, at
// PolyMulNegacyclicInto and mulFrame.inverse.
//
// A Ring[T] supplies the fused span kernels every transform runs (lazy
// Shoup spans for single-word rings; Barrett spans for double-word rings,
// with Shoup products on 52-bit limbs at the IFMA tier),
// each at the kernel tier the ring value was built with, plus the
// element arithmetic and number-theoretic setup table building needs.
// Plan[T, R] does everything else, and stores each twiddle table
// once, in the form its kernels read: one table per stage and direction,
// compact (one entry per run of equal twiddles) from runs of 8 up,
// dense below, with a Shoup word beside every twiddle where the ring's
// spans read one (every Shoup64 plan, and Barrett128 plans at the
// avx512ifma tier). The stack runs exactly two rings: Barrett128, whose
// Plan[u128.U128, Barrett128] is internal/ntt's Plan, and Shoup64 under
// the RNS towers (internal/ntt's Plan64 is a cached handle to a
// Plan[uint64, Shoup64]). Every Plan operation has one entry point, an
// …Into call that writes into a buffer the caller passes.
package ring

import (
	"mqxgo/internal/modmath"
	"mqxgo/internal/u128"
)

// Ring is what a Plan needs from its coefficient type: the span kernels
// every transform, product and elementwise pass runs, plus the element
// operations on reduced residues of type T that table building and
// AutomorphismCoeffInto read. Implementations must be cheap to copy by
// value; all methods must be safe for concurrent use.
type Ring[T any] interface {
	SpanKernels[T]
	// Neg returns -a mod q for reduced a.
	Neg(a T) T
	// Mul returns a * b mod q for reduced inputs.
	Mul(a, b T) T
	// Precompute returns the Shoup word the span kernels may read
	// alongside each fixed multiplicand w: floor(w * 2^W / q) for W-bit
	// residues, below 2^W.
	Precompute(w T) T
	// Inv returns the multiplicative inverse of a mod q (q prime).
	Inv(a T) T
	// FromUint64 embeds a small integer (v < q) as a reduced residue.
	FromUint64(v uint64) T
	// PrimitiveRootOfUnity returns an element of order exactly n, where
	// n is a power of two dividing q-1.
	PrimitiveRootOfUnity(n uint64) (T, error)

	// kernelTier reports the tier r's spans run (resolved when r was
	// built) and whether they read a Precompute word beside every table
	// twiddle.
	kernelTier() (tier KernelTier, withPre bool)
}

// Fingerprint keys the process-wide plan cache: the modulus words plus a
// caller-chosen tag separating plan types (and arithmetic configurations)
// that must never share an entry even at equal q.
type Fingerprint struct {
	QHi, QLo uint64
	Tag      uint32
}

// Barrett128 is the double-word ring over modmath.Modulus128: 128-bit
// residues with flattened word-level Barrett multiplication, the paper's
// primary configuration.
type Barrett128 struct {
	M *modmath.Modulus128

	// tier is the kernel tier r's spans run, resolved by
	// NewBarrett128Tier: TierAVX512IFMA, TierAVX512 or TierScalar (see
	// vecLen).
	tier KernelTier
}

// NewBarrett128 wraps a 128-bit Barrett modulus as a Ring. Its span
// kernels run the best supported tier: for moduli of 65 to 124 bits the
// AVX-512 IFMA bodies, else the AVX-512 ones, on a capable host; the
// scalar Go loops otherwise.
func NewBarrett128(m *modmath.Modulus128) Barrett128 { return NewBarrett128Tier(m, TierAuto) }

// NewBarrett128Tier wraps a 128-bit modulus with a kernel-tier request,
// resolved once here (see resolveKernelTier). The vector bodies serve
// moduli of 65 to 124 bits; any other modulus, and an AVX2 request (there
// is no AVX2 Barrett128 body), runs the scalar Go loops. Forcing
// TierScalar pins them as the differential ground truth.
func NewBarrett128Tier(m *modmath.Modulus128, tier KernelTier) Barrett128 {
	t := resolveKernelTier(tier)
	if m.N <= 64 || t < TierAVX512 {
		t = TierScalar
	}
	return Barrett128{M: m, tier: t}
}

// Only the IFMA tier reads a Shoup word beside each twiddle.
func (r Barrett128) kernelTier() (KernelTier, bool) { return r.tier, r.tier == TierAVX512IFMA }

func (r Barrett128) Neg(a u128.U128) u128.U128    { return r.M.Neg(a) }
func (r Barrett128) Mul(a, b u128.U128) u128.U128 { return r.M.Mul(a, b) }

// Precompute is the Shoup word floor(w * 2^128 / q) the IFMA spans
// multiply with.
func (r Barrett128) Precompute(w u128.U128) u128.U128 { return r.M.ShoupPrecompute(w) }
func (r Barrett128) Inv(a u128.U128) u128.U128        { return r.M.Inv(a) }
func (r Barrett128) FromUint64(v uint64) u128.U128    { return u128.From64(v) }

func (r Barrett128) PrimitiveRootOfUnity(n uint64) (u128.U128, error) {
	return r.M.PrimitiveRootOfUnity(n)
}

// Shoup64 is the single-word ring over modmath.Modulus64: 64-bit residues
// with Shoup one-correction twiddle multiplication, the RNS-tower
// configuration the paper contrasts with double-word residues.
type Shoup64 struct {
	M *modmath.Modulus64

	// tier is the kernel tier r's spans run, resolved by NewShoup64Tier:
	// TierScalar, TierAVX2 or TierAVX512 (see vecLen).
	tier KernelTier
}

// NewShoup64 wraps a 64-bit modulus as a Ring whose span kernels run the
// best supported tier (scalar, AVX2 or AVX-512).
func NewShoup64(m *modmath.Modulus64) Shoup64 { return NewShoup64Tier(m, TierAuto) }

// NewShoup64Tier wraps a 64-bit modulus with a kernel-tier request,
// resolved once here (see resolveKernelTier) and clamped to TierAVX512:
// there is no IFMA Shoup64 body. Forcing TierScalar pins the fused
// scalar Go kernels (the differential ground truth); tests and CI use
// this to push every tier through the same gates.
func NewShoup64Tier(m *modmath.Modulus64, tier KernelTier) Shoup64 {
	return Shoup64{M: m, tier: min(resolveKernelTier(tier), TierAVX512)}
}

// Every Shoup64 tier reads a Shoup word beside each twiddle.
func (r Shoup64) kernelTier() (KernelTier, bool) { return r.tier, true }

func (r Shoup64) Neg(a uint64) uint64    { return r.M.Neg(a) }
func (r Shoup64) Mul(a, b uint64) uint64 { return r.M.Mul(a, b) }

// Precompute is the Shoup word the lazy span kernels multiply with.
func (r Shoup64) Precompute(w uint64) uint64 { return r.M.ShoupPrecompute(w) }
func (r Shoup64) Inv(a uint64) uint64        { return r.M.Inv(a) }
func (r Shoup64) FromUint64(v uint64) uint64 { return v }

func (r Shoup64) PrimitiveRootOfUnity(n uint64) (uint64, error) {
	return r.M.PrimitiveRootOfUnity64(n)
}
