package ring

// SpanKernels is the optional fused-kernel extension of Ring[T]: whole-span
// loops that a ring instantiation may implement to devirtualize the
// transform inner loops. A Plan type-asserts its ring (for Shoup64, the
// kernel set of the ring's resolved tier) against this interface exactly
// once at build time; when the assertion succeeds the
// stage loops, the pointwise/twist passes of PolyMul*Into, and (through
// them) the batch path all dispatch one interface call per span instead of
// three dictionary-mediated element calls per butterfly. Rings that do not
// implement it keep the element-op fallback unchanged.
//
// Residue-domain contract: implementations may carry residues in a relaxed
// internal domain across spans (the lazy [0, 2q) discipline of Shoup64),
// as long as the composition the plan performs stays closed:
//
//   - transform-level inputs are canonical ([0, q)); every butterfly span
//     must also accept the implementation's own relaxed outputs, because
//     stages chain and the negacyclic twist (MulPreSpan) feeds stage 0;
//   - CTSpanLast, GSSpanLastScaled, MulPreNormSpan, MulSpan, ScalarMulSpan
//     and ScaleAddSpan produce canonical outputs — they are the transform
//     boundaries where the deferred normalization is folded in;
//   - CTSpan, GSSpan and MulPreSpan may produce relaxed outputs, which the
//     plan only ever routes back into the same implementation's spans.
//
// Strict implementations (Barrett128) simply keep relaxed == canonical.
// Every method must be allocation-free and safe for concurrent use;
// out/dst may alias the inputs only in the patterns the plan uses
// (butterfly spans read lo[i], hi[i] / in[2i], in[2i+1] before writing
// index i of their outputs; elementwise spans are read-before-write per
// index).
type SpanKernels[T any] interface {
	// CTSpan runs one non-final forward Pease stage over the whole span:
	// for each i, a, b := lo[i], hi[i]; out[2i] = a+b; out[2i+1] = (a-b)·w[i].
	CTSpan(out, lo, hi, w []T, pre []uint64)
	// CTSpanLast is the final forward stage: same dataflow, canonical
	// outputs (the deferred reduction lands here).
	CTSpanLast(out, lo, hi, w []T, pre []uint64)
	// GSSpan runs one non-final inverse stage: for each i,
	// e, o := in[2i], in[2i+1]; t := o·w[i]; oLo[i] = e+t; oHi[i] = e-t.
	GSSpan(oLo, oHi, in, w []T, pre []uint64)
	// GSSpanLastScaled is the final inverse stage with 1/N folded in: w is
	// the pre-scaled stage-0 table (twiddle·N⁻¹) and the even lane is
	// multiplied by nInv directly. Outputs are canonical.
	GSSpanLastScaled(oLo, oHi, in, w []T, pre []uint64, nInv T, nInvPre uint64)
	// MulSpan is the pointwise product dst[i] = a[i]·b[i] for canonical
	// inputs, canonical outputs (the evaluation-domain Hadamard step).
	MulSpan(dst, a, b []T)
	// MulPreSpan computes dst[i] = a[i]·w[i] using the precomputed table
	// constants (the negacyclic twist pass). Inputs canonical, outputs may
	// be relaxed.
	MulPreSpan(dst, a, w []T, pre []uint64)
	// MulPreNormSpan is MulPreSpan accepting relaxed inputs and producing
	// canonical outputs (the untwist pass, the last pass of a negacyclic
	// product).
	MulPreNormSpan(dst, a, w []T, pre []uint64)
	// ScalarMulSpan computes dst[i] = a[i]·w for one fixed canonical
	// scalar w with pre = Precompute(w). Canonical in and out.
	ScalarMulSpan(dst, a []T, w T, pre uint64)
	// ScaleAddSpan is the scale-accumulate kernel dst[i] = a[i] + m[i]·w
	// for small already-reduced integers m[i] < q (the encrypt-side
	// Δ·message fold of both fhe backends). Canonical in and out.
	ScaleAddSpan(dst, a []T, m []uint64, w T, pre uint64)
}

// BlockedSpanKernels is the optional blocked extension of SpanKernels.
// In the constant-geometry dataflow, stage s applies the same twiddle to
// every butterfly of a contiguous 2^s-run (stageExp clears the low s
// bits), so the dense N/2-entry stage table is 1<<s-fold redundant.
// Implementations of this interface accept the COMPACT table — one
// (w, pre) entry per run — and hoist the twiddle load out of the run
// loop. On a k-tower ladder the dense tables are the dominant share of
// transform memory traffic (2 streamed arrays per stage per direction per
// tower); compacting them is a pure-bandwidth win with bit-identical
// outputs, since the hoisted scalar is exactly the value the dense table
// repeats. The residue-domain contract matches the dense counterparts:
// CTSpanBlk/GSSpanBlk relaxed, CTSpanLastBlk canonical.
//
// Plans only dispatch blocked spans for blk >= 8 (below that the per-run
// overhead cancels the load savings), so implementations may assume
// blk is a power of two >= 8 dividing the span length.
type BlockedSpanKernels[T any] interface {
	// CTSpanBlk is CTSpan with w[b], pre[b] applied to butterflies
	// [b*blk, (b+1)*blk).
	CTSpanBlk(out, lo, hi, w []T, pre []uint64, blk int)
	// CTSpanLastBlk is CTSpanLast, blocked.
	CTSpanLastBlk(out, lo, hi, w []T, pre []uint64, blk int)
	// GSSpanBlk is GSSpan with w[b], pre[b] applied to butterflies
	// [b*blk, (b+1)*blk).
	GSSpanBlk(oLo, oHi, in, w []T, pre []uint64, blk int)
}
