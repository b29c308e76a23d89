package ring

// SpanKernels is the fused-kernel half of Ring[T]: the whole-span loops
// every Plan operation runs, at the kernel tier the ring was built with.
// A Plan binds its ring exactly once at build time; the stage loops, the twist/pointwise/untwist passes, the elementwise entry
// points and (through them) the batch path then dispatch one interface
// call per span.
//
// Residue-domain contract: implementations may carry residues in a relaxed
// internal domain across spans (the lazy [0, 2q) discipline of Shoup64),
// as long as the composition the plan performs stays closed:
//
//   - transform-level inputs are canonical ([0, q)); every butterfly span
//     must also accept the implementation's own relaxed outputs, because
//     stages chain and the negacyclic twist (MulPreSpan) feeds stage 0;
//   - CTSpanLast, MulPreNormSpan, MulSpan, ScalarMulSpan and ScaleAddSpan
//     produce canonical outputs — they are the transform boundaries where
//     the deferred normalization is folded in; MulPreNormSpan and
//     ScalarMulSpan also accept relaxed inputs, because each lands an
//     inverse transform's 1/N on the last GS stage's output;
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
	// scalar w with pre = Precompute(w). Inputs may be relaxed (the last
	// GS stage's output, rns's lazy [0, 2q) conversion rows); outputs are
	// canonical.
	ScalarMulSpan(dst, a []T, w T, pre uint64)
	// ScaleAddSpan is the scale-accumulate kernel dst[i] = a[i] + m[i]·w
	// for small already-reduced integers m[i] < q (the encrypt-side
	// Δ·message fold of both fhe backends). Canonical in and out.
	ScaleAddSpan(dst, a []T, m []uint64, w T, pre uint64)
}

// BlockedSpanKernels is the optional blocked extension of SpanKernels.
// In the constant-geometry dataflow, stage s applies the same twiddle to
// every butterfly of a contiguous 2^s-run (stageExp clears the low s
// bits), so a dense N/2-entry stage table would be 1<<s-fold redundant.
// Implementations of this interface read the COMPACT table — one
// (w, pre) entry per run — and hoist the twiddle load out of the run
// loop. A plan whose kernels have these spans stores only the compact
// table for every stage they run, which on a k-tower ladder removes the
// dominant share of transform memory traffic (2 streamed arrays per
// stage per direction per tower) and of plan memory, with bit-identical
// outputs, since the hoisted scalar is exactly the value a dense table
// would repeat. The residue-domain contract matches the dense
// counterparts: CTSpanBlk/GSSpanBlk relaxed, CTSpanLastBlk canonical.
//
// Plans only store compact tables for blk >= 8 (below that the per-run
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
