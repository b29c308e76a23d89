package ring

// The vector kernel tier below the span seam: AVX2 and AVX-512 assembly
// implementations of the Shoup64 span bodies, selected once at plan build
// (selectKernels -> resolveKernelTier). One type, shoup64SIMD, wraps
// both: the tiers run the same lane algorithms at different widths, so
// each wrapper takes the full-vector prefix for its tier (4 or 8 lanes),
// calls that tier's assembly body, and lets the embedded scalar kernels
// finish any tail. The scalar kernels remain the bit-exactness ground
// truth the differential suite compares against.
//
// Bit identity holds because every lane computes the same residues the
// scalar loops do: the relaxed [0, 2q) kernels produce identical
// unnormalized words (same adds, same Shoup quotient, same wrapping
// arithmetic mod 2^64), and the canonical kernels produce the unique
// canonical residue. CTSpanLast, CTSpanLastBlk and MulPreNormSpan
// decompose as their relaxed kernel + a conditional-subtract
// normalization pass (x -= q if x >= q), which commutes elementwise with
// the scalar fused form. The inverse has no final-stage body: every
// inverse stage is GSSpan or GSSpanBlk, and the pass after them
// (ScalarMulSpan's 1/N, the untwist) lands the normalization.
//
// The wrappers call the assembly directly, one call site per tier:
// //go:noescape only covers direct calls, so dispatching through func
// values would make every slice argument escape.

// Dense-span assembly, AVX-512 (8 lanes; F for VPMINUQ/VPERMT2Q, DQ for
// VPMULLQ). n is the butterfly/element count, a multiple of 8.

//go:noescape
func ctSpanAVX512(q uint64, out, lo, hi, w, pre *uint64, n int)

//go:noescape
func gsSpanAVX512(q uint64, oLo, oHi, in, w, pre *uint64, n int)

//go:noescape
func mulSpanAVX512(q, mu uint64, dst, a, b *uint64, n int, s1, s2, s3, s4 uint64)

//go:noescape
func mulPreSpanAVX512(q uint64, dst, a, w, pre *uint64, n int)

//go:noescape
func scalarMulSpanAVX512(q uint64, dst, a *uint64, n int, w, pre uint64)

//go:noescape
func scaleAddSpanAVX512(q uint64, dst, a, m *uint64, n int, w, pre uint64)

//go:noescape
func normSpanAVX512(q uint64, v *uint64, n int)

//go:noescape
func ctSpanBlkAVX512(q uint64, out, lo, hi, w, pre *uint64, nBlocks, blk int)

//go:noescape
func gsSpanBlkAVX512(q uint64, oLo, oHi, in, w, pre *uint64, nBlocks, blk int)

//go:noescape
func macFinal2SpanAVX512(q uint64, accA, accB, lo, hi, wA, preA, wB, preB *uint64, n int)

//go:noescape
func affineRowsSpanAVX512(q uint64, dst *uint64, c0 uint64, rows *[]uint64, w, pre *uint64, nrows, n int)

// Dense-span assembly, AVX2 (4 lanes). Same contracts.

//go:noescape
func ctSpanAVX2(q uint64, out, lo, hi, w, pre *uint64, n int)

//go:noescape
func gsSpanAVX2(q uint64, oLo, oHi, in, w, pre *uint64, n int)

//go:noescape
func mulSpanAVX2(q, mu uint64, dst, a, b *uint64, n int, s1, s2, s3, s4 uint64)

//go:noescape
func mulPreSpanAVX2(q uint64, dst, a, w, pre *uint64, n int)

//go:noescape
func scalarMulSpanAVX2(q uint64, dst, a *uint64, n int, w, pre uint64)

//go:noescape
func scaleAddSpanAVX2(q uint64, dst, a, m *uint64, n int, w, pre uint64)

//go:noescape
func normSpanAVX2(q uint64, v *uint64, n int)

//go:noescape
func ctSpanBlkAVX2(q uint64, out, lo, hi, w, pre *uint64, nBlocks, blk int)

//go:noescape
func gsSpanBlkAVX2(q uint64, oLo, oHi, in, w, pre *uint64, nBlocks, blk int)

//go:noescape
func macFinal2SpanAVX2(q uint64, accA, accB, lo, hi, wA, preA, wB, preB *uint64, n int)

//go:noescape
func affineRowsSpanAVX2(q uint64, dst *uint64, c0 uint64, rows *[]uint64, w, pre *uint64, nrows, n int)

// selectKernels resolves the requested tier against the environment knob
// and the CPU's ceiling and returns the matching kernel set with its tier.
// Every Shoup64 tier reads a Shoup word beside each twiddle.
func (r Shoup64) selectKernels() (SpanKernels[uint64], KernelTier, bool) {
	switch t := resolveKernelTier(r.tier); t {
	case TierAVX2, TierAVX512:
		return shoup64SIMD{r, t == TierAVX512}, t, true
	}
	return r, TierScalar, true
}

// Barrett shift amounts for MulSpan, hoisted per call (they depend only
// on the modulus bit length nb): t1 = lo>>s1 | hi<<s2, qhat = l2>>s3 |
// h2<<s4 — exactly modmath.Barrett64Reduce's splits.
func barrettShifts(nb uint) (s1, s2, s3, s4 uint64) {
	return uint64(nb - 1), uint64(65 - nb), uint64(nb + 1), uint64(63 - nb)
}

// shoup64SIMD is the vector tier. wide selects the 8-lane AVX-512 bodies
// (VPMINUQ carries every conditional subtract as min(x, x-c), branchless
// and correct for any x; VPMULLQ the low products; VPERMT2Q the butterfly
// interleaves); otherwise the 4-lane AVX2 bodies run (sign-flipped
// VPCMPGTQ + VPBLENDVB conditional subtracts, VPMULUDQ-composed 64-bit
// products, unpack/permute interleaves).
type shoup64SIMD struct {
	Shoup64
	wide bool
}

// vecLen is the full-vector prefix of an n-element span at this tier's
// lane width; the embedded scalar kernels finish the rest.
func (r shoup64SIMD) vecLen(n int) int {
	if r.wide {
		return n &^ 7
	}
	return n &^ 3
}

func (r shoup64SIMD) CTSpan(out, lo, hi, w []uint64, pre []uint64) {
	n := len(w)
	nv := r.vecLen(n)
	switch {
	case nv > 0 && r.wide:
		ctSpanAVX512(r.M.Q, &out[0], &lo[0], &hi[0], &w[0], &pre[0], nv)
	case nv > 0:
		ctSpanAVX2(r.M.Q, &out[0], &lo[0], &hi[0], &w[0], &pre[0], nv)
	}
	if nv < n {
		r.Shoup64.CTSpan(out[2*nv:], lo[nv:], hi[nv:], w[nv:], pre[nv:])
	}
}

func (r shoup64SIMD) CTSpanLast(out, lo, hi, w []uint64, pre []uint64) {
	r.CTSpan(out, lo, hi, w, pre)
	r.normSpan(out[:2*len(w)])
}

func (r shoup64SIMD) GSSpan(oLo, oHi, in, w []uint64, pre []uint64) {
	n := len(w)
	nv := r.vecLen(n)
	switch {
	case nv > 0 && r.wide:
		gsSpanAVX512(r.M.Q, &oLo[0], &oHi[0], &in[0], &w[0], &pre[0], nv)
	case nv > 0:
		gsSpanAVX2(r.M.Q, &oLo[0], &oHi[0], &in[0], &w[0], &pre[0], nv)
	}
	if nv < n {
		r.Shoup64.GSSpan(oLo[nv:], oHi[nv:], in[2*nv:], w[nv:], pre[nv:])
	}
}

func (r shoup64SIMD) MulSpan(dst, a, b []uint64) {
	n := len(dst)
	nv := r.vecLen(n)
	s1, s2, s3, s4 := barrettShifts(r.M.N)
	switch {
	case nv > 0 && r.wide:
		mulSpanAVX512(r.M.Q, r.M.Mu, &dst[0], &a[0], &b[0], nv, s1, s2, s3, s4)
	case nv > 0:
		mulSpanAVX2(r.M.Q, r.M.Mu, &dst[0], &a[0], &b[0], nv, s1, s2, s3, s4)
	}
	if nv < n {
		r.Shoup64.MulSpan(dst[nv:], a[nv:], b[nv:])
	}
}

func (r shoup64SIMD) MulPreSpan(dst, a, w []uint64, pre []uint64) {
	n := len(dst)
	nv := r.vecLen(n)
	switch {
	case nv > 0 && r.wide:
		mulPreSpanAVX512(r.M.Q, &dst[0], &a[0], &w[0], &pre[0], nv)
	case nv > 0:
		mulPreSpanAVX2(r.M.Q, &dst[0], &a[0], &w[0], &pre[0], nv)
	}
	if nv < n {
		r.Shoup64.MulPreSpan(dst[nv:], a[nv:], w[nv:], pre[nv:])
	}
}

func (r shoup64SIMD) MulPreNormSpan(dst, a, w []uint64, pre []uint64) {
	r.MulPreSpan(dst, a, w, pre)
	r.normSpan(dst)
}

func (r shoup64SIMD) ScalarMulSpan(dst, a []uint64, w uint64, pre uint64) {
	n := len(dst)
	nv := r.vecLen(n)
	switch {
	case nv > 0 && r.wide:
		scalarMulSpanAVX512(r.M.Q, &dst[0], &a[0], nv, w, pre)
	case nv > 0:
		scalarMulSpanAVX2(r.M.Q, &dst[0], &a[0], nv, w, pre)
	}
	if nv < n {
		r.Shoup64.ScalarMulSpan(dst[nv:], a[nv:], w, pre)
	}
}

func (r shoup64SIMD) ScaleAddSpan(dst, a []uint64, m []uint64, w uint64, pre uint64) {
	n := len(dst)
	nv := r.vecLen(n)
	switch {
	case nv > 0 && r.wide:
		scaleAddSpanAVX512(r.M.Q, &dst[0], &a[0], &m[0], nv, w, pre)
	case nv > 0:
		scaleAddSpanAVX2(r.M.Q, &dst[0], &a[0], &m[0], nv, w, pre)
	}
	if nv < n {
		r.Shoup64.ScaleAddSpan(dst[nv:], a[nv:], m[nv:], w, pre)
	}
}

// normSpan lands the deferred normalization: v[i] -= q where v[i] >= q,
// for v in [0, 2q). Composing a relaxed kernel with this pass is
// elementwise identical to the scalar fused final-stage kernels.
func (r shoup64SIMD) normSpan(v []uint64) {
	n := len(v)
	nv := r.vecLen(n)
	switch {
	case nv > 0 && r.wide:
		normSpanAVX512(r.M.Q, &v[0], nv)
	case nv > 0:
		normSpanAVX2(r.M.Q, &v[0], nv)
	}
	q := r.M.Q
	for i := nv; i < n; i++ {
		if v[i] >= q {
			v[i] -= q
		}
	}
}

// Blocked kernels: blk is a power of two >= 8 (the plan's dispatch
// floor), so it always divides into full vectors at either width and the
// block loop lives inside the assembly — one call per stage, not per run.

func (r shoup64SIMD) CTSpanBlk(out, lo, hi, w []uint64, pre []uint64, blk int) {
	switch {
	case len(w) > 0 && r.wide:
		ctSpanBlkAVX512(r.M.Q, &out[0], &lo[0], &hi[0], &w[0], &pre[0], len(w), blk)
	case len(w) > 0:
		ctSpanBlkAVX2(r.M.Q, &out[0], &lo[0], &hi[0], &w[0], &pre[0], len(w), blk)
	}
}

func (r shoup64SIMD) CTSpanLastBlk(out, lo, hi, w []uint64, pre []uint64, blk int) {
	r.CTSpanBlk(out, lo, hi, w, pre, blk)
	r.normSpan(out[:2*len(w)*blk])
}

func (r shoup64SIMD) GSSpanBlk(oLo, oHi, in, w []uint64, pre []uint64, blk int) {
	switch {
	case len(w) > 0 && r.wide:
		gsSpanBlkAVX512(r.M.Q, &oLo[0], &oHi[0], &in[0], &w[0], &pre[0], len(w), blk)
	case len(w) > 0:
		gsSpanBlkAVX2(r.M.Q, &oLo[0], &oHi[0], &in[0], &w[0], &pre[0], len(w), blk)
	}
}

// MACFinal2Span is the fused relin-MAC final stage: the unit-twiddle
// add/sub pass of CTSpanLast interleaved in registers with the two-row
// lazy Shoup MAC, so the transform output never touches memory.
func (r shoup64SIMD) MACFinal2Span(accA, accB, lo, hi, wA, preA, wB, preB []uint64) {
	n := len(lo)
	nv := r.vecLen(n)
	switch {
	case nv > 0 && r.wide:
		macFinal2SpanAVX512(r.M.Q, &accA[0], &accB[0], &lo[0], &hi[0], &wA[0], &preA[0], &wB[0], &preB[0], nv)
	case nv > 0:
		macFinal2SpanAVX2(r.M.Q, &accA[0], &accB[0], &lo[0], &hi[0], &wA[0], &preA[0], &wB[0], &preB[0], nv)
	}
	if nv < n {
		macFinal2SpanScalar(r.M.Q, accA[2*nv:], accB[2*nv:], lo[nv:], hi[nv:],
			wA[2*nv:], preA[2*nv:], wB[2*nv:], preB[2*nv:])
	}
}

// AffineRowsSpan is the affine-combination-of-rows body: the row loop runs
// inside the assembly with the accumulator in a register, so each output
// element is written once however many rows feed it.
func (r shoup64SIMD) AffineRowsSpan(dst []uint64, c0 uint64, rows [][]uint64, w, pre []uint64) {
	nv := r.vecLen(len(dst))
	if len(rows) == 0 {
		nv = 0
	}
	switch {
	case nv > 0 && r.wide:
		affineRowsSpanAVX512(r.M.Q, &dst[0], c0, &rows[0], &w[0], &pre[0], len(rows), nv)
	case nv > 0:
		affineRowsSpanAVX2(r.M.Q, &dst[0], c0, &rows[0], &w[0], &pre[0], len(rows), nv)
	}
	affineRowsSpanScalar(r.M.Q, dst, c0, rows, w, pre, nv)
}
