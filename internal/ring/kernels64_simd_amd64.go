package ring

// The vector kernel tier below the span seam: AVX2 and AVX-512 assembly
// implementations of the Shoup64 span bodies, selected once at plan build
// (selectKernels -> resolveKernelTier) and substituted through the
// tierSelector seam. The wrappers here own the lane discipline: the
// assembly processes full vectors (4 or 8 lanes), the embedded scalar
// kernels finish any tail and remain the bit-exactness ground truth the
// differential suite compares against.
//
// Bit identity holds because every lane computes the same residues the
// scalar loops do: the relaxed [0, 2q) kernels produce identical
// unnormalized words (same adds, same Shoup quotient, same wrapping
// arithmetic mod 2^64), and the canonical kernels produce the unique
// canonical residue. The final-stage kernels decompose as relaxed kernel
// + a conditional-subtract normalization pass (CTSpanLast = CTSpan then
// x -= q if x >= q), which commutes elementwise with the scalar fused
// form.

// Dense-span assembly, AVX-512 (8 lanes; F for VPMINUQ/VPERMT2Q, DQ for
// VPMULLQ). n is the butterfly/element count, a multiple of 8.

//go:noescape
func ctSpanAVX512(q uint64, out, lo, hi, w, pre *uint64, n int)

//go:noescape
func gsSpanAVX512(q uint64, oLo, oHi, in, w, pre *uint64, n int)

//go:noescape
func gsSpanLastScaledAVX512(q uint64, oLo, oHi, in, w, pre *uint64, n int, nInv, nInvPre uint64)

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
func gsSpanLastScaledAVX2(q uint64, oLo, oHi, in, w, pre *uint64, n int, nInv, nInvPre uint64)

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

// selectKernels implements tierSelector for Shoup64 on amd64: resolve the
// requested tier against the environment knob and the CPU's ceiling, and
// hand the plan the matching kernel set. The resolved name also rides the
// ring's Fingerprint so plan-cache entries never cross tiers.
func (r Shoup64) selectKernels() (span, blocked any, tier string) {
	switch resolveKernelTier(r.tier) {
	case TierAVX512:
		k := shoup64AVX512{r}
		return k, k, "avx512"
	case TierAVX2:
		k := shoup64AVX2{r}
		return k, k, "avx2"
	}
	return nil, nil, "scalar"
}

// Barrett shift amounts for MulSpan, hoisted per call (they depend only
// on the modulus bit length nb): t1 = lo>>s1 | hi<<s2, qhat = l2>>s3 |
// h2<<s4 — exactly modmath.Barrett64Reduce's splits.
func barrettShifts(nb uint) (s1, s2, s3, s4 uint64) {
	return uint64(nb - 1), uint64(65 - nb), uint64(nb + 1), uint64(63 - nb)
}

// shoup64AVX512 is the 8-lane tier: VPMINUQ carries every conditional
// subtract (min(x, x-c), branchless and correct for any x), VPMULLQ the
// low products, VPERMT2Q the butterfly interleaves.
type shoup64AVX512 struct{ Shoup64 }

func (r shoup64AVX512) CTSpan(out, lo, hi, w []uint64, pre []uint64) {
	n := len(w)
	nv := n &^ 7
	if nv > 0 {
		ctSpanAVX512(r.M.Q, &out[0], &lo[0], &hi[0], &w[0], &pre[0], nv)
	}
	if nv < n {
		r.Shoup64.CTSpan(out[2*nv:], lo[nv:], hi[nv:], w[nv:], pre[nv:])
	}
}

func (r shoup64AVX512) CTSpanLast(out, lo, hi, w []uint64, pre []uint64) {
	r.CTSpan(out, lo, hi, w, pre)
	r.normSpan(out[:2*len(w)])
}

func (r shoup64AVX512) GSSpan(oLo, oHi, in, w []uint64, pre []uint64) {
	n := len(w)
	nv := n &^ 7
	if nv > 0 {
		gsSpanAVX512(r.M.Q, &oLo[0], &oHi[0], &in[0], &w[0], &pre[0], nv)
	}
	if nv < n {
		r.Shoup64.GSSpan(oLo[nv:], oHi[nv:], in[2*nv:], w[nv:], pre[nv:])
	}
}

func (r shoup64AVX512) GSSpanLastScaled(oLo, oHi, in, w []uint64, pre []uint64, nInv uint64, nInvPre uint64) {
	n := len(w)
	nv := n &^ 7
	if nv > 0 {
		gsSpanLastScaledAVX512(r.M.Q, &oLo[0], &oHi[0], &in[0], &w[0], &pre[0], nv, nInv, nInvPre)
	}
	if nv < n {
		r.Shoup64.GSSpanLastScaled(oLo[nv:], oHi[nv:], in[2*nv:], w[nv:], pre[nv:], nInv, nInvPre)
	}
}

func (r shoup64AVX512) MulSpan(dst, a, b []uint64) {
	n := len(dst)
	nv := n &^ 7
	if nv > 0 {
		s1, s2, s3, s4 := barrettShifts(r.M.N)
		mulSpanAVX512(r.M.Q, r.M.Mu, &dst[0], &a[0], &b[0], nv, s1, s2, s3, s4)
	}
	if nv < n {
		r.Shoup64.MulSpan(dst[nv:], a[nv:], b[nv:])
	}
}

func (r shoup64AVX512) MulPreSpan(dst, a, w []uint64, pre []uint64) {
	n := len(dst)
	nv := n &^ 7
	if nv > 0 {
		mulPreSpanAVX512(r.M.Q, &dst[0], &a[0], &w[0], &pre[0], nv)
	}
	if nv < n {
		r.Shoup64.MulPreSpan(dst[nv:], a[nv:], w[nv:], pre[nv:])
	}
}

func (r shoup64AVX512) MulPreNormSpan(dst, a, w []uint64, pre []uint64) {
	r.MulPreSpan(dst, a, w, pre)
	r.normSpan(dst)
}

func (r shoup64AVX512) ScalarMulSpan(dst, a []uint64, w uint64, pre uint64) {
	n := len(dst)
	nv := n &^ 7
	if nv > 0 {
		scalarMulSpanAVX512(r.M.Q, &dst[0], &a[0], nv, w, pre)
	}
	if nv < n {
		r.Shoup64.ScalarMulSpan(dst[nv:], a[nv:], w, pre)
	}
}

func (r shoup64AVX512) ScaleAddSpan(dst, a []uint64, m []uint64, w uint64, pre uint64) {
	n := len(dst)
	nv := n &^ 7
	if nv > 0 {
		scaleAddSpanAVX512(r.M.Q, &dst[0], &a[0], &m[0], nv, w, pre)
	}
	if nv < n {
		r.Shoup64.ScaleAddSpan(dst[nv:], a[nv:], m[nv:], w, pre)
	}
}

// normSpan lands the deferred normalization: v[i] -= q where v[i] >= q,
// for v in [0, 2q). Composing a relaxed kernel with this pass is
// elementwise identical to the scalar fused final-stage kernels.
func (r shoup64AVX512) normSpan(v []uint64) {
	n := len(v)
	nv := n &^ 7
	if nv > 0 {
		normSpanAVX512(r.M.Q, &v[0], nv)
	}
	q := r.M.Q
	for i := nv; i < n; i++ {
		if v[i] >= q {
			v[i] -= q
		}
	}
}

// Blocked kernels: blk is a power of two >= 8 (the plan's dispatch
// floor), so it always divides into full 8-lane vectors and the block
// loop lives inside the assembly — one call per stage, not per run.

func (r shoup64AVX512) CTSpanBlk(out, lo, hi, w []uint64, pre []uint64, blk int) {
	if len(w) == 0 {
		return
	}
	ctSpanBlkAVX512(r.M.Q, &out[0], &lo[0], &hi[0], &w[0], &pre[0], len(w), blk)
}

func (r shoup64AVX512) CTSpanLastBlk(out, lo, hi, w []uint64, pre []uint64, blk int) {
	r.CTSpanBlk(out, lo, hi, w, pre, blk)
	r.normSpan(out[:2*len(w)*blk])
}

func (r shoup64AVX512) GSSpanBlk(oLo, oHi, in, w []uint64, pre []uint64, blk int) {
	if len(w) == 0 {
		return
	}
	gsSpanBlkAVX512(r.M.Q, &oLo[0], &oHi[0], &in[0], &w[0], &pre[0], len(w), blk)
}

// MACFinal2Span is the fused relin-MAC final stage: the unit-twiddle
// add/sub pass of CTSpanLast interleaved in registers with the two-row
// lazy Shoup MAC, so the transform output never touches memory.
func (r shoup64AVX512) MACFinal2Span(accA, accB, lo, hi, wA, preA, wB, preB []uint64) {
	n := len(lo)
	nv := n &^ 7
	if nv > 0 {
		macFinal2SpanAVX512(r.M.Q, &accA[0], &accB[0], &lo[0], &hi[0], &wA[0], &preA[0], &wB[0], &preB[0], nv)
	}
	if nv < n {
		macFinal2SpanScalar(r.M.Q, accA[2*nv:], accB[2*nv:], lo[nv:], hi[nv:],
			wA[2*nv:], preA[2*nv:], wB[2*nv:], preB[2*nv:])
	}
}

// AffineRowsSpan is the affine-combination-of-rows body: the row loop runs
// inside the assembly with the accumulator in a register, so each output
// element is written once however many rows feed it.
func (r shoup64AVX512) AffineRowsSpan(dst []uint64, c0 uint64, rows [][]uint64, w, pre []uint64) {
	nv := len(dst) &^ 7
	if len(rows) == 0 {
		nv = 0
	}
	if nv > 0 {
		affineRowsSpanAVX512(r.M.Q, &dst[0], c0, &rows[0], &w[0], &pre[0], len(rows), nv)
	}
	affineRowsSpanScalar(r.M.Q, dst, c0, rows, w, pre, nv)
}

// shoup64AVX2 is the 4-lane tier: sign-flipped VPCMPGTQ + VPBLENDVB
// conditional subtracts, VPMULUDQ-composed 64-bit products, and
// unpack/permute interleaves — the lane layouts sketched by the seed's
// internal/kernels backend256.
type shoup64AVX2 struct{ Shoup64 }

func (r shoup64AVX2) CTSpan(out, lo, hi, w []uint64, pre []uint64) {
	n := len(w)
	nv := n &^ 3
	if nv > 0 {
		ctSpanAVX2(r.M.Q, &out[0], &lo[0], &hi[0], &w[0], &pre[0], nv)
	}
	if nv < n {
		r.Shoup64.CTSpan(out[2*nv:], lo[nv:], hi[nv:], w[nv:], pre[nv:])
	}
}

func (r shoup64AVX2) CTSpanLast(out, lo, hi, w []uint64, pre []uint64) {
	r.CTSpan(out, lo, hi, w, pre)
	r.normSpan(out[:2*len(w)])
}

func (r shoup64AVX2) GSSpan(oLo, oHi, in, w []uint64, pre []uint64) {
	n := len(w)
	nv := n &^ 3
	if nv > 0 {
		gsSpanAVX2(r.M.Q, &oLo[0], &oHi[0], &in[0], &w[0], &pre[0], nv)
	}
	if nv < n {
		r.Shoup64.GSSpan(oLo[nv:], oHi[nv:], in[2*nv:], w[nv:], pre[nv:])
	}
}

func (r shoup64AVX2) GSSpanLastScaled(oLo, oHi, in, w []uint64, pre []uint64, nInv uint64, nInvPre uint64) {
	n := len(w)
	nv := n &^ 3
	if nv > 0 {
		gsSpanLastScaledAVX2(r.M.Q, &oLo[0], &oHi[0], &in[0], &w[0], &pre[0], nv, nInv, nInvPre)
	}
	if nv < n {
		r.Shoup64.GSSpanLastScaled(oLo[nv:], oHi[nv:], in[2*nv:], w[nv:], pre[nv:], nInv, nInvPre)
	}
}

func (r shoup64AVX2) MulSpan(dst, a, b []uint64) {
	n := len(dst)
	nv := n &^ 3
	if nv > 0 {
		s1, s2, s3, s4 := barrettShifts(r.M.N)
		mulSpanAVX2(r.M.Q, r.M.Mu, &dst[0], &a[0], &b[0], nv, s1, s2, s3, s4)
	}
	if nv < n {
		r.Shoup64.MulSpan(dst[nv:], a[nv:], b[nv:])
	}
}

func (r shoup64AVX2) MulPreSpan(dst, a, w []uint64, pre []uint64) {
	n := len(dst)
	nv := n &^ 3
	if nv > 0 {
		mulPreSpanAVX2(r.M.Q, &dst[0], &a[0], &w[0], &pre[0], nv)
	}
	if nv < n {
		r.Shoup64.MulPreSpan(dst[nv:], a[nv:], w[nv:], pre[nv:])
	}
}

func (r shoup64AVX2) MulPreNormSpan(dst, a, w []uint64, pre []uint64) {
	r.MulPreSpan(dst, a, w, pre)
	r.normSpan(dst)
}

func (r shoup64AVX2) ScalarMulSpan(dst, a []uint64, w uint64, pre uint64) {
	n := len(dst)
	nv := n &^ 3
	if nv > 0 {
		scalarMulSpanAVX2(r.M.Q, &dst[0], &a[0], nv, w, pre)
	}
	if nv < n {
		r.Shoup64.ScalarMulSpan(dst[nv:], a[nv:], w, pre)
	}
}

func (r shoup64AVX2) ScaleAddSpan(dst, a []uint64, m []uint64, w uint64, pre uint64) {
	n := len(dst)
	nv := n &^ 3
	if nv > 0 {
		scaleAddSpanAVX2(r.M.Q, &dst[0], &a[0], &m[0], nv, w, pre)
	}
	if nv < n {
		r.Shoup64.ScaleAddSpan(dst[nv:], a[nv:], m[nv:], w, pre)
	}
}

func (r shoup64AVX2) normSpan(v []uint64) {
	n := len(v)
	nv := n &^ 3
	if nv > 0 {
		normSpanAVX2(r.M.Q, &v[0], nv)
	}
	q := r.M.Q
	for i := nv; i < n; i++ {
		if v[i] >= q {
			v[i] -= q
		}
	}
}

func (r shoup64AVX2) CTSpanBlk(out, lo, hi, w []uint64, pre []uint64, blk int) {
	if len(w) == 0 {
		return
	}
	ctSpanBlkAVX2(r.M.Q, &out[0], &lo[0], &hi[0], &w[0], &pre[0], len(w), blk)
}

func (r shoup64AVX2) CTSpanLastBlk(out, lo, hi, w []uint64, pre []uint64, blk int) {
	r.CTSpanBlk(out, lo, hi, w, pre, blk)
	r.normSpan(out[:2*len(w)*blk])
}

func (r shoup64AVX2) GSSpanBlk(oLo, oHi, in, w []uint64, pre []uint64, blk int) {
	if len(w) == 0 {
		return
	}
	gsSpanBlkAVX2(r.M.Q, &oLo[0], &oHi[0], &in[0], &w[0], &pre[0], len(w), blk)
}

// MACFinal2Span: see the AVX-512 variant; 4-lane layout.
func (r shoup64AVX2) MACFinal2Span(accA, accB, lo, hi, wA, preA, wB, preB []uint64) {
	n := len(lo)
	nv := n &^ 3
	if nv > 0 {
		macFinal2SpanAVX2(r.M.Q, &accA[0], &accB[0], &lo[0], &hi[0], &wA[0], &preA[0], &wB[0], &preB[0], nv)
	}
	if nv < n {
		macFinal2SpanScalar(r.M.Q, accA[2*nv:], accB[2*nv:], lo[nv:], hi[nv:],
			wA[2*nv:], preA[2*nv:], wB[2*nv:], preB[2*nv:])
	}
}

// AffineRowsSpan: see the AVX-512 variant; 4-lane layout.
func (r shoup64AVX2) AffineRowsSpan(dst []uint64, c0 uint64, rows [][]uint64, w, pre []uint64) {
	nv := len(dst) &^ 3
	if len(rows) == 0 {
		nv = 0
	}
	if nv > 0 {
		affineRowsSpanAVX2(r.M.Q, &dst[0], c0, &rows[0], &w[0], &pre[0], len(rows), nv)
	}
	affineRowsSpanScalar(r.M.Q, dst, c0, rows, w, pre, nv)
}

var (
	_ SpanKernels[uint64]        = shoup64AVX512{}
	_ BlockedSpanKernels[uint64] = shoup64AVX512{}
	_ fusedMACSpanKernels        = shoup64AVX512{}
	_ affineRowsSpanKernels      = shoup64AVX512{}
	_ SpanKernels[uint64]        = shoup64AVX2{}
	_ BlockedSpanKernels[uint64] = shoup64AVX2{}
	_ fusedMACSpanKernels        = shoup64AVX2{}
	_ affineRowsSpanKernels      = shoup64AVX2{}
)
