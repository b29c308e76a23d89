package ring

// Go declarations of the Shoup64 vector bodies
// (kernels64_{avx2,avx512}_amd64.s). The Shoup64 span methods
// (kernels64.go) call them on their full-vector prefix at the tier the
// ring was built with, one direct call site per tier: //go:noescape only
// covers direct calls, so dispatching through func values would make
// every slice argument escape. The inverse has no final-stage body: every
// inverse stage is GSSpan or GSSpanBlk, and the pass after them
// (ScalarMulSpan's 1/N, the untwist) lands the normalization.
//
// The AVX-512 bodies run 8 lanes (VPMINUQ carries every conditional
// subtract as min(x, x-c), branchless and correct for any x; VPMULLQ the
// low products; VPERMT2Q the butterfly interleaves); the AVX2 bodies run
// 4 (sign-flipped VPCMPGTQ + VPBLENDVB conditional subtracts,
// VPMULUDQ-composed 64-bit products, unpack/permute interleaves).

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
