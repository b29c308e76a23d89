package ring

import "mqxgo/internal/u128"

// Vector bodies of the Barrett128 spans, 8 lanes per iteration over AoS
// u128 rows: the Barrett bodies of the avx512 tier
// (kernels128_avx512_amd64.s) and the Shoup bodies of the avx512ifma tier
// (kernels128_ifma_amd64.s). c is the span's register file; n is the
// element (or butterfly) count, a positive multiple of 8; a blocked body
// takes nBlocks twiddles, each covering blk butterflies (a multiple of
// 8). pre holds the Shoup words beside w. The Barrett128 span methods call
// them directly, one call site each: //go:noescape only covers direct
// calls.

//go:noescape
func ctSpan128AVX512(c *barrett128Consts, out, lo, hi, w *u128.U128, n int)

//go:noescape
func gsSpan128AVX512(c *barrett128Consts, oLo, oHi, in, w *u128.U128, n int)

//go:noescape
func ctSpanBlk128AVX512(c *barrett128Consts, out, lo, hi, w *u128.U128, nBlocks, blk int)

//go:noescape
func gsSpanBlk128AVX512(c *barrett128Consts, oLo, oHi, in, w *u128.U128, nBlocks, blk int)

//go:noescape
func mulSpan128AVX512(c *barrett128Consts, dst, a, b *u128.U128, n int)

//go:noescape
func scalarMulSpan128AVX512(c *barrett128Consts, dst, a *u128.U128, n int, w *u128.U128)

//go:noescape
func addSpan128AVX512(c *barrett128Consts, dst, a, b *u128.U128, n int)

//go:noescape
func subSpan128AVX512(c *barrett128Consts, dst, a, b *u128.U128, n int)

//go:noescape
func ctSpan128IFMA(c *barrett128Consts, out, lo, hi, w, pre *u128.U128, n int)

//go:noescape
func gsSpan128IFMA(c *barrett128Consts, oLo, oHi, in, w, pre *u128.U128, n int)

//go:noescape
func ctSpanBlk128IFMA(c *barrett128Consts, out, lo, hi, w, pre *u128.U128, nBlocks, blk int)

//go:noescape
func gsSpanBlk128IFMA(c *barrett128Consts, oLo, oHi, in, w, pre *u128.U128, nBlocks, blk int)

//go:noescape
func mulPreSpan128IFMA(c *barrett128Consts, dst, a, w, pre *u128.U128, n int)

//go:noescape
func scalarMulSpan128IFMA(c *barrett128Consts, dst, a *u128.U128, n int, w, pre *u128.U128)
