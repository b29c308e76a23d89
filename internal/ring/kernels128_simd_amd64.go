package ring

import "mqxgo/internal/u128"

// AVX-512 bodies of the Barrett128 spans (kernels128_avx512_amd64.s), 8
// lanes per iteration over AoS u128 rows. c is the span's register file;
// n is the element (or butterfly) count, a positive multiple of 8. The
// Barrett128 span methods call them directly, one call site each:
// //go:noescape only covers direct calls.

//go:noescape
func ctSpan128AVX512(c *barrett128Consts, out, lo, hi, w *u128.U128, n int)

//go:noescape
func gsSpan128AVX512(c *barrett128Consts, oLo, oHi, in, w *u128.U128, n int)

//go:noescape
func gsSpanLastScaled128AVX512(c *barrett128Consts, oLo, oHi, in, w *u128.U128, n int, nInv *u128.U128)

//go:noescape
func mulSpan128AVX512(c *barrett128Consts, dst, a, b *u128.U128, n int)

//go:noescape
func scalarMulSpan128AVX512(c *barrett128Consts, dst, a *u128.U128, n int, w *u128.U128)

//go:noescape
func addSpan128AVX512(c *barrett128Consts, dst, a, b *u128.U128, n int)

//go:noescape
func subSpan128AVX512(c *barrett128Consts, dst, a, b *u128.U128, n int)
