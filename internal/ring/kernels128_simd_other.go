//go:build !amd64

package ring

import "mqxgo/internal/u128"

// Non-amd64 builds have no AVX-512 tier: resolveKernelTier never returns
// it, so Barrett128.vecLen is always 0 and these bodies are never called.
// They exist so the span methods compile on every architecture.

const noVectorBody = "ring: no vector kernel body off amd64"

func ctSpan128AVX512(c *barrett128Consts, out, lo, hi, w *u128.U128, n int) { panic(noVectorBody) }

func gsSpan128AVX512(c *barrett128Consts, oLo, oHi, in, w *u128.U128, n int) { panic(noVectorBody) }

func mulSpan128AVX512(c *barrett128Consts, dst, a, b *u128.U128, n int) { panic(noVectorBody) }

func scalarMulSpan128AVX512(c *barrett128Consts, dst, a *u128.U128, n int, w *u128.U128) {
	panic(noVectorBody)
}

func addSpan128AVX512(c *barrett128Consts, dst, a, b *u128.U128, n int) { panic(noVectorBody) }

func subSpan128AVX512(c *barrett128Consts, dst, a, b *u128.U128, n int) { panic(noVectorBody) }
