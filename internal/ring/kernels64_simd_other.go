//go:build !amd64

package ring

// Non-amd64 builds have no vector tier: resolveKernelTier never returns
// one, so Shoup64.vecLen is always 0 and these bodies are never called.
// They exist so the span methods compile on every architecture.

func ctSpanAVX512(q uint64, out, lo, hi, w, pre *uint64, n int) { panic(noVectorBody) }

func gsSpanAVX512(q uint64, oLo, oHi, in, w, pre *uint64, n int) { panic(noVectorBody) }

func mulSpanAVX512(q, mu uint64, dst, a, b *uint64, n int, s1, s2, s3, s4 uint64) {
	panic(noVectorBody)
}

func mulPreSpanAVX512(q uint64, dst, a, w, pre *uint64, n int) { panic(noVectorBody) }

func scalarMulSpanAVX512(q uint64, dst, a *uint64, n int, w, pre uint64) { panic(noVectorBody) }

func scaleAddSpanAVX512(q uint64, dst, a, m *uint64, n int, w, pre uint64) { panic(noVectorBody) }

func normSpanAVX512(q uint64, v *uint64, n int) { panic(noVectorBody) }

func ctSpanBlkAVX512(q uint64, out, lo, hi, w, pre *uint64, nBlocks, blk int) { panic(noVectorBody) }

func gsSpanBlkAVX512(q uint64, oLo, oHi, in, w, pre *uint64, nBlocks, blk int) { panic(noVectorBody) }

func macFinal2SpanAVX512(q uint64, accA, accB, lo, hi, wA, preA, wB, preB *uint64, n int) {
	panic(noVectorBody)
}

func affineRowsSpanAVX512(q uint64, dst *uint64, c0 uint64, rows *[]uint64, w, pre *uint64, nrows, n int) {
	panic(noVectorBody)
}

func ctSpanAVX2(q uint64, out, lo, hi, w, pre *uint64, n int) { panic(noVectorBody) }

func gsSpanAVX2(q uint64, oLo, oHi, in, w, pre *uint64, n int) { panic(noVectorBody) }

func mulSpanAVX2(q, mu uint64, dst, a, b *uint64, n int, s1, s2, s3, s4 uint64) {
	panic(noVectorBody)
}

func mulPreSpanAVX2(q uint64, dst, a, w, pre *uint64, n int) { panic(noVectorBody) }

func scalarMulSpanAVX2(q uint64, dst, a *uint64, n int, w, pre uint64) { panic(noVectorBody) }

func scaleAddSpanAVX2(q uint64, dst, a, m *uint64, n int, w, pre uint64) { panic(noVectorBody) }

func normSpanAVX2(q uint64, v *uint64, n int) { panic(noVectorBody) }

func ctSpanBlkAVX2(q uint64, out, lo, hi, w, pre *uint64, nBlocks, blk int) { panic(noVectorBody) }

func gsSpanBlkAVX2(q uint64, oLo, oHi, in, w, pre *uint64, nBlocks, blk int) { panic(noVectorBody) }

func macFinal2SpanAVX2(q uint64, accA, accB, lo, hi, wA, preA, wB, preB *uint64, n int) {
	panic(noVectorBody)
}

func affineRowsSpanAVX2(q uint64, dst *uint64, c0 uint64, rows *[]uint64, w, pre *uint64, nrows, n int) {
	panic(noVectorBody)
}
