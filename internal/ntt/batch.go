package ntt

import (
	"mqxgo/internal/u128"
)

// Batched 128-bit transforms: thin delegations to the generic chunked
// batch dispatch in internal/ring, which fans a batch of independent
// transforms across a persistent worker pool (Section 6, "towards
// realizing SOL performance"). 64-bit callers use the same methods on
// Plan64.Generic().

// BatchForward runs the forward transform over every input, in parallel
// across at most workers chunks (0 means GOMAXPROCS). Inputs are not
// modified; results are returned in order.
func (p *Plan) BatchForward(inputs [][]u128.U128, workers int) [][]u128.U128 {
	return p.g.BatchForward(inputs, workers)
}

// BatchForwardInto is BatchForward with caller-provided destinations:
// dst[i] receives the transform of inputs[i]. Beyond the fixed dispatch
// cost (one closure and one scratch checkout per chunk) it allocates
// nothing.
func (p *Plan) BatchForwardInto(dst, inputs [][]u128.U128, workers int) {
	p.g.BatchForwardInto(dst, inputs, workers)
}

// BatchInverse runs the inverse transform over every input in parallel.
func (p *Plan) BatchInverse(inputs [][]u128.U128, workers int) [][]u128.U128 {
	return p.g.BatchInverse(inputs, workers)
}

// BatchInverseInto is BatchInverse with caller-provided destinations.
func (p *Plan) BatchInverseInto(dst, inputs [][]u128.U128, workers int) {
	p.g.BatchInverseInto(dst, inputs, workers)
}

// BatchPolyMulNegacyclic multiplies pairs[i][0] * pairs[i][1] in
// Z_q[x]/(x^n + 1) for every pair, in parallel.
func (p *Plan) BatchPolyMulNegacyclic(pairs [][2][]u128.U128, workers int) [][]u128.U128 {
	return p.g.BatchPolyMulNegacyclic(pairs, workers)
}

// BatchPolyMulNegacyclicInto is BatchPolyMulNegacyclic with
// caller-provided destinations.
func (p *Plan) BatchPolyMulNegacyclicInto(dst [][]u128.U128, pairs [][2][]u128.U128, workers int) {
	p.g.BatchPolyMulNegacyclicInto(dst, pairs, workers)
}
