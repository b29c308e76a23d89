package ring

import "math/bits"

// NegacyclicForwardMAC2 fuses the forward half of a negacyclic product
// with a two-row lazy multiply-accumulate: it computes y = NTT(psi^j ∘ x)
// and folds
//
//	accA[j] += y[j]*wA[j] - floor(y[j]*preA[j]/2^64)*q   (and likewise accB/wB)
//
// without ever materializing y. This is the relinearization inner loop
// shape — per gadget digit, one forward transform whose output is
// consumed exactly twice, by the two fixed key rows — where the unfused
// sequence writes the N-element transform result and then streams it
// back in twice. The fusion rides a structural fact of the
// constant-geometry dataflow: the final forward stage's twiddle exponent
// (i>>(M-1))<<(M-1) is zero for every butterfly, so stage M-1 is a pure
// add/sub pass whose canonical outputs can be multiply-accumulated in
// registers as they are produced.
//
// Each accumulator summand is in [0, 2q) and congruent to y[j]*w[j] mod
// q for any 64-bit y[j]; callers guarantee the no-wrap headroom for the
// number of accumulated rows (the fhe backend lands its rows every L
// digits, landBound) and land the deferred reduction themselves. Bit-identical to
// NegacyclicForwardInto followed by two separate MAC passes: stages 0
// through M-2 run the same kernel dispatch, and the final stage's
// conditional-subtract ladder produces the canonical residue — the same
// unique value the fused final-stage kernels write.
//
// Steady-state it allocates nothing.
func NegacyclicForwardMAC2(p *Plan[uint64, Shoup64], accA, accB, x, wA, preA, wB, preB []uint64) {
	p.checkLen(len(accA))
	p.checkLen(len(accB))
	p.checkLen(len(x))
	p.checkLen(len(wA))
	p.checkLen(len(preA))
	p.checkLen(len(wB))
	p.checkLen(len(preB))
	sc := p.scratch.Get()
	ping := p.scratch.Get()
	work := sc.a[:p.N]

	// Twist, exactly as NegacyclicForwardInto: relaxed outputs feed the
	// stage loops directly.
	p.kern.MulPreSpan(work, x, p.twist.w, p.twist.pre)

	// Stages 0..M-2 through the normal dispatch (scalar or vector tier),
	// leaving relaxed residues in sc.b. The partial transform cannot run
	// in place: when only one stage remains it would read and write the
	// same spans (full transforms tolerate dst==x only because their
	// stage 0 always writes scratch). For M == 1 this is a no-op and the
	// twisted input is the final stage's source.
	src := work
	if m := p.M - 1; m > 0 {
		p.forwardStagesN(sc.b, work, ping, m)
		src = sc.b[:p.N]
	}

	// Fused final stage on the plan's kernel tier.
	half := p.N >> 1
	p.R.MACFinal2Span(accA, accB, src[:half], src[half:p.N], wA, preA, wB, preB)
	p.scratch.Put(ping)
	p.scratch.Put(sc)
}

// MACFinal2Span is the fused final stage behind NegacyclicForwardMAC2:
// given the penultimate stage's relaxed outputs split into lo/hi halves
// of h butterflies, it produces the canonical final-stage outputs (s, d
// interleaved, exactly CTSpanLast at unit twiddle) and folds the two-row
// lazy Shoup MAC into accA/accB (each of length 2h) without materializing
// the transform. The vector prefix runs r's tier's assembly body, the
// final stage's add/sub pass interleaved in registers with the MAC.
func (r Shoup64) MACFinal2Span(accA, accB, lo, hi, wA, preA, wB, preB []uint64) {
	q := r.M.Q
	nv := r.vecLen(len(lo))
	switch {
	case nv > 0 && r.tier == TierAVX512:
		macFinal2SpanAVX512(q, &accA[0], &accB[0], &lo[0], &hi[0], &wA[0], &preA[0], &wB[0], &preB[0], nv)
	case nv > 0:
		macFinal2SpanAVX2(q, &accA[0], &accB[0], &lo[0], &hi[0], &wA[0], &preA[0], &wB[0], &preB[0], nv)
	}
	macFinal2SpanScalar(q, accA[2*nv:], accB[2*nv:], lo[nv:], hi[nv:],
		wA[2*nv:], preA[2*nv:], wB[2*nv:], preB[2*nv:])
}

// macFinal2SpanScalar is the ground-truth final-stage body the vector
// tiers are differential-tested against, and the tail loop behind their
// full vectors. Inputs are relaxed (< 2q): s = a+b < 4q and d = a+2q-b
// in (0, 4q), and two conditional subtracts land each on its canonical
// residue. The Shoup MAC summand d*w - qhat*q is then the same value an
// unfused lazy MAC over the NegacyclicForwardInto output folds in.
func macFinal2SpanScalar(q uint64, accA, accB, lo, hi, wA, preA, wB, preB []uint64) {
	twoQ := 2 * q
	for i := range lo {
		a, b := lo[i], hi[i]
		s := a + b
		if s >= twoQ {
			s -= twoQ
		}
		if s >= q {
			s -= q
		}
		d := a + twoQ - b
		if d >= twoQ {
			d -= twoQ
		}
		if d >= q {
			d -= q
		}
		e, o := 2*i, 2*i+1
		qhat, _ := bits.Mul64(s, preA[e])
		accA[e] += s*wA[e] - qhat*q
		qhat, _ = bits.Mul64(d, preA[o])
		accA[o] += d*wA[o] - qhat*q
		qhat, _ = bits.Mul64(s, preB[e])
		accB[e] += s*wB[e] - qhat*q
		qhat, _ = bits.Mul64(d, preB[o])
		accB[o] += d*wB[o] - qhat*q
	}
}
