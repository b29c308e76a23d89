package fhe

import "math/bits"

// Noise-budget guardrails: secret-key-free, conservative noise tracking
// for a serving layer that must refuse an evaluation destined to decrypt
// garbage rather than run it. The scheme's measured diagnostics
// (NoiseBits, NoiseBudgetBits) need the secret key; a server holds only
// ciphertexts, so it tracks an UPPER BOUND on each ciphertext's noise in
// bits — fresh encryptions start at FreshNoiseBits, every multiply maps
// the operands' bounds through PredictMulNoiseBits, every modulus switch
// through PredictModSwitchNoiseBits — and compares the predicted
// post-operation budget against a configured floor. The bound is the same
// MulNoiseBoundBits model the depth property tests pin against measured
// noise, so predicted budget never exceeds real budget: the guardrail
// refuses too early, never too late.

// FreshNoiseBits bounds the noise of a fresh encryption in bits: the
// centered error magnitude is at most noiseBound per coefficient.
const FreshNoiseBits = 4 // bits.Len(noiseBound), with noiseBound = 8

// modSwitchRoundBits bounds the additive rounding noise of one modulus
// switch in bits: the rounding error per coefficient is at most
// (1 + ||s||_1)/2 <= (n+1)/2 for a ternary secret.
func (s *BackendScheme) modSwitchRoundBits() int {
	return bits.Len(uint(s.B.N()+1)) - 1
}

// PredictMulNoiseBits bounds the noise (in bits) of a MulCt result at the
// given level whose operands each carry at most opNoiseBits of noise.
func (s *BackendScheme) PredictMulNoiseBits(level, opNoiseBits int) int {
	digits, digitBits, overshoot := s.B.MulNoiseModel(level)
	return MulNoiseBoundBits(s.B.N(), s.B.PlainModulus(), opNoiseBits, digits, digitBits, overshoot)
}

// PredictModSwitchNoiseBits bounds the noise of a ModSwitch result whose
// input at the given level carries at most opNoiseBits. Three terms sum:
// the scaled-down input noise — the DeltaBits difference approximates the
// dropped factor's bit width to within one bit, hence the +1 — the
// rounding error (1 + ||s||_1)/2 <= (n+1)/2, and the Delta misalignment
// term: Delta_l does not divide exactly by the dropped factor, and the
// residual multiplies the message, contributing up to T per coefficient.
// (The misalignment term is why the old max(scaled, rounding) shape was
// optimistic by a bit once T outgrew n: at T=40961, n=256 the measured
// post-switch noise is ~bits.Len(T), above both old terms.) The sum of
// three bounded terms is below 4x the largest, hence max + 2.
func (s *BackendScheme) PredictModSwitchNoiseBits(level, opNoiseBits int) int {
	drop := s.B.DeltaBits(level) - s.B.DeltaBits(level+1)
	out := opNoiseBits - drop + 1
	if rb := s.modSwitchRoundBits(); rb > out {
		out = rb
	}
	if tb := bits.Len64(s.B.PlainModulus()); tb > out {
		out = tb
	}
	return out + 2
}

// PredictRotateNoiseBits bounds the noise of a RotateSlots result at the
// given level whose input carries at most opNoiseBits. A rotation is a
// chain of key-switch hops, one per set bit of the (row-normalized) step
// count (rotationHops); each hop permutes the existing noise unchanged and adds the
// key-switch term sum_i d_i*e_i, bounded by digits * n * 2^digitBits *
// noiseBound — the relin term of MulNoiseBoundBits with the same gadget.
func (s *BackendScheme) PredictRotateNoiseBits(level, opNoiseBits, steps int) int {
	return s.predictHopChainNoiseBits(level, opNoiseBits, s.rotationHops(steps).n)
}

// PredictConjugateNoiseBits is PredictRotateNoiseBits for the row-swap
// automorphism: always exactly one key-switch hop.
func (s *BackendScheme) PredictConjugateNoiseBits(level, opNoiseBits int) int {
	return s.predictHopChainNoiseBits(level, opNoiseBits, s.conjugationHops().n)
}

func (s *BackendScheme) predictHopChainNoiseBits(level, opNoiseBits, hops int) int {
	if hops == 0 {
		return opNoiseBits
	}
	digits, digitBits, _ := s.B.MulNoiseModel(level)
	ks := bits.Len(uint(digits)) + bits.Len(uint(s.B.N())) + digitBits + bits.Len(uint(noiseBound))
	out := opNoiseBits
	for h := 0; h < hops; h++ {
		if ks > out {
			out = ks
		}
		out++ // the hop's sum of permuted noise and key-switch term
	}
	return out
}

// PredictedBudgetBits converts a tracked noise bound at a level into the
// remaining budget the guardrail compares against its floor:
// DeltaBits - noise - 1, clamped at zero — the same shape as the measured
// NoiseBudgetBits, with the bound in place of the measurement.
func (s *BackendScheme) PredictedBudgetBits(level, noiseBits int) int {
	budget := s.B.DeltaBits(level) - noiseBits - 1
	if budget < 0 {
		return 0
	}
	return budget
}
