package kernels

import (
	"mqxgo/internal/modmath"
)

// Single-word (64-bit) modular kernels over the same backend interface:
// the HEXL-style lane arithmetic used when large coefficients are carried
// in RNS form instead of the paper's 128-bit double-words (Sections 1 and
// 8 contrast the two). Because q < 2^62, sums never wrap and no carry
// emulation is needed — the structural reason 64-bit SIMD modular
// arithmetic was already fast before MQX, and why the paper's proposal
// targets the multi-word case.
type SW[W, C any] struct {
	O   Ops[W, C]
	Mod *modmath.Modulus64

	q, twoQ W

	// minU is the backend's native unsigned minimum when it has one
	// (AVX-512 VPMINUQ); the lazy conditional subtracts lower to
	// min(x, x-c) there and to the compare/select sequence elsewhere.
	minU MinUOps[W]
}

// NewSW broadcasts the modulus constants; call before BeginLoop.
func NewSW[W, C any](o Ops[W, C], mod *modmath.Modulus64) *SW[W, C] {
	s := &SW[W, C]{
		O:    o,
		Mod:  mod,
		q:    o.Broadcast(mod.Q),
		twoQ: o.Broadcast(2 * mod.Q),
	}
	if m, ok := o.(MinUOps[W]); ok {
		s.minU = m
	}
	return s
}

// AddMod returns (a + b) mod q per lane, for reduced inputs.
func (s *SW[W, C]) AddMod(a, b W) W {
	o := s.O
	sum := o.Add(a, b) // q < 2^62: never wraps
	d := o.Sub(sum, s.q)
	keep := o.CmpLt(sum, s.q)
	return o.Select(keep, d, sum)
}

// SubMod returns (a - b) mod q per lane, for reduced inputs.
func (s *SW[W, C]) SubMod(a, b W) W {
	o := s.O
	d := o.Sub(a, b)
	fixed := o.Add(d, s.q)
	wrap := o.CmpLt(a, b)
	return o.Select(wrap, d, fixed)
}

func (s *SW[W, C]) condSubQ(r W) W {
	o := s.O
	d := o.Sub(r, s.q)
	keep := o.CmpLt(r, s.q)
	return o.Select(keep, d, r)
}

// MulShoup returns (a * w) mod q for a fixed multiplicand w with its Shoup
// precomputation wPre (both pre-broadcast): one widening multiply for the
// quotient, one low multiply, one correction — the twiddle-multiply form
// 64-bit NTT libraries use.
func (s *SW[W, C]) MulShoup(a, w, wPre W) W {
	o := s.O
	qhat, _ := o.MulWide(a, wPre) // high part only is needed
	r := o.Sub(o.MulLo(a, w), o.MulLo(qhat, s.q))
	return s.condSubQ(r)
}

// Butterfly is the 64-bit Gentleman-Sande butterfly with a Shoup twiddle.
func (s *SW[W, C]) Butterfly(a, b, w, wPre W) (even, odd W) {
	even = s.AddMod(a, b)
	odd = s.MulShoup(s.SubMod(a, b), w, wPre)
	return even, odd
}

// Lazy-reduction kernels (the PR 3 ring.SpanKernels discipline): residues
// travel between stages in the relaxed domain [0, 2q), the conditional
// subtract at the tail of the Shoup multiply is dropped entirely, and the
// canonical subtract becomes a branchless a + 2q - b. Written once against
// the backend vocabulary, these record per tier exactly the instruction
// streams the ring package's AVX2/AVX-512 span kernels execute, so the
// scheduler's projection of these bodies is the VM-side prediction for the
// vector tier.

// condSub2Q returns x - 2q if x >= 2q else x, for x < 4q. On backends with
// a native unsigned minimum this is sub+min (the VPMINUQ trick — correct
// for any x because a wrapped difference exceeds the input); elsewhere it
// pays the compare/select sequence.
func (s *SW[W, C]) condSub2Q(x W) W {
	o := s.O
	d := o.Sub(x, s.twoQ)
	if s.minU != nil {
		return s.minU.MinU(x, d)
	}
	keep := o.CmpLt(x, s.twoQ)
	return o.Select(keep, d, x)
}

// AddLazy returns a + b reduced into [0, 2q), for relaxed inputs (< 2q
// each; the sum < 4q never wraps since q < 2^62).
func (s *SW[W, C]) AddLazy(a, b W) W {
	return s.condSub2Q(s.O.Add(a, b))
}

// SubLazy returns a + 2q - b in (0, 4q) with NO conditional subtract: the
// difference feeds MulShoupLazy directly, whose bound holds for any 64-bit
// multiplicand.
func (s *SW[W, C]) SubLazy(a, b W) W {
	return s.O.Sub(s.O.Add(a, s.twoQ), b)
}

// MulShoupLazy returns a*w - floor(a*wPre/2^64)*q in [0, 2q): the Shoup
// multiply without its correction step — one widening multiply for the
// quotient and two low multiplies, no compare.
func (s *SW[W, C]) MulShoupLazy(a, w, wPre W) W {
	o := s.O
	qhat, _ := o.MulWide(a, wPre) // high part only is needed
	return o.Sub(o.MulLo(a, w), o.MulLo(qhat, s.q))
}

// LazyButterfly is the relaxed-domain CT butterfly (ring.Shoup64.CTSpan's
// body): even = (a+b) mod 2q, odd = (a + 2q - b)·w via the lazy Shoup
// multiply, relaxed in, relaxed out.
func (s *SW[W, C]) LazyButterfly(a, b, w, wPre W) (even, odd W) {
	even = s.AddLazy(a, b)
	odd = s.MulShoupLazy(s.SubLazy(a, b), w, wPre)
	return even, odd
}
