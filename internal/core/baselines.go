package core

import (
	"math/big"

	"mqxgo/internal/modmath"
	"mqxgo/internal/ntt"
	"mqxgo/internal/perfmodel"
	"mqxgo/internal/u128"
	"mqxgo/internal/u256"
)

// GenericArith is the division-based 128-bit arithmetic standing in for
// OpenFHE's built-in math backend (the "OpenFHE-backend" series of Figure 5
// in `go run ./cmd/report`).
type GenericArith struct {
	Q u128.U128
}

// Add returns a + b mod q by conditional subtraction.
func (g GenericArith) Add(a, b u128.U128) u128.U128 {
	s := a.Add(b)
	if g.Q.LessEq(s) {
		s = s.Sub(g.Q)
	}
	return s
}

// Sub returns a - b mod q by conditional addition.
func (g GenericArith) Sub(a, b u128.U128) u128.U128 {
	if a.Less(b) {
		return a.Add(g.Q).Sub(b)
	}
	return a.Sub(b)
}

// Mul returns a * b mod q via a 256-bit product and shift-subtract division.
func (g GenericArith) Mul(a, b u128.U128) u128.U128 {
	return u256.MulSchoolbook(a, b).Mod128(g.Q)
}

// Forward computes the forward NTT of x on p's constant-geometry dataflow
// with this arithmetic in place of the plan's Barrett span kernels,
// reading the plan's stage twiddles (plain residues) through FwdStage.
// g.Q must be the plan's modulus.
func (g GenericArith) Forward(p *ntt.Plan, x []u128.U128) []u128.U128 {
	if len(x) != p.N {
		panic("core: input length does not match plan size")
	}
	half := p.N / 2
	src := append([]u128.U128(nil), x...)
	dst := make([]u128.U128, p.N)
	for s := 0; s < p.M; s++ {
		tw := p.FwdStage(s)
		for i := 0; i < half; i++ {
			a, b := src[i], src[i+half]
			dst[2*i] = g.Add(a, b)
			dst[2*i+1] = g.Mul(g.Sub(a, b), tw[i])
		}
		src, dst = dst, src
	}
	return src
}

// BigPlan runs the same constant-geometry NTT over math/big integers — the
// "GMP" baseline tier.
type BigPlan struct {
	Q  *big.Int
	N  int
	M  int
	tw [][]*big.Int
}

// NewBigPlan converts a plan's twiddle tables to big integers.
func NewBigPlan(p *ntt.Plan) *BigPlan {
	bp := &BigPlan{Q: p.R.M.Q.ToBig(), N: p.N, M: p.M}
	bp.tw = make([][]*big.Int, p.M)
	for s := 0; s < p.M; s++ {
		w := p.FwdStage(s)
		row := make([]*big.Int, len(w))
		for i := range row {
			row[i] = w[i].ToBig()
		}
		bp.tw[s] = row
	}
	return bp
}

// Forward computes the forward NTT over big.Int coefficients, allocating
// and normalizing per operation the way an arbitrary-precision library
// must.
func (bp *BigPlan) Forward(x []*big.Int) []*big.Int {
	half := bp.N / 2
	src := make([]*big.Int, bp.N)
	for i := range src {
		src[i] = new(big.Int).Set(x[i])
	}
	dst := make([]*big.Int, bp.N)
	for i := range dst {
		dst[i] = new(big.Int)
	}
	t := new(big.Int)
	for s := 0; s < bp.M; s++ {
		tw := bp.tw[s]
		for i := 0; i < half; i++ {
			a, b := src[i], src[i+half]
			dst[2*i].Add(a, b)
			dst[2*i].Mod(dst[2*i], bp.Q)
			t.Sub(a, b)
			t.Mul(t, tw[i])
			dst[2*i+1].Mod(t, bp.Q)
		}
		src, dst = dst, src
	}
	return src
}

// MeasureNTTBaselineRatios measures, on the host, how much slower the
// division-based generic backend and the math/big backend run the n-point
// NTT compared to the optimized Barrett scalar implementation. The figure
// generators use these host-measured ratios to anchor the "OpenFHE built-in
// backend" and "GMP" series to the modeled scalar tier (`go run ./cmd/report
// -measure`).
func MeasureNTTBaselineRatios(mod *modmath.Modulus128, n int) (perfmodel.BaselineRatios, error) {
	p, err := ntt.CachedPlan(mod, n)
	if err != nil {
		return perfmodel.BaselineRatios{}, err
	}
	x := make([]u128.U128, n)
	v := u128.One
	for i := range x {
		x[i] = v
		v = mod.Add(mod.Mul(v, u128.From64(0x9e3779b97f4a7c15)), u128.One)
	}
	xb := make([]*big.Int, n)
	for i := range xb {
		xb[i] = x[i].ToBig()
	}
	g := GenericArith{Q: mod.Q}
	bp := NewBigPlan(p)

	// Short protocol runs keep tool startup fast while still warming up.
	// The native anchor measures the destination-passing engine so the
	// ratio reflects transform cost, not the allocator.
	dst := make([]u128.U128, n)
	native := perfmodel.MeasureProtocol(20, 10, func() { p.ForwardInto(dst, x) })
	generic := perfmodel.MeasureProtocol(6, 3, func() { g.Forward(p, x) })
	bignum := perfmodel.MeasureProtocol(6, 3, func() { bp.Forward(xb) })
	return perfmodel.BaselineRatios{
		GenericOverNative: generic / native,
		BignumOverNative:  bignum / native,
	}.Clamp(), nil
}

// DefaultBaselineRatios are representative host-measured ratios used when
// callers want reproducible figure output without re-measuring (tests, and
// cmd/report without -measure). The values are in the ballpark the
// paper reports for OpenFHE's built-in backend and GMP against optimized
// scalar code (Sections 5.3, 5.4 and 8).
var DefaultBaselineRatios = perfmodel.BaselineRatios{
	GenericOverNative: 13.0,
	BignumOverNative:  18.0,
}
