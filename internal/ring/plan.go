package ring

import (
	"fmt"
	"sync"
)

// Plan holds the precomputed tables for size-n negacyclic-capable
// transforms over a Ring[T]: per-stage constant-geometry twiddle tables
// for the forward and inverse Pease dataflows [Pease 1968], the stage-0
// inverse table with 1/N folded in, and the negacyclic twist/untwist
// tables. Every table carries the ring's per-multiplicand precomputation
// alongside the twiddle values, the constant the span kernels read.
//
// A Plan is safe for concurrent use once built: tables are read-only
// after NewPlan and all mutable transform state lives in pooled scratch
// buffer pairs.
type Plan[T any, R Ring[T]] struct {
	R R
	N int // transform size, a power of two >= 2
	M int // log2(N)

	Omega    T // primitive N-th root of unity
	OmegaInv T
	NInv     T // N^-1 mod q
	Psi      T // primitive 2N-th root with Psi^2 = Omega

	// fwdTw[s] and invTw[s] hold the N/2 stage-s twiddles.
	fwdTw []table[T]
	invTw []table[T]

	// fwdTwC[s] and invTwC[s] are the compact stage tables: stage s
	// repeats its twiddle across each contiguous 2^s-run of butterflies,
	// so one entry per run carries the same information in 1/2^s the
	// memory. Blocked kernels (BlockedSpanKernels) stream these instead
	// of the dense tables; rings without blocked kernels never touch
	// them.
	fwdTwC []table[T]
	invTwC []table[T]

	// invTw0Scaled is invTw[0] with N^-1 folded in, so InverseInto can
	// apply the 1/N scale inside its final stage instead of a separate
	// pass; nInvPre is N^-1's own precomputation for the even lane.
	invTw0Scaled table[T]
	nInvPre      uint64

	// Negacyclic twist tables: twist[j] = Psi^j, untwist[j] = Psi^-j * N^-1.
	twist   table[T]
	untwist table[T]

	// scratch pools ping-pong buffer pairs so steady-state transforms
	// allocate nothing.
	scratch sync.Pool

	// kern is the span-kernel set every operation runs, bound once at
	// plan build: a Shoup64 ring hands over the kernel set of its
	// resolved tier (selectKernels); any other ring is its own kernel set.
	kern SpanKernels[T]

	// blk is the blocked-kernel extension of kern, asserted from the same
	// value (nil when the kernels don't provide the compact-table spans).
	blk BlockedSpanKernels[T]

	// kernTier names the span-kernel implementation the plan dispatches
	// to: "scalar" (the fused Go loops) or a vector tier ("avx2",
	// "avx512").
	kernTier string
}

// blockedMinBlk is the smallest twiddle-run length the stage loops hand
// to a blocked kernel: below 8 the per-run slicing overhead eats the
// hoisted-load savings, and the dense kernels are already optimal.
const blockedMinBlk = 8

// table is one twiddle table: the values and their Precompute constants.
type table[T any] struct {
	w   []T
	pre []uint64
}

// scratchPair is one ping-pong buffer pair, pooled per plan.
type scratchPair[T any] struct {
	a, b []T
}

// NewPlan builds a plan for n-point transforms over r. n must be a power
// of two >= 2, and 2n must divide q-1 (the negacyclic twist needs a 2n-th
// root of unity).
func NewPlan[T any, R Ring[T]](r R, n int) (*Plan[T, R], error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("ring: size %d is not a power of two >= 2", n)
	}
	m := 0
	for 1<<m < n {
		m++
	}
	psi, err := r.PrimitiveRootOfUnity(uint64(2 * n))
	if err != nil {
		return nil, fmt.Errorf("ring: %w", err)
	}
	omega := r.Mul(psi, psi)
	p := &Plan[T, R]{
		R:        r,
		N:        n,
		M:        m,
		Omega:    omega,
		OmegaInv: r.Inv(omega),
		NInv:     r.Inv(r.FromUint64(uint64(n))),
		Psi:      psi,
	}
	p.buildStageTables()
	p.buildTwistTables()
	p.scratch.New = func() any {
		return &scratchPair[T]{a: make([]T, n), b: make([]T, n)}
	}
	// The kernel seam, resolved once here: Shoup64 swaps in its tier's
	// kernel set (CPU detection + forcing knobs); any other ring is its
	// own kernel set. The blocked extension rides along when the set has
	// one.
	var kern any = r
	p.kernTier = TierScalar.String()
	if s, ok := kern.(Shoup64); ok {
		kern, p.kernTier = s.selectKernels()
	}
	p.kern = kern.(SpanKernels[T])
	p.blk, _ = kern.(BlockedSpanKernels[T])
	return p, nil
}

// KernelTier names the span-kernel implementation the plan dispatches to:
// "scalar", "avx2" or "avx512". Benchmark reports record it so measured
// trajectories stay attributable across hosts.
func (p *Plan[T, R]) KernelTier() string { return p.kernTier }

func (p *Plan[T, R]) newTable(n int) table[T] {
	return table[T]{w: make([]T, n), pre: make([]uint64, n)}
}

func (p *Plan[T, R]) setTable(t table[T], i int, w T) {
	t.w[i] = w
	t.pre[i] = p.R.Precompute(w)
}

// stageExp returns the twiddle exponent for butterfly i of stage s in the
// constant-geometry dataflow. After s interleaving stages, the low s bits
// of i select which size-(n/2^s) sub-transform the butterfly belongs to
// and i>>s is the position within it, so the twiddle is
// omega_{n/2^s}^(i>>s) = omega^((i>>s) * 2^s).
func stageExp(s, i int) uint64 {
	return (uint64(i) >> uint(s)) << uint(s)
}

func (p *Plan[T, R]) buildStageTables() {
	r := p.R
	half := p.N / 2
	// Power tables for omega and omega^-1, built by repeated
	// multiplication (exponents in stageExp are < n).
	pow := make([]T, p.N)
	powInv := make([]T, p.N)
	pow[0], powInv[0] = r.FromUint64(1), r.FromUint64(1)
	for j := 1; j < p.N; j++ {
		pow[j] = r.Mul(pow[j-1], p.Omega)
		powInv[j] = r.Mul(powInv[j-1], p.OmegaInv)
	}
	p.fwdTw = make([]table[T], p.M)
	p.invTw = make([]table[T], p.M)
	p.fwdTwC = make([]table[T], p.M)
	p.invTwC = make([]table[T], p.M)
	for s := 0; s < p.M; s++ {
		fw := p.newTable(half)
		iv := p.newTable(half)
		for i := 0; i < half; i++ {
			e := stageExp(s, i)
			p.setTable(fw, i, pow[e])
			p.setTable(iv, i, powInv[e])
		}
		p.fwdTw[s] = fw
		p.invTw[s] = iv
		// Compact form: one entry per 2^s-run (stageExp is constant on
		// each run), indexed by run number b with exponent b<<s.
		runs := half >> s
		fwc := p.newTable(runs)
		ivc := p.newTable(runs)
		for b := 0; b < runs; b++ {
			e := stageExp(s, b<<s)
			p.setTable(fwc, b, pow[e])
			p.setTable(ivc, b, powInv[e])
		}
		p.fwdTwC[s] = fwc
		p.invTwC[s] = ivc
	}
	scaled := p.newTable(half)
	for i := 0; i < half; i++ {
		p.setTable(scaled, i, r.Mul(p.invTw[0].w[i], p.NInv))
	}
	p.invTw0Scaled = scaled
	p.nInvPre = r.Precompute(p.NInv)
}

func (p *Plan[T, R]) buildTwistTables() {
	r := p.R
	psiInv := r.Inv(p.Psi)
	tw := p.newTable(p.N)
	utw := p.newTable(p.N)
	cur := r.FromUint64(1)
	curInv := p.NInv
	for j := 0; j < p.N; j++ {
		p.setTable(tw, j, cur)
		p.setTable(utw, j, curInv)
		cur = r.Mul(cur, p.Psi)
		curInv = r.Mul(curInv, psiInv)
	}
	p.twist = tw
	p.untwist = utw
}

// FwdStage returns stage s's forward twiddles and their precomputations.
// The slices are live views of the plan's tables; callers must not
// modify them.
func (p *Plan[T, R]) FwdStage(s int) (w []T, pre []uint64) {
	return p.fwdTw[s].w, p.fwdTw[s].pre
}

// getScratch checks a ping/pong buffer pair out of the plan pool; the
// value is only valid until the matching putScratch.
//
//mqx:scratch
func (p *Plan[T, R]) getScratch() *scratchPair[T] { return p.scratch.Get().(*scratchPair[T]) }

// putScratch recycles a pair checked out by getScratch.
//
//mqx:scratchput
func (p *Plan[T, R]) putScratch(s *scratchPair[T]) { p.scratch.Put(s) }

func (p *Plan[T, R]) checkLen(n int) {
	if n != p.N {
		panic("ring: input length does not match plan size")
	}
}

// ForwardInto computes the forward NTT of x (natural order) into dst
// (bit-reversed order). dst and x must both have length N; dst may alias
// x for an in-place transform. Steady-state it allocates nothing.
func (p *Plan[T, R]) ForwardInto(dst, x []T) {
	p.checkLen(len(dst))
	p.checkLen(len(x))
	sc := p.getScratch()
	p.forwardStages(dst, x, sc)
	p.putScratch(sc)
}

// InverseInto computes the inverse NTT of y (bit-reversed order) into dst
// (natural order), with the 1/N scale folded into the final stage. dst
// may alias y. Steady-state it allocates nothing.
func (p *Plan[T, R]) InverseInto(dst, y []T) {
	p.checkLen(len(dst))
	p.checkLen(len(y))
	sc := p.getScratch()
	p.inverseStages(dst, y, sc, true)
	p.putScratch(sc)
}

// PolyMulNegacyclicInto computes dst = a*b in Z_q[x]/(x^n + 1) via the
// twisted NTT. dst may alias a or b. Steady-state it allocates nothing.
func (p *Plan[T, R]) PolyMulNegacyclicInto(dst, a, b []T) {
	p.checkLen(len(dst))
	p.checkLen(len(a))
	p.checkLen(len(b))
	poly := p.getScratch()
	ping := p.getScratch()
	p.polyMulNegacyclicScratch(dst, a, b, poly, ping)
	p.putScratch(ping)
	p.putScratch(poly)
}

// NegacyclicForwardInto computes the forward half of a negacyclic product:
// dst = NTT(psi^j ∘ a), the twisted transform whose pointwise products
// invert (via NegacyclicInverseInto) to products in Z_q[x]/(x^N + 1).
// Splitting the two halves out of PolyMulNegacyclicInto lets callers with
// many products over few operands (ciphertext tensor products) transform
// each operand once. Outputs are canonical; dst may alias a. Steady-state
// it allocates nothing.
func (p *Plan[T, R]) NegacyclicForwardInto(dst, a []T) {
	p.checkLen(len(dst))
	p.checkLen(len(a))
	sc := p.getScratch()
	p.kern.MulPreSpan(dst, a, p.twist.w[:p.N], p.twist.pre[:p.N])
	p.forwardStages(dst, dst, sc)
	p.putScratch(sc)
}

// NegacyclicInverseInto is the inverse half: dst = psi^-j ∘ INTT(y), with
// the 1/N scale riding the untwist table exactly as in
// PolyMulNegacyclicInto, so NegacyclicForwardInto on two operands, a
// pointwise product, and this call compose to the same bits as the fused
// path. dst may alias y. Steady-state it allocates nothing.
func (p *Plan[T, R]) NegacyclicInverseInto(dst, y []T) {
	p.checkLen(len(dst))
	p.checkLen(len(y))
	sc := p.getScratch()
	p.inverseStages(dst, y, sc, false)
	// psi^-j * N^-1, landing the deferred normalization.
	p.kern.MulPreNormSpan(dst, dst, p.untwist.w[:p.N], p.untwist.pre[:p.N])
	p.putScratch(sc)
}

// PointwiseMulInto computes the coefficient-wise product dst[i] = a[i]·b[i]
// (the evaluation-domain Hadamard product). dst may alias a or b; it
// allocates nothing.
func (p *Plan[T, R]) PointwiseMulInto(dst, a, b []T) {
	p.checkLen(len(dst))
	p.checkLen(len(a))
	p.checkLen(len(b))
	p.kern.MulSpan(dst, a, b)
}

// ScalarMulInto computes dst[i] = a[i]·w for one reduced scalar w,
// precomputing the ring's per-multiplicand constant once for the whole
// span. dst may alias a; it allocates nothing.
func (p *Plan[T, R]) ScalarMulInto(dst, a []T, w T) {
	p.checkLen(len(dst))
	p.checkLen(len(a))
	p.kern.ScalarMulSpan(dst, a, w, p.R.Precompute(w))
}

// ScaleAddInto is the scale-accumulate entry point dst[i] = a[i] + m[i]·w
// for small already-reduced integers m[i] (the encrypt-side Δ·message fold
// of the fhe backends). dst may alias a; it allocates nothing.
func (p *Plan[T, R]) ScaleAddInto(dst, a []T, m []uint64, w T) {
	p.checkLen(len(dst))
	p.checkLen(len(a))
	p.checkLen(len(m))
	p.kern.ScaleAddSpan(dst, a, m, w, p.R.Precompute(w))
}

// forwardStages runs the constant-geometry forward dataflow: stage 0
// reads x, intermediate stages ping-pong between the scratch buffers, and
// the final stage writes dst. Safe for dst aliasing x because x is only
// read by stage 0 (and the single-stage N=2 case reads both inputs before
// writing). Intermediate stages may carry residues in the kernels'
// relaxed domain; the final stage (CTSpanLast) is canonical.
func (p *Plan[T, R]) forwardStages(dst, x []T, sc *scratchPair[T]) {
	p.forwardStagesN(dst, x, sc, p.M)
}

// forwardStagesN runs the first m of the M forward stages, writing pass
// m-1 to dst. With m == p.M this is the full transform (canonical
// outputs via the final-stage kernels); with m < p.M the outputs stay in
// the kernel's relaxed domain and a fused consumer (the relinearization
// MAC) owns the remaining stages. m == 0 is a no-op: callers pass the
// prepared input as dst.
func (p *Plan[T, R]) forwardStagesN(dst, x []T, sc *scratchPair[T], m int) {
	k := p.kern
	half := p.N >> 1
	src := x
	for s := 0; s < m; s++ {
		out := sc.a
		if s == m-1 {
			out = dst
		} else if s&1 == 1 {
			out = sc.b
		}
		w := p.fwdTw[s].w[:half]
		pre := p.fwdTw[s].pre[:half]
		lo := src[:half]
		hi := src[half:p.N]
		o := out[:p.N]
		blk := 1 << s
		switch {
		case p.blk != nil && blk >= blockedMinBlk && s == p.M-1:
			p.blk.CTSpanLastBlk(o, lo, hi, p.fwdTwC[s].w, p.fwdTwC[s].pre, blk)
		case p.blk != nil && blk >= blockedMinBlk:
			p.blk.CTSpanBlk(o, lo, hi, p.fwdTwC[s].w, p.fwdTwC[s].pre, blk)
		case s == p.M-1:
			k.CTSpanLast(o, lo, hi, w, pre)
		default:
			k.CTSpan(o, lo, hi, w, pre)
		}
		src = out
	}
}

// inverseStages runs the inverse dataflow (stages M-1 down to 0). When
// scale is true the 1/N factor is folded into stage 0: that stage uses
// the pre-scaled twiddle table and multiplies the even input by N^-1,
// saving the separate N-element scaling pass. When scale is false the
// caller folds 1/N elsewhere (the negacyclic untwist table already
// carries it).
func (p *Plan[T, R]) inverseStages(dst, y []T, sc *scratchPair[T], scale bool) {
	kern := p.kern
	half := p.N >> 1
	src := y
	k := 0 // execution index: stage s runs as the k-th pass
	for s := p.M - 1; s >= 0; s-- {
		out := sc.a
		if k == p.M-1 {
			out = dst
		} else if k&1 == 1 {
			out = sc.b
		}
		tw := p.invTw[s]
		if s == 0 && scale {
			tw = p.invTw0Scaled
		}
		w := tw.w[:half]
		pre := tw.pre[:half]
		in := src[:p.N]
		oLo := out[:half]
		oHi := out[half:p.N]
		blk := 1 << s
		switch {
		case s == 0 && scale:
			kern.GSSpanLastScaled(oLo, oHi, in, w, pre, p.NInv, p.nInvPre)
		case p.blk != nil && blk >= blockedMinBlk:
			// Non-final inverse stages (and the s>0 stages of an unscaled
			// inverse) carry block-constant twiddles: stream the compact
			// table. The s == 0 && scale case above never reaches here.
			p.blk.GSSpanBlk(oLo, oHi, in, p.invTwC[s].w, p.invTwC[s].pre, blk)
		default:
			// When scale is false the final pass stays relaxed: the
			// caller's untwist (MulPreNormSpan) lands the normalization.
			kern.GSSpan(oLo, oHi, in, w, pre)
		}
		src = out
		k++
	}
}

// polyMulNegacyclicScratch is the body of PolyMulNegacyclicInto over two
// checked-out scratch pairs: poly holds the twisted operands; ping holds
// the transform ping-pong buffers. The twist may leave residues relaxed
// (the stage loops accept them), the transforms hand back canonical
// values for the pointwise product, the unscaled inverse stays relaxed,
// and the untwist lands the deferred normalization with 1/N.
func (p *Plan[T, R]) polyMulNegacyclicScratch(dst, a, b []T, poly, ping *scratchPair[T]) {
	k := p.kern
	at, bt := poly.a, poly.b
	tw := p.twist.w[:p.N]
	tp := p.twist.pre[:p.N]
	k.MulPreSpan(at, a, tw, tp)
	k.MulPreSpan(bt, b, tw, tp)
	p.forwardStages(at, at, ping)
	p.forwardStages(bt, bt, ping)
	k.MulSpan(at, at, bt)
	p.inverseStages(at, at, ping, false)
	k.MulPreNormSpan(dst, at, p.untwist.w[:p.N], p.untwist.pre[:p.N]) // psi^-j * N^-1
}
