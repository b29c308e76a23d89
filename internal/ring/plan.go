package ring

import (
	"fmt"

	"mqxgo/internal/scratch"
)

// Plan holds the precomputed tables for size-n negacyclic-capable
// transforms over a Ring[T]: one constant-geometry twiddle table per stage
// and direction for the forward and inverse Pease dataflows [Pease 1968]
// and the negacyclic twist/untwist tables. Each table is stored in the
// one form the plan's span kernels read: Shoup64 tables carry the Shoup
// word of every twiddle beside it, Barrett128 tables carry the twiddles
// alone.
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

	// fwdTw[s] and invTw[s] are stage s's twiddle tables. Stage s repeats
	// its twiddle across each contiguous 2^s-run of butterflies, so when
	// the kernels have blocked spans and 2^s >= blockedMinBlk the table is
	// compact (N/2^(s+1) entries, blk = 2^s); otherwise it is dense (N/2
	// entries, blk = 1). The stage loops dispatch on blk.
	fwdTw []table[T]
	invTw []table[T]

	// Negacyclic twist tables: twist[j] = Psi^j, untwist[j] = Psi^-j * N^-1.
	twist   table[T]
	untwist table[T]

	// scratch pools ping-pong buffer pairs so steady-state transforms
	// allocate nothing; a pair is valid only until it is Put back.
	scratch scratch.Pool[scratchPair[T]]

	// kern is the span-kernel set every operation runs, bound once at
	// plan build: the ring hands over the kernel set of its resolved tier
	// (selectKernels).
	kern SpanKernels[T]

	// blk is the blocked-kernel extension of kern, asserted from the same
	// value (nil when the kernels don't provide the compact-table spans).
	blk BlockedSpanKernels[T]

	// tier is the span-kernel implementation the plan dispatches to: the
	// scalar Go loops or a vector tier, resolved by selectKernels.
	tier KernelTier
}

// blockedMinBlk is the smallest twiddle-run length the plan stores
// compactly for a blocked kernel: below 8 the per-run slicing overhead
// eats the hoisted-load savings, and the dense kernels are already
// optimal.
const blockedMinBlk = 8

// table is one twiddle table: the values, their Precompute constants (nil
// when the ring's kernels read none), and the number of consecutive
// butterflies each entry covers (1 for a dense table).
type table[T any] struct {
	w   []T
	pre []uint64
	blk int
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
	// The kernel seam, resolved once here, before the tables it shapes:
	// the ring hands over its tier's kernel set and says whether that set
	// reads a Precompute word per twiddle. The blocked extension rides
	// along when the set has one.
	kern, tier, withPre := r.selectKernels()
	p.kern, p.tier = kern, tier
	p.blk, _ = kern.(BlockedSpanKernels[T])
	p.buildTables(withPre)
	p.scratch.New = func() *scratchPair[T] {
		return &scratchPair[T]{a: make([]T, n), b: make([]T, n)}
	}
	p.scratch.Poison = func(s *scratchPair[T]) {
		scratch.Fill(s.a)
		scratch.Fill(s.b)
	}
	return p, nil
}

// KernelTier names the span-kernel implementation the plan dispatches to:
// "scalar", "avx2" or "avx512". Benchmark reports record it so measured
// trajectories stay attributable across hosts.
func (p *Plan[T, R]) KernelTier() string { return p.tier.String() }

// newTable wraps the twiddles ws, each entry covering blk butterflies,
// with their Precompute words when withPre.
func (p *Plan[T, R]) newTable(ws []T, blk int, withPre bool) table[T] {
	t := table[T]{w: ws, blk: blk}
	if withPre {
		t.pre = make([]uint64, len(ws))
		for i, w := range ws {
			t.pre[i] = p.R.Precompute(w)
		}
	}
	return t
}

// stageExp returns the twiddle exponent for butterfly i of stage s in the
// constant-geometry dataflow. After s interleaving stages, the low s bits
// of i select which size-(n/2^s) sub-transform the butterfly belongs to
// and i>>s is the position within it, so the twiddle is
// omega_{n/2^s}^(i>>s) = omega^((i>>s) * 2^s).
func stageExp(s, i int) uint64 {
	return (uint64(i) >> uint(s)) << uint(s)
}

// buildTables fills the stage and twist tables.
func (p *Plan[T, R]) buildTables(withPre bool) {
	r := p.R
	half := p.N / 2
	// Power tables for omega and omega^-1, built by repeated
	// multiplication (exponents in stageExp are < n/2).
	pow := make([]T, half)
	powInv := make([]T, half)
	pow[0], powInv[0] = r.FromUint64(1), r.FromUint64(1)
	for j := 1; j < half; j++ {
		pow[j] = r.Mul(pow[j-1], p.Omega)
		powInv[j] = r.Mul(powInv[j-1], p.OmegaInv)
	}
	p.fwdTw = make([]table[T], p.M)
	p.invTw = make([]table[T], p.M)
	for s := 0; s < p.M; s++ {
		// stageExp is constant on each 2^s-run, so a compact entry b
		// holds the twiddle of butterfly b*blk.
		blk := 1
		if p.blk != nil && 1<<s >= blockedMinBlk {
			blk = 1 << s
		}
		fw, iv := make([]T, half/blk), make([]T, half/blk)
		for b := range fw {
			e := stageExp(s, b*blk)
			fw[b], iv[b] = pow[e], powInv[e]
		}
		p.fwdTw[s] = p.newTable(fw, blk, withPre)
		p.invTw[s] = p.newTable(iv, blk, withPre)
	}
	psiInv := r.Inv(p.Psi)
	tw, utw := make([]T, p.N), make([]T, p.N)
	cur, curInv := r.FromUint64(1), p.NInv
	for j := range tw {
		tw[j], utw[j] = cur, curInv
		cur = r.Mul(cur, p.Psi)
		curInv = r.Mul(curInv, psiInv)
	}
	p.twist = p.newTable(tw, 1, withPre)
	p.untwist = p.newTable(utw, 1, withPre)
}

// FwdStage returns stage s's N/2 forward twiddles, butterfly i
// multiplying by w[i]. Only dense stages can be read this way: it panics
// on a compact stage, so it serves plans without blocked spans (every
// Barrett128 plan). The slice is a live view of the plan's table; callers
// must not modify it.
func (p *Plan[T, R]) FwdStage(s int) []T {
	t := p.fwdTw[s]
	if t.blk != 1 {
		panic("ring: FwdStage on a compact stage table")
	}
	return t.w
}

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
	sc := p.scratch.Get()
	p.forwardStages(dst, x, sc)
	p.scratch.Put(sc)
}

// InverseInto computes the inverse NTT of y (bit-reversed order) into dst
// (natural order). The 1/N scale lands in one ScalarMulSpan pass after
// the stages, as NegacyclicInverseInto lands it in the untwist, and that
// pass also lands the deferred normalization. dst may alias y. Steady-state it
// allocates nothing.
func (p *Plan[T, R]) InverseInto(dst, y []T) {
	p.checkLen(len(dst))
	p.checkLen(len(y))
	sc := p.scratch.Get()
	p.inverseStages(dst, y, sc)
	p.kern.ScalarMulSpan(dst, dst, p.NInv, p.R.Precompute(p.NInv))
	p.scratch.Put(sc)
}

// PolyMulNegacyclicInto computes dst = a*b in Z_q[x]/(x^n + 1) via the
// twisted NTT. dst may alias a or b. Steady-state it allocates nothing.
func (p *Plan[T, R]) PolyMulNegacyclicInto(dst, a, b []T) {
	p.checkLen(len(dst))
	p.checkLen(len(a))
	p.checkLen(len(b))
	poly := p.scratch.Get()
	ping := p.scratch.Get()
	p.polyMulNegacyclicScratch(dst, a, b, poly, ping)
	p.scratch.Put(ping)
	p.scratch.Put(poly)
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
	sc := p.scratch.Get()
	p.kern.MulPreSpan(dst, a, p.twist.w, p.twist.pre)
	p.forwardStages(dst, dst, sc)
	p.scratch.Put(sc)
}

// NegacyclicInverseInto is the inverse half: dst = psi^-j ∘ INTT(y), with
// the 1/N scale riding the untwist table exactly as in
// PolyMulNegacyclicInto, so NegacyclicForwardInto on two operands, a
// pointwise product, and this call compose to the same bits as the fused
// path. dst may alias y. Steady-state it allocates nothing.
func (p *Plan[T, R]) NegacyclicInverseInto(dst, y []T) {
	p.checkLen(len(dst))
	p.checkLen(len(y))
	sc := p.scratch.Get()
	p.inverseStages(dst, y, sc)
	// psi^-j * N^-1, landing the deferred normalization.
	p.kern.MulPreNormSpan(dst, dst, p.untwist.w, p.untwist.pre)
	p.scratch.Put(sc)
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
// span. a may be in the kernels' relaxed domain (rns's lazy [0, 2q)
// conversion rows); dst is canonical. dst may alias a; it allocates
// nothing.
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
		tw := p.fwdTw[s]
		lo := src[:half]
		hi := src[half:p.N]
		o := out[:p.N]
		switch {
		case tw.blk > 1 && s == p.M-1:
			p.blk.CTSpanLastBlk(o, lo, hi, tw.w, tw.pre, tw.blk)
		case tw.blk > 1:
			p.blk.CTSpanBlk(o, lo, hi, tw.w, tw.pre, tw.blk)
		case s == p.M-1:
			k.CTSpanLast(o, lo, hi, tw.w, tw.pre)
		default:
			k.CTSpan(o, lo, hi, tw.w, tw.pre)
		}
		src = out
	}
}

// inverseStages runs the unscaled inverse dataflow (stages M-1 down to
// 0). Every stage, the last included, may leave residues in the kernels'
// relaxed domain: the caller's next pass lands 1/N and the deferred
// normalization together (InverseInto's scalar pass, the negacyclic
// untwist).
func (p *Plan[T, R]) inverseStages(dst, y []T, sc *scratchPair[T]) {
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
		in := src[:p.N]
		oLo := out[:half]
		oHi := out[half:p.N]
		if tw.blk > 1 {
			p.blk.GSSpanBlk(oLo, oHi, in, tw.w, tw.pre, tw.blk)
		} else {
			kern.GSSpan(oLo, oHi, in, tw.w, tw.pre)
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
	k.MulPreSpan(at, a, p.twist.w, p.twist.pre)
	k.MulPreSpan(bt, b, p.twist.w, p.twist.pre)
	p.forwardStages(at, at, ping)
	p.forwardStages(bt, bt, ping)
	k.MulSpan(at, at, bt)
	p.inverseStages(at, at, ping)
	k.MulPreNormSpan(dst, at, p.untwist.w, p.untwist.pre) // psi^-j * N^-1
}
