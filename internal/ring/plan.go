package ring

import (
	"fmt"
	"runtime"
	"unsafe"

	"mqxgo/internal/scratch"
)

// Plan holds the precomputed tables for size-n negacyclic-capable
// transforms over a Ring[T]: one constant-geometry twiddle table per stage
// and direction for the forward and inverse Pease dataflows [Pease 1968]
// and the negacyclic twist/untwist tables. Each table is stored in the
// one form the plan's span kernels read: the Shoup word of every twiddle
// rides beside it where the ring's spans read one (Shoup64 at every
// tier, Barrett128 at avx512ifma), and the twiddles travel alone
// elsewhere.
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
	// 2^s >= blockedMinBlk the table is compact (N/2^(s+1) entries,
	// blk = 2^s); otherwise it is dense (N/2 entries, blk = 1). stageRun
	// dispatches on blk.
	fwdTw []table[T]
	invTw []table[T]

	// Negacyclic twist tables: twist[j] = Psi^j, untwist[j] = Psi^-j * N^-1.
	twist   table[T]
	untwist table[T]

	// scratch pools ping-pong buffer pairs so steady-state transforms
	// allocate nothing; a pair is valid only until it is Put back.
	scratch scratch.Pool[scratchPair[T]]

	// mulFrames pools the dispatch frames of the product and the split
	// inverse.
	mulFrames scratch.Pool[mulFrame[T, R]]

	// kern is R bound once at plan build as the span-kernel set every
	// operation runs; its spans run the tier R was built with.
	kern SpanKernels[T]
}

// blockedMinBlk is the smallest twiddle-run length the plan stores
// compactly: below 8 the per-run slicing overhead eats the hoisted-load
// savings, and the dense kernels are already optimal.
const blockedMinBlk = 8

// table is one twiddle table: the values, their Precompute words (nil
// when the ring's kernels read none), and the number of consecutive
// butterflies each entry covers (1 for a dense table).
type table[T any] struct {
	w, pre []T
	blk    int
}

// span returns entries [lo, hi) of the table and of its Precompute words
// (nil when it carries none).
func (t table[T]) span(lo, hi int) ([]T, []T) {
	if t.pre == nil {
		return t.w[lo:hi], nil
	}
	return t.w[lo:hi], t.pre[lo:hi]
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
	// The ring says whether its spans read a Precompute word per twiddle.
	p.kern = r
	_, withPre := r.kernelTier()
	p.buildTables(withPre)
	p.scratch.New = func() *scratchPair[T] {
		return &scratchPair[T]{a: make([]T, n), b: make([]T, n)}
	}
	p.scratch.Poison = func(s *scratchPair[T]) {
		scratch.Fill(s.a)
		scratch.Fill(s.b)
	}
	p.mulFrames.New = func() *mulFrame[T, R] { return &mulFrame[T, R]{p: p} }
	return p, nil
}

// KernelTier names the span-kernel implementation the plan dispatches to:
// "scalar", "avx2", "avx512" or "avx512ifma". Benchmark reports record it
// so measured trajectories stay attributable across hosts.
func (p *Plan[T, R]) KernelTier() string {
	t, _ := p.R.kernelTier()
	return t.String()
}

// newTable wraps the twiddles ws, each entry covering blk butterflies,
// with their Precompute words when withPre.
func (p *Plan[T, R]) newTable(ws []T, blk int, withPre bool) table[T] {
	t := table[T]{w: ws, blk: blk}
	if withPre {
		t.pre = make([]T, len(ws))
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
		if 1<<s >= blockedMinBlk {
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
// multiplying by w[i], in a fresh slice: a compact stage is expanded to
// the dense form.
func (p *Plan[T, R]) FwdStage(s int) []T {
	t := p.fwdTw[s]
	w := make([]T, p.N/2)
	for i := range w {
		w[i] = t.w[i/t.blk]
	}
	return w
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
	p.stages(dst, x, sc, dirFwd, 0, p.M, allLabels)
	p.scratch.Put(sc)
}

// InverseInto computes the inverse NTT of y (bit-reversed order) into dst
// (natural order). The 1/N scale lands in a ScalarMulSpan pass over the
// last stage's output, as NegacyclicInverseInto lands it in the untwist,
// and that pass also lands the deferred normalization. From
// inverseSplitMinN points up it runs on min(2, GOMAXPROCS) goroutines
// (see inverse). dst may alias y. Steady-state it allocates nothing.
func (p *Plan[T, R]) InverseInto(dst, y []T) {
	p.checkLen(len(dst))
	p.checkLen(len(y))
	p.inverseInto(dst, y, landScale)
}

// PolyMulNegacyclicInto computes dst = a*b in Z_q[x]/(x^n + 1) via the
// twisted NTT. dst may alias a or b. Steady-state it allocates nothing.
//
// From polyMulSplitMinN points up (4096 for Barrett128, 16384 for
// Shoup64) it runs on min(2, GOMAXPROCS) goroutines: the two operands'
// twists and forward transforms as one width-2 dispatch, then the
// pointwise product by coefficient halves. From inverseSplitMinN points
// up (4096 for Barrett128, 65536 for Shoup64) the inverse transform
// splits too (see inverse), and its last stage's ranges land the
// untwist on their halves, so no full pass stays on the caller. Every
// span covers the same data either way, so the output is bit-identical
// at any width. The dispatches may nest inside a pool range (an RNS
// tower step); with no worker free they run inline.
func (p *Plan[T, R]) PolyMulNegacyclicInto(dst, a, b []T) {
	p.checkLen(len(dst))
	p.checkLen(len(a))
	p.checkLen(len(b))
	width, invWidth := p.splitWidth(polyMulSplitMinN[T]()), p.splitWidth(inverseSplitMinN[T]())
	m := p.frame(max(width, invWidth))
	m.a, m.b = a, b
	m.step = mulForward
	m.fan.Run(2, width, m)
	m.step = mulPointwise
	m.fan.Run(p.N, width, m)
	m.inverse(dst, m.poly.a, invWidth, landUntwist)
	p.release(m)
}

// polyMulSplitWork sets the smallest product that runs on two
// goroutines, in points times the element's squared width in 64-bit
// words (a double-word product is four single-word ones). A width-2
// dispatch costs ≈ 15 µs over its body (BenchmarkFanoutBalanced, 2-vCPU
// AVX-512 host) and the forward pair and the pointwise product make
// two, so the split pays once half the product is several dispatches
// long. Measured there, a Barrett128 product gains from 1024 points,
// and a Shoup64 product reads mixed at 4096, slower at 8192 and faster
// from 16384: the floor is 4096 points for Barrett128, which keeps the
// tests' small products sequential and splits every 128-bit product the
// benchmark times, and 16384 for Shoup64, above every tower product the
// benchmark times. The inverse has floors of its own, inverseSplitMinN.
const polyMulSplitWork = 1 << 14

// polyMulSplitMinN is the smallest product size over elements of T that
// runs on two goroutines.
func polyMulSplitMinN[T any]() int {
	w := int(unsafe.Sizeof(*new(T))) / 8
	return polyMulSplitWork / (w * w)
}

// splitWidth is the width an operation whose split floor is minN points
// runs at on this plan: min(2, GOMAXPROCS) from the floor up, 1 below.
func (p *Plan[T, R]) splitWidth(minN int) int {
	if p.N < minN {
		return 1
	}
	return min(2, runtime.GOMAXPROCS(0))
}

// mulStep names the part of a transform a mulFrame's ranges run.
type mulStep int

const (
	mulForward   mulStep = iota // range r: twist and forward-transform operand r
	mulPointwise                // a coefficient range of the pointwise product
	invHalf                     // range r: the split inverse's phase 1 for label r
	invStage                    // a butterfly range of inverse stage s (phase 2)
)

// landing names the pass that lands an inverse transform's 1/N and its
// deferred normalization.
type landing int

const (
	landScale   landing = iota // InverseInto: dst[j] = x[j]·N^-1
	landUntwist                // negacyclic: dst[j] = x[j]·psi^-j·N^-1
)

// mulFrame is the pooled dispatch frame of one product or split inverse
// and the Ranger its dispatches run: poly holds the twisted operands
// (the product) and the split inverse's phase-1 output and phase-2
// ping-pong buffers, ping[r] range r's ping-pong pair (operand r's
// forward transform, label r's half of the inverse's phase 1; one pair
// shared by both ranges at width 1). The twist may leave residues
// relaxed (the stage loop accepts them), the transforms hand back
// canonical values for the pointwise product, the unscaled inverse
// stays relaxed, and the landing pass lands the deferred normalization
// with 1/N. It holds no data of its own, so it has no poison.
type mulFrame[T any, R Ring[T]] struct {
	fan  Fanout
	p    *Plan[T, R]
	step mulStep
	a, b []T
	poly *scratchPair[T]
	ping [2]*scratchPair[T]

	// The split inverse's state: y its input, land its landing pass, s
	// the phase-2 stage the next invStage dispatch runs from src into
	// out.
	y, src, out []T
	s           int
	land        landing
}

// frame checks out a dispatch frame with poly and ping[0], and a second
// ping-pong pair when width > 1.
func (p *Plan[T, R]) frame(width int) *mulFrame[T, R] {
	m := p.mulFrames.Get()
	m.poly = p.scratch.Get()
	m.ping[0] = p.scratch.Get()
	m.ping[1] = m.ping[0]
	if width > 1 {
		m.ping[1] = p.scratch.Get()
	}
	return m
}

// release returns m's scratch and m itself to their pools.
func (p *Plan[T, R]) release(m *mulFrame[T, R]) {
	if m.ping[1] != m.ping[0] {
		p.scratch.Put(m.ping[1])
	}
	p.scratch.Put(m.ping[0])
	p.scratch.Put(m.poly)
	// Drop the references, not the Fanout: a stale pool job may still
	// read its claim word.
	m.a, m.b, m.y, m.src, m.out = nil, nil, nil, nil, nil
	m.poly, m.ping = nil, [2]*scratchPair[T]{}
	p.mulFrames.Put(m)
}

func (m *mulFrame[T, R]) RunRange(start, end int) {
	p, k := m.p, m.p.kern
	at, bt := m.poly.a, m.poly.b
	switch m.step {
	case mulForward:
		for r := start; r < end; r++ {
			src, t := m.a, at
			if r == 1 {
				src, t = m.b, bt
			}
			k.MulPreSpan(t, src, p.twist.w, p.twist.pre)
			p.stages(t, t, m.ping[r], dirFwd, 0, p.M, allLabels)
		}
	case mulPointwise:
		k.MulSpan(at[start:end], at[start:end], bt[start:end])
	case invHalf:
		for r := start; r < end; r++ {
			p.stages(m.poly.b, m.y, m.ping[r], dirInv, p.M-1, p.M-inverseSplitStage, r)
		}
	case invStage:
		p.stageRun(m.out, m.src, dirInv, m.s, start, end)
		if m.s == 0 {
			half := p.N >> 1
			p.landRun(m.out, start, end, m.land)
			p.landRun(m.out, half+start, half+end, m.land)
		}
	}
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
	p.stages(dst, dst, sc, dirFwd, 0, p.M, allLabels)
	p.scratch.Put(sc)
}

// NegacyclicInverseInto is the inverse half: dst = psi^-j ∘ INTT(y), with
// the 1/N scale riding the untwist table exactly as in
// PolyMulNegacyclicInto, so NegacyclicForwardInto on two operands, a
// pointwise product, and this call compose to the same bits as the fused
// path. From inverseSplitMinN points up it runs on min(2, GOMAXPROCS)
// goroutines (see inverse). dst may alias y. Steady-state it allocates
// nothing.
func (p *Plan[T, R]) NegacyclicInverseInto(dst, y []T) {
	p.checkLen(len(dst))
	p.checkLen(len(y))
	p.inverseInto(dst, y, landUntwist)
}

// inverseInto runs the inverse of y into dst with landing land, at the
// plan's inverse width.
func (p *Plan[T, R]) inverseInto(dst, y []T, land landing) {
	width := p.splitWidth(inverseSplitMinN[T]())
	if width == 1 {
		sc := p.scratch.Get()
		p.stages(dst, y, sc, dirInv, p.M-1, p.M, allLabels)
		p.landRun(dst, 0, p.N, land)
		p.scratch.Put(sc)
		return
	}
	m := p.frame(width)
	m.inverse(dst, y, width, land)
	p.release(m)
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

// dir names a transform direction: the forward dataflow runs its stages
// ascending through CT butterflies, the inverse descending through GS
// ones.
type dir int

const (
	dirFwd dir = iota
	dirInv
)

// allLabels is the label of a pass over every butterfly of its stage.
const allLabels = -1

// stages is the sequential stage loop of both directions: passes passes
// from stage first, s ascending forward and descending inverse, from src
// into dst. With label allLabels a pass covers every butterfly of its
// stage; with label r it covers only r's runs, 2^(s-1) butterflies from
// r·2^(s-1), every 2^s (inverse says why those runs are independent).
// Pass k writes pair.a when k is even and pair.b when it is odd, and the
// last pass writes dst. dst may alias src when passes > 1, since only
// pass 0 reads src, and at N = 2, whose one butterfly reads both inputs
// before writing. Every stage may leave residues in the kernels' relaxed
// domain except the last forward stage, which is canonical.
func (p *Plan[T, R]) stages(dst, src []T, pair *scratchPair[T], d dir, first, passes, label int) {
	half := p.N >> 1
	for k := range passes {
		s := first + k
		if d == dirInv {
			s = first - k
		}
		lo, run, step := 0, half, half
		if label != allLabels {
			run = 1 << (s - 1)
			lo, step = label*run, 2*run
		}
		out := pair.pass(k, passes, dst)
		for i := lo; i < half; i += step {
			p.stageRun(out, src, d, s, i, i+run)
		}
		src = out
	}
}

// pass returns the buffer pass k of passes writes: dst for the last pass,
// a for an even one and b for an odd one.
func (sc *scratchPair[T]) pass(k, passes int, dst []T) []T {
	switch {
	case k == passes-1:
		return dst
	case k&1 == 0:
		return sc.a
	default:
		return sc.b
	}
}

// stageRun runs butterflies [lo, hi) of stage s in direction d from src
// into out: CT butterflies read src[i], src[i+N/2] and write out[2i],
// out[2i+1], GS butterflies read src[2i], src[2i+1] and write out[i],
// out[i+N/2]. It picks the span kernel: dense or blocked by the stage
// table, and the canonical final-stage form on forward stage M-1. On a
// compact table the range either spans whole blocks or lies inside one.
func (p *Plan[T, R]) stageRun(out, src []T, d dir, s, lo, hi int) {
	tw, half := p.fwdTw[s], p.N>>1
	if d == dirInv {
		tw = p.invTw[s]
	}
	blk := min(tw.blk, hi-lo)
	w, pre := tw.span(lo/tw.blk, lo/tw.blk+(hi-lo)/blk)
	if d == dirInv {
		oLo, oHi, in := out[lo:hi], out[half+lo:half+hi], src[2*lo:2*hi]
		if tw.blk == 1 {
			p.kern.GSSpan(oLo, oHi, in, w, pre)
		} else {
			p.kern.GSSpanBlk(oLo, oHi, in, w, pre, blk)
		}
		return
	}
	o, a, b := out[2*lo:2*hi], src[lo:hi], src[half+lo:half+hi]
	switch last := s == p.M-1; {
	case tw.blk == 1 && last:
		p.kern.CTSpanLast(o, a, b, w, pre)
	case tw.blk == 1:
		p.kern.CTSpan(o, a, b, w, pre)
	case last:
		p.kern.CTSpanLastBlk(o, a, b, w, pre, blk)
	default:
		p.kern.CTSpanBlk(o, a, b, w, pre, blk)
	}
}

// The split inverse's floors, the smallest inverse transform that runs
// on two goroutines, one per element width. The split makes
// inverseSplitStage+1 width-2 dispatches at ≈ 15 µs each over their
// bodies, so it pays once a stage is long. Measured on the 2-vCPU
// AVX-512 host at S = 7 (the split's time over the sequential one in
// the same process, medians of three to eight runs per size):
// Barrett128 1.1–1.3 at 2048 points, 0.86–0.98 at 4096, 0.75 at 8192
// and ≈ 0.65 at 16384; Shoup64, whose butterflies cost about a quarter
// as much, 1.3 at 16384, 1.00 at 32768 and 0.89 at 65536. Each floor is
// the first size that gained.
const (
	inverseSplitMin128 = 1 << 12
	inverseSplitMin64  = 1 << 16
)

// inverseSplitMinN is the smallest inverse transform over elements of T
// that runs on two goroutines.
func inverseSplitMinN[T any]() int {
	if unsafe.Sizeof(*new(T)) == 8 {
		return inverseSplitMin64
	}
	return inverseSplitMin128
}

// inverseSplitStage is S, the lowest stage of the split inverse's phase
// 1. Phase 1 runs label r's butterflies in runs of 2^(s-1), which cost
// more per butterfly the shorter they are; phase 2 costs one dispatch
// per stage. Measured on the 2-vCPU host, S from 4 to 9 moved a
// 16384-point Barrett128 inverse or product by less than the run-to-run
// spread, and S = 6–8 was fastest for Shoup64 at 32768 points. S >= 4
// keeps every run a whole number of vector blocks (GSSpanBlk takes runs
// of 8 or more), and both floors exceed 2^(S+1) points, so phase 1 has
// a stage to run.
const inverseSplitStage = 7

// inverse computes dst = land(unscaled INTT(y)) at width. At width 1 it
// runs every stage through stages on the caller, then one landing pass.
// At width 2 it runs in two phases, splitting the Pease stages by
// sub-transform.
//
// Stage 0 combines the half-size inverse transforms E (the even
// positions of its input) and O (the odd ones). Working back from there,
// butterfly i of stage s >= 1 belongs to the sub-transform named by bit
// s-1 of i, its label: it reads positions whose bit s equals the label
// and writes positions whose bit s-1 does (i and i+N/2 agree below bit
// M-1). So above stage 0 the two labels never read each other's
// outputs.
//
// Phase 1 is one width-2 dispatch: range r runs stages M-1 down to
// inverseSplitStage through stages with label r, ping-ponging in its own
// pair ping[r] (the ranges cannot share one: a range may run stages
// ahead of the other, and each stage's labelled positions differ), and
// its last stage writes its positions into poly.b, which neither range
// reads in phase 1. Phase 2 runs the stages below as one dispatch each,
// whose ranges are butterfly halves through stageRun, ping-ponging in
// poly by the rule stages follows (y is read only by phase 1, so poly.a
// may be y); the last stage's ranges run the landing pass on the
// coefficients they just wrote. Every butterfly runs on the same inputs
// with the same twiddles as at width 1, so the bits are the same.
func (m *mulFrame[T, R]) inverse(dst, y []T, width int, land landing) {
	p := m.p
	if width == 1 {
		p.stages(dst, y, m.ping[0], dirInv, p.M-1, p.M, allLabels)
		p.landRun(dst, 0, p.N, land)
		return
	}
	m.y, m.land = y, land
	m.step = invHalf
	m.fan.Run(2, width, m)
	m.step = invStage
	m.src = m.poly.b
	for k := range inverseSplitStage {
		m.s = inverseSplitStage - 1 - k
		m.out = m.poly.pass(k, inverseSplitStage, dst)
		m.fan.Run(p.N>>1, width, m)
		m.src = m.out
	}
}

// landRun lands an inverse transform's 1/N and deferred normalization on
// x[lo:hi] in place.
func (p *Plan[T, R]) landRun(x []T, lo, hi int, land landing) {
	switch land {
	case landScale:
		p.kern.ScalarMulSpan(x[lo:hi], x[lo:hi], p.NInv, p.R.Precompute(p.NInv))
	case landUntwist:
		w, pre := p.untwist.span(lo, hi)
		p.kern.MulPreNormSpan(x[lo:hi], x[lo:hi], w, pre)
	}
}
