package fhe

import (
	"context"
	"fmt"
	"math/big"
	"math/bits"
	"math/rand"
	"runtime"
	"sync"

	"mqxgo/internal/faultinject"
	"mqxgo/internal/modmath"
	"mqxgo/internal/ring"
	"mqxgo/internal/rns"
)

// rnsBackend runs the identical scheme on a basis of 64-bit RNS towers —
// the conventional-hardware philosophy the paper contrasts with double-word
// residues. Ciphertext polynomials stay decomposed (rns.Poly) through
// every homomorphic operation; the CRT is only applied at decryption
// rounding and noise diagnostics, where the full-width value is needed.
//
// The modulus ladder is where the RNS philosophy pays off structurally: a
// level is just a PREFIX of the tower basis (Q_l = q_0 * ... * q_{k-1-l}),
// so ModSwitch is the PR 4 Rescaler (divide-and-round by the dropped
// tower, residues only) and every operation below a switch runs on one
// tower fewer — smaller transforms, smaller tensors, fewer relin digits.
// The per-level contexts, converters, rescalers, and gadget tables are
// all built once at construction and share the process-wide plan cache,
// so a k-tower backend costs k plans total, not k^2.
//
// Homomorphic multiplication is BEHZ-style in the CURRENT level's basis
// and never leaves residue form: operands are base-extended with the
// m~-corrected conversion (rns.MontBaseConverter — overshoot-free, the
// PR 4 kQ operand overshoot is gone), the tensor and the T/Q_l
// divide-and-round run tower-by-tower on the plan kernels, and the result
// returns to base Q_l through the exact Shenoy-Kumaresan conversion
// (rns.SKConverter). Relinearization and Galois keys are stored per level
// in that level's NTT domain, so no multiply or rotation transforms a key
// row. All evaluation state is pooled per level; steady-state MulCtCtx,
// RotateSlotsCtx and ModSwitchCtx allocate nothing at dispatch width 1
// (wider dispatch pays the ring worker pool's per-call bookkeeping).
//
// Ciphertexts live in the twisted-evaluation (double-CRT) domain — the
// only form a BackendCiphertext takes — and there is ONE multiply
// pipeline (mulResident): the Q-base tensor consumes the operands'
// evaluation form directly (zero forward transforms), the operands cross
// to coefficient form exactly once for the m~-corrected extension,
// squared operands are detected by row identity and extended/transformed
// once instead of twice, and the relinearized result lands in evaluation
// form (the accumulators already live in the evaluation domain, so the
// result adds NTT(c0/c1) instead of leaving it). Coefficient form survives
// only where BEHZ needs positional digits: the base conversions and the
// rounding offsets. The Galois key switch (galoisHop) is a second, shorter
// pipeline over the same frame and the same key-switch accumulate.
//
// Each pipeline is a straight-line list of steps under its phaseGate
// sites. A step is either a per-tower body — dispatched by the one helper,
// rnsBackend.towers, whose width (b.workers) is the only difference
// between the sequential and the tower-parallel configuration — or a
// per-coefficient BEHZ conversion run inline on the calling goroutine:
// the operand extension, the divide-and-round (rnsLevel.scaleRound), the
// exact return and the ladder's rescale each hand rows and precomputed
// weights to ring.AffineRows on the plan's kernel tier; see
// rns/baseconv.go for the row and weight table.
type rnsBackend struct {
	t       uint64
	k       int // towers at level 0
	workers int // tower-dispatch width, resolved at construction (never 0)
	levels  []*rnsLevel
}

// mtilde is the auxiliary Montgomery modulus of the m~-corrected operand
// extension: a power of two well above 2k for any supported basis.
const mtilde = 1 << 16

// rnsLevel is one rung of the RNS modulus ladder: the prefix context, its
// plaintext scale, the BEHZ multiply machinery sized for its tower count,
// and the rescaler that drops to the next rung.
type rnsLevel struct {
	c *rns.Context

	delta     *big.Int // floor(Q_l / T), the plaintext scaling factor
	deltaResT []uint64 // deltaResT[i] = Delta_l mod q_i
	halfDelta *big.Int
	halfQ     *big.Int
	deltaBits int

	// BEHZ multiply machinery. ext is the extension base: k_l+1 towers
	// whose product P gives the tensor headroom, plus the redundant
	// Shenoy-Kumaresan modulus m_sk as the last tower.
	ext    *rns.Context
	conv   *rns.BaseConverter     // Q_l -> ext, plain FastBConv for the divide-by-Q step
	mconv  *rns.MontBaseConverter // Q_l -> ext, m~-corrected operand extension
	skConv *rns.SKConverter       // ext -> Q_l, exact
	gadget [][]uint64             // gadget[i][tau] = (Q_l/q_i) mod q_tau, the relin gadget

	// Divide-and-round constants, one ring.AffineRows call per tower.
	// With w = T*v + h, h = floor(Q_l/2): digit[i] weighs the Q-base tensor
	// row (v_i) into w's FastBConv digit z_i = v_i*T*(Q_l/q_i)^-1 +
	// h*(Q_l/q_i)^-1 mod q_i, feeding rns.BaseConverter.ConvertDigitsInto;
	// extRound[j] weighs the extension-base tensor row and the converted
	// remainder (v_j, [w]_Q) into (w - [w]_Q)/Q_l = v_j*T*Q_l^-1 -
	// [w]_Q*Q_l^-1 + h*Q_l^-1 mod e_j.
	digit    []ring.Affine
	extRound []ring.Affine

	// relinLazy reports that k lazy Shoup products (each < 2q) fit a
	// 64-bit accumulator for every tower of this level, enabling the
	// deferred-reduction relin accumulation (one Barrett per element at
	// the end instead of a canonical multiply-add per digit).
	relinLazy bool

	rescale *rns.Rescaler // Q_l -> Q_{l+1} (nil at the bottom rung)
	mulPool sync.Pool
}

// rnsMulScratch is the pooled working set of one evaluation call (a
// multiply or a rotation chain) at one level. Every member is shaped per
// tower, so the dispatched steps run towers concurrently without sharing
// rows.
//
// The struct doubles as the call frame of the steps: the operand,
// destination and key fields are set at the top of the call, and the one
// dispatch closure (chunk, built with the frame in the pool's New)
// captures the frame itself and reads the current step from body — so a
// step costs no closure of its own, whatever the dispatch width.
type rnsMulScratch struct {
	opE           [4]rns.Poly // operands extended to the ext base
	evE           [5]rns.Poly // per-tower evaluation-domain rows (ext-base shaped)
	opQ           [4]rns.Poly // operand coefficient forms in Q_l; a rotation chain's hop buffers
	zQ            rns.Poly    // divide-and-round digits, then key-switch digit rows
	c0Q, c1Q, c2Q rns.Poly    // tensor, then scaled ciphertext, in Q_l
	c0E, c1E, c2E rns.Poly    // tensor in the ext base
	convE         rns.Poly    // FastBConv([w]_Q) landing buffer
	extRows       [][]uint64  // row list of the divide-and-round's extension step
	accA, accB    rns.Poly    // key-switch evaluation-domain accumulators
	liftQ, prodQ  rns.Poly    // key-switch rows of the unfused accumulate

	// Call frame for the dispatched steps.
	lv         *rnsLevel
	in         [4]rns.Poly // a1, b1, a2, b2 in evaluation form
	outA, outB rns.Poly
	lkey       *rnsLevelRelin
	squaring   bool               // operand rows of ct1 and ct2 are identical slices
	gtab       *ring.GaloisTables // the galois hop's index maps (rotation path)

	body  func(sc *rnsMulScratch, i int) // the step towers is dispatching
	chunk func(start, end int)           // runs body over [start, end)
}

// towers is the one tower dispatch: body runs for every i in [0, n), on
// at most b.workers goroutines of the shared ring worker pool. Width 1 is
// a plain loop on the caller (the pool's dispatch degenerates to
// chunk(0, n)), so sequential versus tower-parallel is this argument and
// not a code path. Steps of one call are issued one after another, each
// dispatch a barrier, so a step may read anything an earlier step wrote.
func (b *rnsBackend) towers(sc *rnsMulScratch, n int, body func(sc *rnsMulScratch, i int)) {
	sc.body = body
	ring.ParallelChunks(n, b.workers, sc.chunk)
}

// release returns a frame to its level's pool — or, when a panic is
// unwinding through the evaluation, quarantines it: the frame may be torn
// by whichever step panicked, so the GC reclaims it, the pool refills
// fresh, and the panic continues to the caller's recovery layer.
// Cancellation is an ordinary exit (the frame is intact, just abandoned
// mid-math). The caller's polynomials and key rows are dropped first so
// the pool never pins live ciphertext storage between calls. Deferred
// directly, so recover() sees the caller's panic.
func (sc *rnsMulScratch) release() {
	if r := recover(); r != nil {
		quarantinedScratch.Add(1)
		panic(r)
	}
	lv := sc.lv
	sc.lv, sc.lkey, sc.gtab, sc.squaring = nil, nil, nil, false
	sc.in = [4]rns.Poly{}
	sc.outA, sc.outB = rns.Poly{}, rns.Poly{}
	lv.mulPool.Put(sc)
}

// NewRNSBackend wraps an RNS context and plaintext modulus t as a
// Backend. t must be at least 2, below every basis prime (so plaintext
// residues are reduced in every tower), small enough that Delta_l =
// floor(Q_l/t) is nonzero at every level, and — for the BEHZ multiply's
// headroom — small enough that rescaled tensor coefficients stay below
// half the extension base (validated exactly, per level, below).
func NewRNSBackend(c *rns.Context, t uint64) (Backend, error) {
	return NewRNSBackendWorkers(c, t, 0)
}

// NewRNSBackendWorkers is NewRNSBackend with the tower-dispatch width
// pinned: at most that many towers of a step run concurrently. 1 keeps
// every step on the calling goroutine — the zero-allocation configuration
// the alloc gates measure. 0 resolves to GOMAXPROCS at construction (the
// default), which on a single-CPU host is that same configuration.
func NewRNSBackendWorkers(c *rns.Context, t uint64, workers int) (Backend, error) {
	if workers < 0 {
		return nil, fmt.Errorf("fhe: negative worker count %d", workers)
	}
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if t < 2 {
		return nil, fmt.Errorf("fhe: plaintext modulus %d too small", t)
	}
	minQ, maxQ := c.Mods[0].Q, c.Mods[0].Q
	for _, mod := range c.Mods {
		if t >= mod.Q {
			return nil, fmt.Errorf("fhe: plaintext modulus %d not below tower prime %d", t, mod.Q)
		}
		minQ = min(minQ, mod.Q)
		maxQ = max(maxQ, mod.Q)
	}
	if maxQ >= 2*minQ {
		// The relin digit lift reduces a tower-i residue into tower tau
		// with one conditional subtraction, which needs q_i < 2*q_tau.
		return nil, fmt.Errorf("fhe: mixed-width RNS basis unsupported (primes %d and %d)", minQ, maxQ)
	}
	k := c.Channels()
	b := &rnsBackend{t: t, k: k, workers: workers}

	// The extension primes are shared by every level: the top-down search
	// returns Q's own primes first, so overshoot and filter against the
	// FULL basis (a level's extension may then never collide with any
	// rung's towers).
	primeBits := bits.Len64(c.Mods[0].Q)
	found, err := modmath.FindNTTPrimes64(primeBits, uint64(2*c.N), 2*k+2)
	if err != nil {
		return nil, fmt.Errorf("fhe: extension base: %w", err)
	}
	inQ := make(map[uint64]bool, k)
	basePrimes := make([]uint64, k)
	for i, mod := range c.Mods {
		inQ[mod.Q] = true
		basePrimes[i] = mod.Q
	}
	var extPrimes []uint64
	for _, p := range found {
		if !inQ[p] && len(extPrimes) < k+2 {
			extPrimes = append(extPrimes, p)
		}
	}
	if len(extPrimes) < k+2 {
		return nil, fmt.Errorf("fhe: only %d extension primes available, need %d", len(extPrimes), k+2)
	}

	// Build the ladder top-down: level l is the prefix basis with k-l
	// towers. Contexts share the process-wide plan cache, so the chain
	// costs no extra transform plans.
	for l := 0; l < k; l++ {
		kl := k - l
		var cl *rns.Context
		if l == 0 {
			cl = c
		} else {
			cl, err = rns.NewContextForPrimes(basePrimes[:kl], c.N)
			if err != nil {
				return nil, err
			}
		}
		lv, err := b.buildLevel(cl, extPrimes[:kl+2])
		if err != nil {
			return nil, fmt.Errorf("fhe: level %d: %w", l, err)
		}
		b.levels = append(b.levels, lv)
	}
	for l := 0; l+1 < k; l++ {
		r, err := rns.NewRescaler(b.levels[l].c, b.levels[l+1].c)
		if err != nil {
			return nil, fmt.Errorf("fhe: rescaler %d -> %d: %w", l, l+1, err)
		}
		b.levels[l].rescale = r
	}
	return b, nil
}

// buildLevel constructs one rung: plaintext scale constants plus the
// BEHZ multiply machinery (extension base, converters, precomputed
// residues, gadget) sized for the rung's tower count, with the exact
// headroom validation in code rather than folklore.
func (b *rnsBackend) buildLevel(c *rns.Context, extPrimes []uint64) (*rnsLevel, error) {
	k := c.Channels()
	delta := new(big.Int).Div(c.Q, new(big.Int).SetUint64(b.t))
	if delta.Sign() == 0 {
		return nil, fmt.Errorf("fhe: plaintext modulus %d too large for Q", b.t)
	}
	lv := &rnsLevel{
		c:         c,
		delta:     delta,
		halfDelta: new(big.Int).Rsh(delta, 1),
		halfQ:     new(big.Int).Rsh(c.Q, 1),
		deltaBits: delta.BitLen(),
	}
	qb := new(big.Int)
	for _, mod := range c.Mods {
		lv.deltaResT = append(lv.deltaResT, qb.Mod(delta, new(big.Int).SetUint64(mod.Q)).Uint64())
	}
	ext, err := rns.NewContextForPrimes(extPrimes, c.N)
	if err != nil {
		return nil, err
	}
	conv, err := rns.NewBaseConverter(c, ext)
	if err != nil {
		return nil, err
	}
	mconv, err := rns.NewMontBaseConverter(c, ext, mtilde)
	if err != nil {
		return nil, err
	}
	skConv, err := rns.NewSKConverter(ext, c)
	if err != nil {
		return nil, err
	}
	lv.ext, lv.conv, lv.mconv, lv.skConv = ext, conv, mconv, skConv

	// Exact headroom validation. The m~-corrected extension bounds every
	// operand by |y| < Q (gamma in {-1, 0} — no k*Q overshoot), so tensor
	// coefficients |v| <= 2n*Q^2 and the rescaled |y| <= T*2n*Q + (k+2);
	// the tensor must fit the full base (|w| < Q*E/2) and y must fit the
	// Shenoy-Kumaresan window (|y| < P/2, P = E/m_sk).
	n := new(big.Int).SetInt64(int64(c.N))
	vMax := new(big.Int).Mul(c.Q, c.Q)
	vMax.Mul(vMax, n).Lsh(vMax, 1) // 2n*Q^2
	wMax := new(big.Int).Mul(vMax, new(big.Int).SetUint64(b.t))
	wMax.Add(wMax, lv.halfQ)
	full := new(big.Int).Mul(c.Q, ext.Q)
	if wMax.Cmp(new(big.Int).Rsh(full, 1)) >= 0 {
		return nil, fmt.Errorf("fhe: tensor product overflows base Q*E for T=%d", b.t)
	}
	yMax := new(big.Int).Div(wMax, c.Q)
	yMax.Add(yMax, new(big.Int).SetInt64(int64(k+2)))
	p := new(big.Int).Div(ext.Q, new(big.Int).SetUint64(ext.Mods[k+1].Q))
	if yMax.Cmp(new(big.Int).Rsh(p, 1)) >= 0 {
		return nil, fmt.Errorf("fhe: rescaled product overflows extension base P for T=%d", b.t)
	}

	t := new(big.Int)
	for i, mod := range c.Mods {
		qb := new(big.Int).SetUint64(mod.Q)
		qiInv := c.QiInv(i)
		lv.digit = append(lv.digit, ring.NewAffine(mod,
			mod.Mul(t.Mod(lv.halfQ, qb).Uint64(), qiInv), mod.Mul(b.t%mod.Q, qiInv)))
		row := make([]uint64, k)
		qi := c.QiBig(i)
		for tau, modT := range c.Mods {
			row[tau] = t.Mod(qi, new(big.Int).SetUint64(modT.Q)).Uint64()
		}
		lv.gadget = append(lv.gadget, row)
	}
	for _, mod := range ext.Mods {
		qb := new(big.Int).SetUint64(mod.Q)
		qInv := mod.Inv(t.Mod(c.Q, qb).Uint64())
		lv.extRound = append(lv.extRound, ring.NewAffine(mod,
			mod.Mul(t.Mod(lv.halfQ, qb).Uint64(), qInv),
			mod.Mul(b.t%mod.Q, qInv), mod.Neg(qInv)))
	}
	maxQ, minQ := c.Mods[0].Q, c.Mods[0].Q
	for _, mod := range c.Mods[1:] {
		if mod.Q > maxQ {
			maxQ = mod.Q
		}
		if mod.Q < minQ {
			minQ = mod.Q
		}
	}
	// Both halves of the lazy contract: k summands < 2*maxQ may not wrap
	// the 64-bit accumulator, and the final Barrett64Reduce(0, acc) needs
	// acc < q^2, i.e. q > 2^32 so that q^2 covers the whole accumulator.
	lv.relinLazy = uint64(k) <= ^uint64(0)/(2*maxQ) && minQ > 1<<32
	lv.mulPool.New = func() any {
		sc := &rnsMulScratch{
			c0Q: c.NewPoly(), c1Q: c.NewPoly(), c2Q: c.NewPoly(),
			c0E: ext.NewPoly(), c1E: ext.NewPoly(), c2E: ext.NewPoly(),
			convE: ext.NewPoly(), extRows: make([][]uint64, 2),
			zQ: c.NewPoly(), liftQ: c.NewPoly(), prodQ: c.NewPoly(),
			accA: c.NewPoly(), accB: c.NewPoly(),
		}
		for i := range sc.opE {
			sc.opE[i] = ext.NewPoly()
		}
		for i := range sc.opQ {
			sc.opQ[i] = c.NewPoly()
		}
		for i := range sc.evE {
			// Ext-base shaped (the wider base), so the same rows serve both
			// bases' per-tower steps: m >= k and every row is length N.
			sc.evE[i] = ext.NewPoly()
		}
		sc.chunk = func(start, end int) {
			for i := start; i < end; i++ {
				sc.body(sc, i)
			}
		}
		return sc
	}
	return lv, nil
}

func (b *rnsBackend) Name() string {
	return fmt.Sprintf("rns-k%d", b.k)
}

func (b *rnsBackend) N() int                   { return b.levels[0].c.N }
func (b *rnsBackend) PlainModulus() uint64     { return b.t }
func (b *rnsBackend) Levels() int              { return len(b.levels) }
func (b *rnsBackend) NewPoly() Poly            { return b.levels[0].c.NewPoly() }
func (b *rnsBackend) NewPolyAt(level int) Poly { return b.levels[level].c.NewPoly() }

func (b *rnsBackend) Copy(a Poly) Poly {
	src := a.(rns.Poly)
	out := rns.Poly{Res: ring.AllocBatch[uint64](b.levels[0].c.N, len(src.Res))}
	for i, row := range src.Res {
		copy(out.Res[i], row)
	}
	return out
}

// checkPolyAt validates one handle: backend type, the level's tower
// shape, and residues reduced below each tower prime.
func (b *rnsBackend) checkPolyAt(level int, a Poly) error {
	x, ok := a.(rns.Poly)
	if !ok {
		return fmt.Errorf("fhe: foreign polynomial handle %T on the %s backend", a, b.Name())
	}
	c := b.levels[level].c
	if len(x.Res) != c.Channels() {
		return fmt.Errorf("fhe: got %d towers, want %d at level %d", len(x.Res), c.Channels(), level)
	}
	for i, row := range x.Res {
		if len(row) != c.N {
			return fmt.Errorf("fhe: tower %d has %d coefficients, want %d", i, len(row), c.N)
		}
		q := c.Mods[i].Q
		for j, v := range row {
			if v >= q {
				return fmt.Errorf("fhe: tower %d coefficient %d not reduced mod %d", i, j, q)
			}
		}
	}
	return nil
}

func (b *rnsBackend) CheckPoly(level int, a Poly) error {
	if level < 0 || level >= len(b.levels) {
		return fmt.Errorf("fhe: level %d outside the %d-level chain", level, len(b.levels))
	}
	return b.checkPolyAt(level, a)
}

//mqx:validator
func (b *rnsBackend) CheckCiphertext(ct BackendCiphertext) error {
	if ct.Level < 0 || ct.Level >= len(b.levels) {
		return fmt.Errorf("fhe: level %d outside the %d-level chain", ct.Level, len(b.levels))
	}
	if ct.A == nil || ct.B == nil {
		return fmt.Errorf("fhe: malformed ciphertext (nil component)")
	}
	if err := b.checkPolyAt(ct.Level, ct.A); err != nil {
		return err
	}
	return b.checkPolyAt(ct.Level, ct.B)
}

// must panics on shape errors: backend handles reaching these internal
// paths have passed the scheme layer's provenance validation, so an error
// here is a backend-private invariant violation, not user input.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

func (b *rnsBackend) Add(level int, dst, a, c Poly) {
	must(b.levels[level].c.AddInto(dst.(rns.Poly), a.(rns.Poly), c.(rns.Poly)))
}

func (b *rnsBackend) Sub(level int, dst, a, c Poly) {
	must(b.levels[level].c.SubInto(dst.(rns.Poly), a.(rns.Poly), c.(rns.Poly)))
}

func (b *rnsBackend) MulNegacyclic(level int, dst, a, c Poly) {
	must(b.levels[level].c.MulAll(dst.(rns.Poly), a.(rns.Poly), c.(rns.Poly), b.workers))
}

func (b *rnsBackend) ToNTT(level int, dst, a Poly) {
	must(b.levels[level].c.NegacyclicNTTAll(dst.(rns.Poly), a.(rns.Poly), b.workers))
}

func (b *rnsBackend) ToCoeff(level int, dst, a Poly) {
	must(b.levels[level].c.NegacyclicINTTAll(dst.(rns.Poly), a.(rns.Poly), b.workers))
}

func (b *rnsBackend) PMul(level int, dst, a, c Poly) {
	must(b.levels[level].c.PMulInto(dst.(rns.Poly), a.(rns.Poly), c.(rns.Poly)))
}

// SampleUniform draws independent uniform residues per tower, which by
// the CRT is exactly a uniform element of Z_Q.
func (b *rnsBackend) SampleUniform(dst Poly, rng *rand.Rand) {
	sampleUniformCtx(b.levels[0].c, dst.(rns.Poly), rng)
}

func sampleUniformCtx(c *rns.Context, d rns.Poly, rng *rand.Rand) {
	for i, mod := range c.Mods {
		row := d.Res[i]
		for j := range row {
			row[j] = rng.Uint64() % mod.Q
		}
	}
}

func (b *rnsBackend) SetSigned(dst Poly, coeffs []int64) {
	b.setSignedCtx(b.levels[0].c, dst.(rns.Poly), coeffs)
}

// SecretAt restricts a level-0 small signed polynomial to a lower rung.
// Because a level is a tower PREFIX, the restriction is just the first
// k-l rows — no re-encoding, no copy.
func (b *rnsBackend) SecretAt(level int, s Poly) Poly {
	src := s.(rns.Poly)
	return rns.Poly{Res: src.Res[:b.levels[level].c.Channels()]}
}

// AddDeltaMsg folds Delta_l-scaled plaintext into a ciphertext component,
// each tower on its plan's scale-accumulate kernel.
func (b *rnsBackend) AddDeltaMsg(level int, dst, a Poly, msg []uint64) {
	lv := b.levels[level]
	d, x := dst.(rns.Poly), a.(rns.Poly)
	for i := range lv.c.Mods {
		lv.c.Plans[i].Generic().ScaleAddInto(d.Res[i], x.Res[i], msg, lv.deltaResT[i])
	}
}

func (b *rnsBackend) RoundToPlain(level int, a Poly) []uint64 {
	lv := b.levels[level]
	coeffs := make([]*big.Int, lv.c.N)
	must(lv.c.ReconstructInto(coeffs, a.(rns.Poly)))
	out := make([]uint64, lv.c.N)
	for i, x := range coeffs {
		// Round to the nearest multiple of Delta_l.
		x.Add(x, lv.halfDelta).Div(x, lv.delta)
		out[i] = x.Uint64() % b.t
	}
	return out
}

func (b *rnsBackend) DeltaBits(level int) int { return b.levels[level].deltaBits }

func (b *rnsBackend) NoiseBits(level int, a Poly, msg []uint64) int {
	lv := b.levels[level]
	coeffs := make([]*big.Int, lv.c.N)
	must(lv.c.ReconstructInto(coeffs, a.(rns.Poly)))
	noise := new(big.Int)
	maxBits := 0
	for i, x := range coeffs {
		noise.SetUint64(msg[i] % b.t)
		noise.Mul(noise, lv.delta)
		noise.Sub(x, noise)
		noise.Mod(noise, lv.c.Q)
		// Centered magnitude.
		if noise.Cmp(lv.halfQ) > 0 {
			noise.Sub(lv.c.Q, noise)
		}
		if bl := noise.BitLen(); bl > maxBits {
			maxBits = bl
		}
	}
	return maxBits
}

// rnsRelinKey holds the RNS-gadget relinearization key, one set per
// ladder level: for each tower i of level l, an encryption
// (a_i, a_i*s + e_i + (Q_l/q_i)*s^2) under that level's basis.
type rnsRelinKey struct {
	levels []rnsLevelRelin
}

// rnsLevelRelin is one level's gadget key-switch key — the relin key's
// and every Galois entry's layout alike. Both components are stored per
// tower in the twisted-evaluation domain, so a key switch pays one forward
// transform per digit-tower pair and the key-side transforms are all at
// keygen.
type rnsLevelRelin struct {
	a, b []rns.Poly

	// aPre/bPre are the elementwise Shoup precomputations of the key rows.
	// With the second multiplicand fixed — the key — the inner product can
	// run as lazy Shoup products accumulated with plain integer adds,
	// deferring the per-digit Barrett reduction to one pass per tower.
	aPre, bPre []rns.Poly
}

// check validates a key level against the k-tower, degree-n level it is
// about to be indexed at: a key of the right TYPE can still come from a
// different backend instance (other tower count, other N).
func (lk *rnsLevelRelin) check(what string, k, n int) error {
	if len(lk.a) != k || len(lk.b) != k || len(lk.aPre) != k || len(lk.bPre) != k {
		return fmt.Errorf("fhe: %s key has %d digits, want %d", what, len(lk.a), k)
	}
	for i := 0; i < k; i++ {
		for _, p := range [4]rns.Poly{lk.a[i], lk.b[i], lk.aPre[i], lk.bPre[i]} {
			if len(p.Res) != k || len(p.Res[0]) != n {
				return fmt.Errorf("fhe: %s key digit %d shaped for another backend", what, i)
			}
		}
	}
	return nil
}

// gadgetKeyLevel builds one level's gadget encryption of target under s:
// for each tower i, (a_i, a_i*s + e_i + (Q_l/q_i)*target), transformed
// and Shoup-precomputed. target is a level-0 polynomial in coefficient
// form whose tower PREFIX is its restriction to the level (s^2 and
// tau_g(s) both act row-wise, so the restriction is free). Per digit the
// generator draws a_i, then e_i — the order every committed key and test
// vector depends on.
func (b *rnsBackend) gadgetKeyLevel(level int, s Poly, target rns.Poly, rng *rand.Rand) rnsLevelRelin {
	lv := b.levels[level]
	c := lv.c
	k := c.Channels()
	sk := b.SecretAt(level, s).(rns.Poly)
	noise := make([]int64, c.N)
	e := c.NewPoly()
	lk := rnsLevelRelin{}
	for i := 0; i < k; i++ {
		a := c.NewPoly()
		sampleUniformCtx(c, a, rng)
		for j := range noise {
			noise[j] = int64(rng.Intn(2*noiseBound+1) - noiseBound)
		}
		b.setSignedCtx(c, e, noise)
		bb := c.NewPoly()
		must(c.MulAll(bb, a, sk, 1)) // a_i * s
		must(c.AddInto(bb, bb, e))   // + e_i
		aPre, bPre := c.NewPoly(), c.NewPoly()
		for tau := 0; tau < k; tau++ {
			plan := c.Plans[tau].Generic()
			// + (Q_l/q_i mod q_tau) * target, on the scale-accumulate kernel.
			plan.ScaleAddInto(bb.Res[tau], bb.Res[tau], target.Res[tau], lv.gadget[i][tau])
			plan.NegacyclicForwardInto(a.Res[tau], a.Res[tau])
			plan.NegacyclicForwardInto(bb.Res[tau], bb.Res[tau])
			mod := c.Mods[tau]
			for j, v := range a.Res[tau] {
				aPre.Res[tau][j] = mod.ShoupPrecompute(v)
			}
			for j, v := range bb.Res[tau] {
				bPre.Res[tau][j] = mod.ShoupPrecompute(v)
			}
		}
		lk.a = append(lk.a, a)
		lk.b = append(lk.b, bb)
		lk.aPre = append(lk.aPre, aPre)
		lk.bPre = append(lk.bPre, bPre)
	}
	return lk
}

// RelinKeyGen builds the CRT-gadget relinearization key at every ladder
// level. The gadget digits are the towers themselves
// (z_i = [c2_i * (Q_l/q_i)^-1]_{q_i}, with sum_i z_i*(Q_l/q_i) = c2 mod
// Q_l), so no integer digit extraction is ever needed — the decomposition
// the paper's RNS philosophy already paid for is the key-switching gadget,
// at every level.
func (b *rnsBackend) RelinKeyGen(s Poly, rng *rand.Rand) BackendRelinKey {
	// s^2 per tower is level-independent (each tower's negacyclic square
	// stands alone), so compute it once at level 0.
	sk0 := s.(rns.Poly)
	s2 := b.levels[0].c.NewPoly()
	must(b.levels[0].c.MulAll(s2, sk0, sk0, 1))
	key := &rnsRelinKey{}
	for l := range b.levels {
		key.levels = append(key.levels, b.gadgetKeyLevel(l, s, s2, rng))
	}
	return key
}

// rnsGaloisKey is the Galois key set: one CRT-gadget key-switch key per
// automorphism element, covering the power-of-two rotation elements
// 3^(2^j) mod 2n plus the conjugation element 2n-1 — O(log n) keys
// decompose every rotation amount. Each entry mirrors the relin key's
// per-level NTT-domain layout exactly (same gadget, same lazy Shoup
// precomputations), encrypting tau_g(s) instead of s^2.
type rnsGaloisKey struct {
	n       int
	entries map[uint64]*rnsGaloisEntry
}

type rnsGaloisEntry struct {
	g      uint64
	tab    *ring.GaloisTables // resolved once at keygen: rotation never hits the cache
	levels []rnsLevelRelin
}

// galoisKeyElements lists the automorphism elements GaloisKeyGen covers:
// the binary ladder of rotation elements plus the conjugation.
func galoisKeyElements(n int) []uint64 {
	twoN := uint64(2 * n)
	var gs []uint64
	g := uint64(ring.SlotGenerator)
	for m := 1; m < n/2; m *= 2 {
		gs = append(gs, g)
		g = g * g % twoN
	}
	return append(gs, ring.ConjugationElement(n))
}

// GaloisKeyGen builds the per-level Galois key-switch keys: RelinKeyGen
// with tau_g(s) in place of s^2 for each covered element g. tau_g(s) is
// computed once per g at level 0 in the coefficient domain.
func (b *rnsBackend) GaloisKeyGen(s Poly, rng *rand.Rand) BackendGaloisKey {
	sk0 := s.(rns.Poly)
	n := b.N()
	c0 := b.levels[0].c
	tauS := c0.NewPoly()
	key := &rnsGaloisKey{n: n, entries: make(map[uint64]*rnsGaloisEntry)}
	for _, g := range galoisKeyElements(n) {
		tab, err := ring.GaloisTablesFor(n, g)
		must(err)
		for tau := range c0.Mods {
			c0.Plans[tau].Generic().AutomorphismCoeffInto(tab, tauS.Res[tau], sk0.Res[tau])
		}
		entry := &rnsGaloisEntry{g: g, tab: tab}
		for l := range b.levels {
			entry.levels = append(entry.levels, b.gadgetKeyLevel(l, s, tauS, rng))
		}
		key.entries[g] = entry
	}
	return key
}

// RotateSlotsCtx rotates both slot rows left by steps via the binary
// decomposition of the rotation: one Galois key-switch hop per set bit,
// each hop a permutation + CRT-gadget key switch on the multiply's pooled
// frame and key-switch accumulate. ctx is observed before every hop. dst
// must not alias ct (checked: the permutation writes tau(B) straight into
// dst).
func (b *rnsBackend) RotateSlotsCtx(ctx context.Context, dst *BackendCiphertext, ct BackendCiphertext, steps int, gk BackendGaloisKey) error {
	key, err := b.checkGaloisCall(dst, ct, gk)
	if err != nil {
		return err
	}
	rows := b.N() / 2
	steps = ((steps % rows) + rows) % rows
	return b.galoisChain(ctx, dst, ct, key, steps, false)
}

// ConjugateCtx applies the row-swap automorphism (Galois element 2n-1)
// with the same contract as RotateSlotsCtx.
func (b *rnsBackend) ConjugateCtx(ctx context.Context, dst *BackendCiphertext, ct BackendCiphertext, gk BackendGaloisKey) error {
	key, err := b.checkGaloisCall(dst, ct, gk)
	if err != nil {
		return err
	}
	return b.galoisChain(ctx, dst, ct, key, 0, true)
}

// checkGaloisCall validates the rotate/conjugate arguments the way
// MulCtCtx validates its own: key provenance first, then level agreement,
// then handle types, destination shape and aliasing.
func (b *rnsBackend) checkGaloisCall(dst *BackendCiphertext, ct BackendCiphertext, gk BackendGaloisKey) (*rnsGaloisKey, error) {
	key, ok := gk.(*rnsGaloisKey)
	if !ok {
		return nil, fmt.Errorf("fhe: foreign galois key %T on the %s backend", gk, b.Name())
	}
	if key.n != b.N() {
		return nil, fmt.Errorf("fhe: galois key built for degree %d, want %d", key.n, b.N())
	}
	if err := checkRotateLevels(len(b.levels), dst, ct); err != nil {
		return nil, err
	}
	c := b.levels[ct.Level].c
	k := c.Channels()
	srcA, ok1 := ct.A.(rns.Poly)
	srcB, ok2 := ct.B.(rns.Poly)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("fhe: foreign ciphertext handle on the %s backend", b.Name())
	}
	dstA, okA := dst.A.(rns.Poly)
	dstB, okB := dst.B.(rns.Poly)
	if !okA || !okB {
		return nil, fmt.Errorf("fhe: foreign destination handle on the %s backend", b.Name())
	}
	if len(srcA.Res) != k || len(srcB.Res) != k || len(dstA.Res) != k || len(dstB.Res) != k ||
		len(dstA.Res[0]) != c.N || len(dstB.Res[0]) != c.N {
		return nil, fmt.Errorf("fhe: rotate operands not shaped for level %d", ct.Level)
	}
	if sameRows(dstA, srcA) || sameRows(dstA, srcB) || sameRows(dstB, srcA) || sameRows(dstB, srcB) {
		return nil, fmt.Errorf("fhe: rotate destination aliases the source ciphertext")
	}
	return key, nil
}

// galoisChain runs the hop sequence for one rotation: the entries for the
// set bits of steps (lowest first), then the conjugation when asked.
// Intermediate hops alternate through the scratch frame's operand
// buffers, arranged so the final hop lands in dst and no hop ever reads
// the rows it is writing.
func (b *rnsBackend) galoisChain(ctx context.Context, dst *BackendCiphertext, ct BackendCiphertext, key *rnsGaloisKey, steps int, conj bool) error {
	n := b.N()
	lv := b.levels[ct.Level]
	k := lv.c.Channels()
	var hops [65]*rnsGaloisEntry
	nh := 0
	g := uint64(ring.SlotGenerator)
	twoN := uint64(2 * n)
	for s := steps; s != 0; s >>= 1 {
		if s&1 == 1 {
			e := key.entries[g]
			if e == nil {
				return fmt.Errorf("fhe: galois key missing rotation element %d", g)
			}
			hops[nh] = e
			nh++
		}
		g = g * g % twoN
	}
	if conj {
		e := key.entries[ring.ConjugationElement(n)]
		if e == nil {
			return fmt.Errorf("fhe: galois key missing the conjugation element")
		}
		hops[nh] = e
		nh++
	}
	srcA, srcB := ct.A.(rns.Poly), ct.B.(rns.Poly)
	dstA, dstB := dst.A.(rns.Poly), dst.B.(rns.Poly)
	if nh == 0 {
		// The identity rotation is a plain copy.
		for i := 0; i < k; i++ {
			copy(dstA.Res[i], srcA.Res[i])
			copy(dstB.Res[i], srcB.Res[i])
		}
		return nil
	}
	// Validate every hop's per-level shape before any hop indexes into it.
	for h := 0; h < nh; h++ {
		if ct.Level >= len(hops[h].levels) {
			return fmt.Errorf("fhe: galois key covers %d levels, ciphertext at level %d", len(hops[h].levels), ct.Level)
		}
		if err := hops[h].levels[ct.Level].check("galois", k, n); err != nil {
			return err
		}
	}
	sc := lv.mulPool.Get().(*rnsMulScratch)
	defer sc.release()
	sc.lv = lv
	sc.in[0], sc.in[1] = srcA, srcB
	for h := 0; h < nh; h++ {
		if err := phaseGate(ctx, faultinject.SiteRotate); err != nil {
			return err
		}
		sc.outA, sc.outB = dstA, dstB
		if h != nh-1 {
			sc.outA, sc.outB = sc.opQ[2*(h%2)], sc.opQ[2*(h%2)+1]
		}
		sc.lkey = &hops[h].levels[ct.Level]
		sc.gtab = hops[h].tab
		b.galoisHop(sc)
		sc.in[0], sc.in[1] = sc.outA, sc.outB
	}
	return nil
}

// galoisHop applies one automorphism + key switch to the frame's operand
// pair (in[0], in[1]): permute both components, scale tau(A) into its gadget
// digit rows (the relin digit map verbatim), then accumulate the key
// inner product per tower and land the hop.
func (b *rnsBackend) galoisHop(sc *rnsMulScratch) {
	k := sc.lv.c.Channels()
	b.towers(sc, k, galoisPermuteTower)
	b.towers(sc, k, relinDigitRow)
	b.towers(sc, k, galoisTower)
}

// galoisPermuteTower permutes one tower of both ciphertext components in
// the evaluation domain — a pure index map. tau(A) then crosses to
// COEFFICIENT form in c2Q (the gadget decomposition needs positional
// digits); tau(B) lands directly in the hop's output rows.
func galoisPermuteTower(sc *rnsMulScratch, tau int) {
	plan := sc.lv.c.Plans[tau].Generic()
	tmp := sc.evE[0].Res[tau]
	plan.AutomorphismEvalInto(sc.gtab, tmp, sc.in[0].Res[tau])
	plan.NegacyclicInverseInto(sc.c2Q.Res[tau], tmp)
	plan.AutomorphismEvalInto(sc.gtab, sc.outB.Res[tau], sc.in[1].Res[tau])
}

// galoisTower accumulates the k gadget digits of tau(A) against one
// tower of the hop's key rows and lands the key-switched pair
// (A', B') = (-acc_a, tau(B) - acc_b): the key's b rows encrypt
// tau_g(s) under s, so B' - A'*s = tau(B) - tau(A)*tau(s) + small noise.
func galoisTower(sc *rnsMulScratch, tau int) {
	mod := sc.lv.c.Mods[tau]
	accA, accB := keySwitchAccumulate(sc, tau)
	reduceNegRow(sc.outA.Res[tau], accA, mod)
	reduceSubRow(sc.outB.Res[tau], accB, mod)
}

// reduceNegRow lands an accumulator row negated on a canonical row:
// dst[j] = -acc[j] mod q, one Barrett reduction per element.
func reduceNegRow(dst, acc []uint64, mod *modmath.Modulus64) {
	q, mu, nb := mod.Q, mod.Mu, mod.N
	acc = acc[:len(dst)]
	for j := range dst {
		dst[j] = mod.Neg(modmath.Barrett64Reduce(0, acc[j], q, mu, nb))
	}
}

// reduceSubRow lands an accumulator row subtracted from a canonical row:
// dst[j] = dst[j] - acc[j] mod q.
func reduceSubRow(dst, acc []uint64, mod *modmath.Modulus64) {
	q, mu, nb := mod.Q, mod.Mu, mod.N
	acc = acc[:len(dst)]
	for j := range dst {
		dst[j] = mod.Sub(dst[j], modmath.Barrett64Reduce(0, acc[j], q, mu, nb))
	}
}

func (b *rnsBackend) setSignedCtx(c *rns.Context, dst rns.Poly, coeffs []int64) {
	for i, mod := range c.Mods {
		row := dst.Res[i]
		for j, e := range coeffs {
			if e >= 0 {
				row[j] = uint64(e) % mod.Q
			} else {
				row[j] = mod.Neg(uint64(-e) % mod.Q)
			}
		}
	}
}

// scaleRound turns one tensor component held in (cQ, cE) into the scaled
// ciphertext component round(T*v/Q_l) mod Q_l, written back into cQ:
// with w = T*v + floor(Q_l/2), the FastBConv digits of w's Q-remainder
// (one kernel call per Q tower), their conversion into the extension
// base, y = (w - [w]_Q)/Q_l there (one kernel call per extension tower),
// and the exact Shenoy-Kumaresan conversion back to Q_l. The FastBConv
// overshoot divides down to an additive error below k+1 — noise, not
// wrongness. Each step is tens of microseconds on the vector tier, so it
// runs inline on the calling goroutine whatever the worker count.
func (lv *rnsLevel) scaleRound(sc *rnsMulScratch, cQ, cE rns.Poly) {
	for i, plan := range lv.c.Plans {
		ring.AffineRows(plan.Generic(), sc.zQ.Res[i], lv.digit[i], cQ.Res[i:i+1])
	}
	must(lv.conv.ConvertDigitsInto(sc.convE, sc.zQ))
	for j, plan := range lv.ext.Plans {
		sc.extRows[0], sc.extRows[1] = cE.Res[j], sc.convE.Res[j]
		ring.AffineRows(plan.Generic(), cE.Res[j], lv.extRound[j], sc.extRows)
	}
	must(lv.skConv.ConvertInto(cQ, cE))
}

// MulCtCtx is the BEHZ homomorphic multiply in the operands' level basis:
// m~-corrected base extension (no operand overshoot), tensor,
// divide-and-round by Q_l/T, exact return to base Q_l, and CRT-gadget
// relinearization with the level's keys — residues end to end, no big
// integers anywhere. ctx is observed at the four BEHZ phase boundaries
// (base extension, tensor, divide-and-round, relinearization) and the
// multiply aborts with ctx.Err() — dst then holds garbage the scheme layer
// never returns. dst may alias an operand: its rows are first written by
// the relinearization's landing, after the last read of every operand.
// The pooled frame goes back to the pool on every ordinary exit,
// including cancellation; a PANIC unwinding through the multiply
// quarantines it instead (rnsMulScratch.release).
func (b *rnsBackend) MulCtCtx(ctx context.Context, dst *BackendCiphertext, ct1, ct2 BackendCiphertext, rlk BackendRelinKey) error {
	key, ok := rlk.(*rnsRelinKey)
	if !ok {
		return fmt.Errorf("fhe: foreign relinearization key %T on the %s backend", rlk, b.Name())
	}
	if err := checkMulLevels(len(b.levels), dst, ct1, ct2); err != nil {
		return err
	}
	lv := b.levels[ct1.Level]
	c := lv.c
	k := c.Channels()
	if ct1.Level >= len(key.levels) {
		return fmt.Errorf("fhe: relin key covers %d levels, ciphertext at level %d", len(key.levels), ct1.Level)
	}
	lkey := &key.levels[ct1.Level]
	if err := lkey.check("relin", k, c.N); err != nil {
		return err
	}
	a1, ok1 := ct1.A.(rns.Poly)
	b1, ok2 := ct1.B.(rns.Poly)
	a2, ok3 := ct2.A.(rns.Poly)
	b2, ok4 := ct2.B.(rns.Poly)
	if !ok1 || !ok2 || !ok3 || !ok4 {
		return fmt.Errorf("fhe: foreign ciphertext handle on the %s backend", b.Name())
	}
	dstA, okA := dst.A.(rns.Poly)
	dstB, okB := dst.B.(rns.Poly)
	if !okA || !okB {
		return fmt.Errorf("fhe: foreign destination handle on the %s backend", b.Name())
	}
	if len(dstA.Res) != k || len(dstB.Res) != k ||
		len(dstA.Res[0]) != c.N || len(dstB.Res[0]) != c.N {
		return fmt.Errorf("fhe: MulCt destination not shaped for level %d", ct1.Level)
	}
	sc := lv.mulPool.Get().(*rnsMulScratch)
	defer sc.release()
	sc.lv = lv
	sc.in = [4]rns.Poly{a1, b1, a2, b2}
	sc.outA, sc.outB = dstA, dstB
	sc.lkey = lkey
	sc.squaring = sameRows(a1, a2) && sameRows(b1, b2)
	return b.mulResident(ctx, sc)
}

// sameRows reports whether two polynomials share their row storage — the
// squaring detection that lets the multiply base-extend and transform
// aliased operands once instead of twice, and the rotation's aliasing
// check.
func sameRows(a, b rns.Poly) bool {
	if len(a.Res) != len(b.Res) {
		return false
	}
	for i := range a.Res {
		if len(a.Res[i]) == 0 || len(b.Res[i]) == 0 || &a.Res[i][0] != &b.Res[i][0] {
			return false
		}
	}
	return true
}

// nops is the number of distinct operand polynomials of the framed
// multiply: squaring reads (a1, b1) only.
func (sc *rnsMulScratch) nops() int {
	if sc.squaring {
		return 2
	}
	return 4
}

// mulResident is the one BEHZ multiply (see the rnsBackend doc), four
// phases of steps over the frame in sc.
func (b *rnsBackend) mulResident(ctx context.Context, sc *rnsMulScratch) error {
	lv := sc.lv
	k, m := lv.c.Channels(), lv.ext.Channels()
	nops := sc.nops()

	// 1. Operands cross to coefficient form once — nops*k independent
	// tower transforms — and base-extend with the m~ correction: extended
	// values are x + gamma*Q with gamma in {-1, 0}, so the tensor headroom
	// validated at construction carries no k*Q operand overshoot. Squared
	// operands (identical rows, the ladder's dominant workload) make the
	// crossing and both extensions once.
	if err := phaseGate(ctx, faultinject.SiteMulExtend); err != nil {
		return err
	}
	b.towers(sc, nops*k, residentOpINTT)
	for i := 0; i < nops; i++ {
		must(lv.mconv.ConvertInto(sc.opE[i], sc.opQ[i]))
	}

	// 2. Tensor product. Q base: the operands are already evaluation
	// rows, so each tower is three pointwise products and three inverse
	// transforms. Ext base: the extended operands are coefficient rows;
	// squaring halves the forward transforms.
	if err := phaseGate(ctx, faultinject.SiteMulTensor); err != nil {
		return err
	}
	b.towers(sc, k, residentTensorQ)
	b.towers(sc, m, residentTensorExt)

	// 3. Divide-and-round each component by Q_l/T; results land in the
	// c*Q polys as the degree-2 scaled ciphertext.
	if err := phaseGate(ctx, faultinject.SiteMulScale); err != nil {
		return err
	}
	lv.scaleRound(sc, sc.c0Q, sc.c0E)
	lv.scaleRound(sc, sc.c1Q, sc.c1E)
	lv.scaleRound(sc, sc.c2Q, sc.c2E)

	// 4. Relinearize and return resident: the towers of c2 are the gadget
	// digits; each tower accumulates its k digit transforms and adds
	// NTT(c1/c0) to the evaluation-domain accumulators instead of leaving
	// the domain.
	if err := phaseGate(ctx, faultinject.SiteMulRelin); err != nil {
		return err
	}
	b.towers(sc, k, relinDigitRow)
	b.towers(sc, k, relinTower)
	return nil
}

// residentOpINTT inverse-transforms one (operand, tower) cell of the
// resident operands into its pooled coefficient row.
func residentOpINTT(sc *rnsMulScratch, u int) {
	k := sc.lv.c.Channels()
	idx, tau := u/k, u%k
	sc.lv.c.Plans[tau].Generic().NegacyclicInverseInto(sc.opQ[idx].Res[tau], sc.in[idx].Res[tau])
}

// tensorEval computes one tower's share of the ciphertext tensor product
// from evaluation rows: c0 = b1∘b2, c2 = a1∘a2 and c1 = a1∘b2 + a2∘b1,
// each inverse-transformed into o0, o2 and o1. t0 holds each product;
// t1 holds a2∘b1 and may alias a1, whose last read comes first. Squaring
// (a2, b2 aliasing a1, b1) doubles a1∘b1 instead of recomputing it.
func tensorEval(plan *ring.Plan[uint64, ring.Shoup64], mod *modmath.Modulus64, squaring bool,
	a1, b1, a2, b2, t0, t1, o0, o1, o2 []uint64) {
	plan.PointwiseMulInto(t0, b1, b2)
	plan.NegacyclicInverseInto(o0, t0)
	plan.PointwiseMulInto(t0, a1, a2)
	plan.NegacyclicInverseInto(o2, t0)
	plan.PointwiseMulInto(t0, a1, b2)
	if squaring {
		addRow(t0, t0, mod)
	} else {
		plan.PointwiseMulInto(t1, a2, b1)
		addRow(t0, t1, mod)
	}
	plan.NegacyclicInverseInto(o1, t0)
}

// residentTensorQ is one Q-base tower of the resident tensor: the
// operands' resident rows are already evaluation rows.
func residentTensorQ(sc *rnsMulScratch, tau int) {
	lv := sc.lv
	tensorEval(lv.c.Plans[tau].Generic(), lv.c.Mods[tau], sc.squaring,
		sc.in[0].Res[tau], sc.in[1].Res[tau], sc.in[2].Res[tau], sc.in[3].Res[tau],
		sc.evE[0].Res[tau], sc.evE[1].Res[tau], sc.c0Q.Res[tau], sc.c1Q.Res[tau], sc.c2Q.Res[tau])
}

// residentTensorExt is one extension-base tower of the resident tensor:
// each distinct base-extended coefficient row is forward-transformed
// once, and the a1 row doubles as the second product row.
func residentTensorExt(sc *rnsMulScratch, tau int) {
	lv := sc.lv
	plan := lv.ext.Plans[tau].Generic()
	ev := func(s int) []uint64 { return sc.evE[s].Res[tau] }
	for i := 0; i < sc.nops(); i++ {
		plan.NegacyclicForwardInto(ev(i), sc.opE[i].Res[tau])
	}
	a2, b2 := ev(0), ev(1)
	if !sc.squaring {
		a2, b2 = ev(2), ev(3)
	}
	tensorEval(plan, lv.ext.Mods[tau], sc.squaring, ev(0), ev(1), a2, b2,
		ev(4), ev(0), sc.c0E.Res[tau], sc.c1E.Res[tau], sc.c2E.Res[tau])
}

// relinDigitRow scales one tower of c2 into its CRT gadget digit row.
func relinDigitRow(sc *rnsMulScratch, i int) {
	c := sc.lv.c
	c.Plans[i].Generic().ScalarMulInto(sc.zQ.Res[i], sc.c2Q.Res[i], c.QiInv(i))
}

// keySwitchAccumulate is the inner product every key switch shares: the
// k gadget digit rows in zQ, each forward-transformed into tower tau,
// against that tower of the framed key's a and b rows. It returns the two
// accumulator rows holding 64-bit sums congruent to the inner products
// mod q_tau — lazy on the fused path, canonical on the fallback — which
// the landings (relinTower, galoisTower) reduce once per element; Barrett
// of a canonical value is the value, so one landing serves both. The
// digit rows are canonical mod q_i with q_i < 2*q_tau, and the twist
// pass's Shoup multiply is exact for any 64-bit input, so they feed the
// forward transform directly.
func keySwitchAccumulate(sc *rnsMulScratch, tau int) (accA, accB []uint64) {
	lv := sc.lv
	c := lv.c
	k := c.Channels()
	plan := c.Plans[tau].Generic()
	accA, accB = sc.accA.Res[tau], sc.accB.Res[tau]
	clearRow(accA)
	clearRow(accB)
	if lv.relinLazy {
		// Deferred-reduction inner product: the key rows are fixed, so
		// each digit contributes one lazy Shoup product (< 2q) folded in
		// with a plain integer add — relinLazy guarantees k of them fit
		// the 64-bit accumulator. The digit transform and both key-row
		// MACs run as one fused pass (NegacyclicForwardMAC2): the final
		// NTT stage's outputs are accumulated as they are produced
		// instead of being written out and streamed back twice per digit.
		for i := 0; i < k; i++ {
			ring.NegacyclicForwardMAC2(plan, accA, accB, sc.zQ.Res[i],
				sc.lkey.a[i].Res[tau], sc.lkey.aPre[i].Res[tau],
				sc.lkey.b[i].Res[tau], sc.lkey.bPre[i].Res[tau])
		}
		return accA, accB
	}
	// Bases where k lazy summands would wrap (or Barrett's q^2 window is
	// too small): the canonical multiply-add chain, digit by digit.
	mod := c.Mods[tau]
	lift, prod := sc.liftQ.Res[tau], sc.prodQ.Res[tau]
	for i := 0; i < k; i++ {
		plan.NegacyclicForwardInto(lift, sc.zQ.Res[i])
		plan.PointwiseMulInto(prod, lift, sc.lkey.a[i].Res[tau])
		addRow(accA, prod, mod)
		plan.PointwiseMulInto(prod, lift, sc.lkey.b[i].Res[tau])
		addRow(accB, prod, mod)
	}
	return accA, accB
}

// relinTower accumulates all k gadget digits into one tower of the
// relinearized result, entirely in the evaluation domain, then lands the
// tower's output by adding NTT(c1/c0) to the accumulators
// (NTT(INTT(acc) + c) = acc + NTT(c), exactly).
func relinTower(sc *rnsMulScratch, tau int) {
	plan := sc.lv.c.Plans[tau].Generic()
	mod := sc.lv.c.Mods[tau]
	accA, accB := keySwitchAccumulate(sc, tau)
	plan.NegacyclicForwardInto(sc.outA.Res[tau], sc.c1Q.Res[tau])
	reduceAddRow(sc.outA.Res[tau], accA, mod)
	plan.NegacyclicForwardInto(sc.outB.Res[tau], sc.c0Q.Res[tau])
	reduceAddRow(sc.outB.Res[tau], accB, mod)
}

// reduceAddRow lands an accumulator row on a canonical row:
// dst[j] = dst[j] + acc[j] mod q, one Barrett reduction per element for
// the whole deferred inner product.
//
//mqx:hotpath
func reduceAddRow(dst, acc []uint64, mod *modmath.Modulus64) {
	q, mu, nb := mod.Q, mod.Mu, mod.N
	acc = acc[:len(dst)]
	for j := range dst {
		dst[j] = mod.Add(dst[j], modmath.Barrett64Reduce(0, acc[j], q, mu, nb))
	}
}

// ModSwitchCtx drops one tower: dst = round(ct / q_{k-1-l}) via the
// Rescaler's evaluation-domain rescale, residues only, allocation-free in
// steady state — the RNS half of the ladder the oracle's big-integer
// switch ground-truths. Only the dropped tower crosses to coefficient
// form (one inverse transform), plus k-1 forward transforms of the
// correction term. ctx is observed before the rescale starts and between
// the two components.
func (b *rnsBackend) ModSwitchCtx(ctx context.Context, dst *BackendCiphertext, ct BackendCiphertext) error {
	if err := checkSwitchLevels(len(b.levels), dst, ct); err != nil {
		return err
	}
	srcA, ok1 := ct.A.(rns.Poly)
	srcB, ok2 := ct.B.(rns.Poly)
	if !ok1 || !ok2 {
		return fmt.Errorf("fhe: foreign ciphertext handle on the %s backend", b.Name())
	}
	dstA, ok3 := dst.A.(rns.Poly)
	dstB, ok4 := dst.B.(rns.Poly)
	if !ok3 || !ok4 {
		return fmt.Errorf("fhe: foreign destination handle on the %s backend", b.Name())
	}
	if err := phaseGate(ctx, faultinject.SiteModSwitch); err != nil {
		return err
	}
	r := b.levels[ct.Level].rescale
	if err := r.RescaleNTTInto(dstA, srcA, b.workers); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return r.RescaleNTTInto(dstB, srcB, b.workers)
}

// MulNoiseModel exposes the MulNoiseBoundBits parameters of the RNS
// pipeline at a level: the gadget digits are the towers themselves (one
// per channel, each below the widest tower modulus), and the m~-corrected
// base extension bounds the operand overshoot at 1.
func (b *rnsBackend) MulNoiseModel(level int) (digits, digitBits, overshoot int) {
	lv := b.levels[level]
	for _, mod := range lv.c.Mods {
		if bl := bits.Len64(mod.Q); bl > digitBits {
			digitBits = bl
		}
	}
	return lv.c.Channels(), digitBits, 1
}

func clearRow(row []uint64) {
	for j := range row {
		row[j] = 0
	}
}

//mqx:hotpath
func addRow(dst, src []uint64, mod *modmath.Modulus64) {
	for j := range dst {
		dst[j] = mod.Add(dst[j], src[j])
	}
}
