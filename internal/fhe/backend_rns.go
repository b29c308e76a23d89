package fhe

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/big"
	"math/bits"
	"math/rand"
	"runtime"

	"mqxgo/internal/faultinject"
	"mqxgo/internal/modmath"
	"mqxgo/internal/ring"
	"mqxgo/internal/rns"
	"mqxgo/internal/scratch"
)

// rnsBackend runs the identical scheme on a basis of 64-bit RNS towers —
// the conventional-hardware philosophy the paper contrasts with double-word
// residues. Ciphertext polynomials stay decomposed (rns.Poly) through
// every homomorphic operation. Decryption rounds in residues too
// (rnsLevel.round), and the noise measurement applies the CRT in fixed
// k-word integers (rnsLevel.qHatWords), never in big integers.
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
// row. All evaluation state is pooled per level, the tower fan-out frame
// included; steady-state mulCtx, galoisCtx and modSwitchCtx allocate
// nothing at any dispatch width.
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
// sites, every step dispatched by the one helper, rnsBackend.towers,
// whose width (b.workers) is the only difference between the sequential
// and the tower-parallel configuration. A step's index is a tower, an
// (operand, tower) cell, an operand (the m~-corrected extension) or a
// tensor component (the divide-and-round, rnsLevel.scaleRound, with its
// exact return). The BEHZ conversions and the ladder's rescale hand rows
// and precomputed weights to ring.AffineRows on the plan's kernel tier;
// see rns/baseconv.go for the row and weight table.
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

	deltaResT []uint64 // deltaResT[i] = Delta_l mod q_i, Delta_l = floor(Q_l / T)
	deltaBits int

	// round holds RoundToPlain's scale-and-round constants, one per tower.
	round []roundTower

	// NoiseBits's centred CRT in 64-bit words, least significant first:
	// qHatWords[i*h:(i+1)*h] is Q_l/q_i in h = max(k-1, 1) words; qWords
	// is Q_l and halfQWords floor(Q_l/2), k words each.
	qHatWords, qWords, halfQWords []uint64

	// BEHZ multiply machinery. ext is the extension base: k_l+1 towers
	// whose product P gives the tensor headroom, plus the redundant
	// Shenoy-Kumaresan modulus m_sk as the last tower.
	ext    *rns.Context
	mconv  *rns.MontBaseConverter // Q_l -> ext, m~-corrected operand extension
	skConv *rns.SKConverter       // ext -> Q_l, exact
	gadget [][]uint64             // gadget[i][tau] = (Q_l/q_i) mod q_tau, the relin gadget

	// Divide-and-round constants, one ring.AffineRows call per tower.
	// With w = T*v + h, h = floor(Q_l/2): digit[i] weighs the Q-base tensor
	// row (v_i) into w's FastBConv digit z_i = v_i*T*(Q_l/q_i)^-1 +
	// h*(Q_l/q_i)^-1 mod q_i; extRound[j] weighs the extension-base tensor
	// row and the digits (v_j, z_0..z_{k-1}) into (w - [w]_Q)/Q_l =
	// v_j*T*Q_l^-1 - [w]_Q*Q_l^-1 + h*Q_l^-1 mod e_j, with the FastBConv
	// [w]_Q = sum_i z_i*(Q_l/q_i) folded into the digit weights, so the
	// conversion and the division are one pass with no landing row.
	digit    []ring.Affine
	extRound []ring.Affine

	// landEvery is L, the key-switch digits an accumulator row takes
	// between landings (keySwitchAccumulate): a landed row is canonical
	// (< q) and each lazy Shoup product adds less than 2q, so L digits
	// keep it below q + L*2q, which landBound holds under
	// 2^min(64, 2*bitlen(q)) for every tower of the level.
	landEvery uint64

	rescale *rns.Rescaler // Q_l -> Q_{l+1} (nil at the bottom rung)
	mulPool scratch.Pool[rnsMulScratch]
}

// roundTower is one tower's share of the RNS scale-and-round of
// Halevi-Polyakov-Shoup ("An Improved RNS Variant of the BFV Homomorphic
// Encryption Scheme", CT-RSA 2019). With q~_i = (Q_l/q_i)^-1 mod q_i and
// y_i = [x_i*q~_i]_{q_i}, x = sum_i y_i*(Q_l/q_i) - v*Q_l for an integer v,
// so t*x/Q_l = sum_i y_i*(t/q_i) - v*t: the tower terms sum to the scaled
// phase modulo t, and its rounding modulo t is the plaintext.
type roundTower struct {
	qTilde, qTildePre uint64 // q~_i and its Shoup precomputation
	deltaPre          uint64 // Shoup precomputation of Delta_l mod q_i (NoiseBits)
	// fracHi:fracLo = floor(t * 2^128 / q_i), t/q_i (below 1, as t < q_i)
	// as a 128-bit fraction.
	fracHi, fracLo uint64
}

// rnsMulScratch is the pooled working set of one evaluation call (a
// multiply or a rotation chain) at one level. Every member is shaped per
// tower, operand or tensor component, so the dispatched steps run their
// indices concurrently without sharing rows.
//
// The struct doubles as the call frame of the steps: the operand,
// destination and key fields are set at the top of the call, and the
// frame is itself the ring.Ranger its ring.Fanout runs, reading the
// current step from body — so a dispatch allocates nothing, whatever its
// width.
type rnsMulScratch struct {
	opE        [4]rns.Poly   // operands extended to the ext base
	evE        [5]rns.Poly   // per-tower evaluation-domain rows (ext-base shaped)
	opQ        [4]rns.Poly   // operand coefficient forms in Q_l; then divide-and-round digits; a rotation chain's hop buffers
	zQ         rns.Poly      // key-switch digit rows
	cQ         [3]rns.Poly   // tensor components c0, c1, c2, then the scaled ciphertext, in Q_l
	cE         [3]rns.Poly   // tensor components in the ext base
	extRows    [3][][]uint64 // per component, the row list of the divide-and-round's extension step
	accA, accB rns.Poly      // key-switch evaluation-domain accumulators

	// Call frame for the dispatched steps.
	lv         *rnsLevel
	in         [4]rns.Poly // a1, b1, a2, b2 in evaluation form
	outA, outB rns.Poly
	lkey       *rnsLevelRelin
	squaring   bool               // operand rows of ct1 and ct2 are identical slices
	gtab       *ring.GaloisTables // the galois hop's index maps (rotation path)

	body func(sc *rnsMulScratch, i int) // the step towers is dispatching
	fan  ring.Fanout
}

// towers is the one step dispatch: body runs for every i in [0, n) — a
// tower, a cell, an operand or a tensor component — on at most b.workers
// goroutines of the shared ring worker pool. Width 1 is a plain loop on
// the caller, so sequential versus tower-parallel is this argument and
// not a code path. Steps of one call are issued one after another, each
// dispatch a barrier, so a step may read anything an earlier step wrote;
// bodies are top-level funcs reading the frame, so a dispatch allocates
// nothing. A dispatch costs a few microseconds (ring.Fanout.Run starts
// its pool range at once), so a step of three or four indices each tens
// of microseconds long still gains from the fan-out.
func (b *rnsBackend) towers(sc *rnsMulScratch, n int, body func(sc *rnsMulScratch, i int)) {
	sc.body = body
	sc.fan.Run(n, b.workers, sc)
}

// RunRange runs the current step over towers [start, end).
func (sc *rnsMulScratch) RunRange(start, end int) {
	for i := start; i < end; i++ {
		sc.body(sc, i)
	}
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

// poison overwrites the frame's own rows (race builds only; see
// scratch.Pool). The call frame and extRows, which point at rows the
// frame does not own, are left alone.
func (sc *rnsMulScratch) poison() {
	for _, p := range [...]rns.Poly{sc.zQ, sc.accA, sc.accB} {
		scratch.FillRows(p.Res)
	}
	for _, ps := range [...][]rns.Poly{sc.opE[:], sc.evE[:], sc.opQ[:], sc.cQ[:], sc.cE[:]} {
		for _, p := range ps {
			scratch.FillRows(p.Res)
		}
	}
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
	halfQ := new(big.Int).Rsh(c.Q, 1)
	lv := &rnsLevel{c: c, deltaBits: delta.BitLen()}
	qb, frac, lo := new(big.Int), new(big.Int), new(big.Int)
	word := new(big.Int).SetUint64(^uint64(0))
	for i, mod := range c.Mods {
		qb.SetUint64(mod.Q)
		lv.deltaResT = append(lv.deltaResT, new(big.Int).Mod(delta, qb).Uint64())
		frac.SetUint64(b.t).Lsh(frac, 128).Div(frac, qb)
		fracLo := lo.And(frac, word).Uint64()
		qTilde := c.QiInv(i)
		lv.round = append(lv.round, roundTower{
			qTilde: qTilde, qTildePre: mod.ShoupPrecompute(qTilde),
			deltaPre: mod.ShoupPrecompute(lv.deltaResT[i]),
			fracHi:   frac.Rsh(frac, 64).Uint64(), fracLo: fracLo,
		})
		lv.qHatWords = append(lv.qHatWords, words(c.QiBig(i), max(k-1, 1))...)
	}
	lv.qWords, lv.halfQWords = words(c.Q, k), words(halfQ, k)
	ext, err := rns.NewContextForPrimes(extPrimes, c.N)
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
	lv.ext, lv.mconv, lv.skConv = ext, mconv, skConv

	// Exact headroom validation. The m~-corrected extension bounds every
	// operand by |y| < Q (gamma in {-1, 0} — no k*Q overshoot), so tensor
	// coefficients |v| <= 2n*Q^2 and the rescaled |y| <= T*2n*Q + (k+2);
	// the tensor must fit the full base (|w| < Q*E/2) and y must fit the
	// Shenoy-Kumaresan window (|y| < P/2, P = E/m_sk).
	n := new(big.Int).SetInt64(int64(c.N))
	vMax := new(big.Int).Mul(c.Q, c.Q)
	vMax.Mul(vMax, n).Lsh(vMax, 1) // 2n*Q^2
	wMax := new(big.Int).Mul(vMax, new(big.Int).SetUint64(b.t))
	wMax.Add(wMax, halfQ)
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
			mod.Mul(t.Mod(halfQ, qb).Uint64(), qiInv), mod.Mul(b.t%mod.Q, qiInv)))
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
		w := []uint64{mod.Mul(b.t%mod.Q, qInv)}
		for i := range c.Mods {
			w = append(w, mod.Mul(t.Mod(c.QiBig(i), qb).Uint64(), mod.Neg(qInv)))
		}
		lv.extRound = append(lv.extRound, ring.NewAffine(mod,
			mod.Mul(t.Mod(halfQ, qb).Uint64(), qInv), w...))
	}
	lv.landEvery = landBound(c.Mods[0].Q)
	for _, mod := range c.Mods[1:] {
		lv.landEvery = min(lv.landEvery, landBound(mod.Q))
	}
	lv.mulPool.New = func() *rnsMulScratch {
		sc := &rnsMulScratch{zQ: c.NewPoly(), accA: c.NewPoly(), accB: c.NewPoly()}
		for j := range sc.cQ {
			sc.cQ[j], sc.cE[j] = c.NewPoly(), ext.NewPoly()
			sc.extRows[j] = make([][]uint64, 1+k)
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
		return sc
	}
	lv.mulPool.Poison = (*rnsMulScratch).poison
	return lv, nil
}

func (b *rnsBackend) Name() string {
	return fmt.Sprintf("rns-k%d", b.k)
}

func (b *rnsBackend) N() int                   { return b.levels[0].c.N }
func (b *rnsBackend) PlainModulus() uint64     { return b.t }
func (b *rnsBackend) Levels() int              { return len(b.levels) }
func (b *rnsBackend) NewPolyAt(level int) Poly { return b.levels[level].c.NewPoly() }

func (b *rnsBackend) Copy(a Poly) Poly {
	src := a.(rns.Poly)
	out := rns.Poly{Res: ring.AllocBatch[uint64](b.levels[0].c.N, len(src.Res))}
	for i, row := range src.Res {
		copy(out.Res[i], row)
	}
	return out
}

// CheckPoly validates one handle: backend type, the level's tower shape,
// and residues reduced below each tower prime.
func (b *rnsBackend) CheckPoly(level int, a Poly) error {
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

func (b *rnsBackend) checkDst(dst *BackendCiphertext) error {
	_, _, err := b.dstRows(dst)
	return err
}

// dstRows unpacks the destination an evaluation writes: this backend's
// handles with dst.Level's tower shape. Its residues are about to be
// overwritten, so they are not scanned.
func (b *rnsBackend) dstRows(dst *BackendCiphertext) (dstA, dstB rns.Poly, err error) {
	dstA, okA := dst.A.(rns.Poly)
	dstB, okB := dst.B.(rns.Poly)
	c := b.levels[dst.Level].c
	if !okA || !okB || !shapedFor(dstA, c) || !shapedFor(dstB, c) {
		return rns.Poly{}, rns.Poly{}, fmt.Errorf("fhe: destination not shaped for level %d on the %s backend", dst.Level, b.Name())
	}
	return dstA, dstB, nil
}

// shapedFor reports whether p has c's tower count and row length.
func shapedFor(p rns.Poly, c *rns.Context) bool {
	if len(p.Res) != c.Channels() {
		return false
	}
	for _, row := range p.Res {
		if len(row) != c.N {
			return false
		}
	}
	return true
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

// RoundToPlain rounds in residues, with no big integers: per coefficient
// it sums the tower terms y_i * (t/q_i) of roundTower, the integer parts
// exactly modulo t and the fractions in 128-bit fixed point, and rounds
// the fraction. Each truncated t/q_i is low by under 2^-128 and y_i is
// below 2^64, so the sum is low by under k*2^-64: the result is exactly
// round(t*x/Q_l) mod t unless t*x/Q_l lies within k*2^-64 above a
// half-integer. That rounding and round(x/Delta_l) differ only within
// (t+1)/Delta_l of a half-integer. A phase Delta_l*m + e with |e| below
// Delta_l/2 - t - k*Delta_l/2^64 is farther than both from every
// half-integer, so it decrypts to m, exactly as round(x/Delta_l) does.
func (b *rnsBackend) RoundToPlain(level int, a Poly) []uint64 {
	lv := b.levels[level]
	x := a.(rns.Poly)
	t := b.t
	out := make([]uint64, lv.c.N)
	for j := range out {
		var whole, fhi, flo uint64 // whole < t; fhi:flo the running fraction
		for i, r := range lv.round {
			q := lv.c.Mods[i].Q
			y := x.Res[i][j]
			hi, _ := bits.Mul64(y, r.qTildePre)
			if y = y*r.qTilde - hi*q; y >= q { // Shoup: y = [x_i * q~_i]_{q_i}
				y -= q
			}
			// y * fracHi:fracLo = p2:p1:p0 in 64-bit words; p2 < t is the
			// term's integer part, p1:p0 its fraction.
			h1, p0 := bits.Mul64(y, r.fracLo)
			p2, l2 := bits.Mul64(y, r.fracHi)
			p1, c := bits.Add64(h1, l2, 0)
			p2 += c
			flo, c = bits.Add64(flo, p0, 0)
			fhi, c = bits.Add64(fhi, p1, c)
			if whole += p2 + c; whole >= t {
				whole -= t
			}
		}
		if whole += fhi >> 63; whole >= t { // round half up
			whole -= t
		}
		out[j] = whole
	}
	return out
}

func (b *rnsBackend) DeltaBits(level int) int { return b.levels[level].deltaBits }

// NoiseBits measures the noise of the phase a against msg in residues,
// with a centred CRT in fixed-width words and no big integers. Per
// coefficient, with m = msg mod t: r_i = [x_i - Delta_l*m]_{q_i} and
// y_i = [r_i*q~_i]_{q_i} (the Shoup pair of roundTower); the sum
// S = sum_i y_i*(Q_l/q_i) is below k*Q_l, and S minus Q_l until it is
// below Q_l is the noise x - Delta_l*m mod Q_l. Every q_i is below 2^62
// (modmath.NewModulus64), so k*Q_l < k*2^(62k) < 2^(64k): S fits k words,
// and each Q_l/q_i < 2^(62(k-1)) fits k-1.
// Above floor(Q_l/2) it is centred to Q_l - S. The result is the largest
// bit length over the coefficients, the same number the big-integer
// reconstruction gives.
func (b *rnsBackend) NoiseBits(level int, a Poly, msg []uint64) int {
	lv := b.levels[level]
	x := a.(rns.Poly)
	k := len(lv.round)
	var stack [8]uint64 // the accumulator, off the heap up to k = 8
	acc := stack[:]
	if k > len(acc) {
		acc = make([]uint64, k)
	}
	acc = acc[:k]
	hw := len(lv.qHatWords) / k
	maxBits := 0
	for j, m := range msg {
		if m >= b.t {
			m %= b.t
		}
		clear(acc)
		for i := range lv.round {
			r, q := &lv.round[i], lv.c.Mods[i].Q
			// [Delta_l*m]_{q_i} lazily, in [0, 2q_i): x_i + 2q_i minus it is
			// r_i plus a multiple of q_i below 2^64, which the Shoup product
			// by q~_i reduces.
			hi, _ := bits.Mul64(m, r.deltaPre)
			ri := x.Res[i][j] + 2*q - (m*lv.deltaResT[i] - hi*q)
			hi, _ = bits.Mul64(ri, r.qTildePre)
			y := ri*r.qTilde - hi*q
			if y >= q {
				y -= q
			}
			var carry uint64
			for w, h := range lv.qHatWords[i*hw : (i+1)*hw] {
				hi, lo := bits.Mul64(y, h)
				lo, c := bits.Add64(lo, carry, 0)
				hi += c
				acc[w], c = bits.Add64(acc[w], lo, 0)
				carry = hi + c
			}
			if hw < k { // the partial sums are below S < 2^(64k): no carry out
				acc[hw] += carry
			}
		}
		for !wordsLess(acc, lv.qWords) {
			wordsSub(acc, acc, lv.qWords)
		}
		if wordsLess(lv.halfQWords, acc) {
			wordsSub(acc, lv.qWords, acc)
		}
		if bl := wordsBitLen(acc); bl > maxBits {
			maxBits = bl
		}
	}
	return maxBits
}

// words returns x as n 64-bit words, least significant first; x must fit.
func words(x *big.Int, n int) []uint64 {
	buf := x.FillBytes(make([]byte, 8*n))
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.BigEndian.Uint64(buf[8*(n-1-i):])
	}
	return out
}

// wordsLess reports a < b for little-endian words of equal length.
func wordsLess(a, b []uint64) bool {
	for i := len(a) - 1; i >= 0; i-- {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// wordsSub sets dst = a - b for a >= b, all of equal length; dst may
// alias either.
func wordsSub(dst, a, b []uint64) {
	var borrow uint64
	for i := range dst {
		dst[i], borrow = bits.Sub64(a[i], b[i], borrow)
	}
}

// wordsBitLen is the bit length of the little-endian words a.
func wordsBitLen(a []uint64) int {
	for i := len(a) - 1; i >= 0; i-- {
		if a[i] != 0 {
			return 64*i + bits.Len64(a[i])
		}
	}
	return 0
}

// rnsLevelRelin is one level's gadget key-switch key — the relin key's
// and every Galois entry's layout alike: for each tower i of level l, an
// encryption (a_i, a_i*s + e_i + (Q_l/q_i)*target) under that level's
// basis. Both components are stored per
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
		must(c.MulAll(bb, a, sk))  // a_i * s
		must(c.AddInto(bb, bb, e)) // + e_i
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
	must(b.levels[0].c.MulAll(s2, sk0, sk0))
	key := &relinKey[rnsLevelRelin]{}
	for l := range b.levels {
		key.levels = append(key.levels, b.gadgetKeyLevel(l, s, s2, rng))
	}
	return key
}

// GaloisKeyGen builds the per-level Galois key-switch keys: RelinKeyGen
// with tau_g(s) in place of s^2 for each covered element g (same gadget,
// same lazy Shoup precomputations). tau_g(s) is computed once per g at
// level 0 in the coefficient domain.
func (b *rnsBackend) GaloisKeyGen(s Poly, rng *rand.Rand) BackendGaloisKey {
	sk0 := s.(rns.Poly)
	c0 := b.levels[0].c
	tauS := c0.NewPoly()
	return newGaloisKey(b.N(), func(tab *ring.GaloisTables) []rnsLevelRelin {
		for tau := range c0.Mods {
			c0.Plans[tau].Generic().AutomorphismCoeffInto(tab, tauS.Res[tau], sk0.Res[tau])
		}
		var levels []rnsLevelRelin
		for l := range b.levels {
			levels = append(levels, b.gadgetKeyLevel(l, s, tauS, rng))
		}
		return levels
	})
}

// checkKeySwitch refuses a key switch at a one-tower level (the bottom
// rung). There the CRT gadget has one digit as wide as Q_l, so the
// key-switch noise, about n*noiseBound*q, exceeds Delta_l = Q_l/t and the
// result would decrypt wrong; the guardrail's predicted budget there is
// 0 for the same reason.
func (lv *rnsLevel) checkKeySwitch(level int) error {
	if lv.c.Channels() < 2 {
		return fmt.Errorf("fhe: level %d has one tower: its key switch noise exceeds Delta, so multiply and Galois ops are refused there", level)
	}
	return nil
}

// galoisCtx runs a Galois evaluation's hops in order, each a permutation
// + CRT-gadget key switch on the multiply's pooled frame and key-switch
// accumulate. Intermediate hops alternate through the frame's operand
// buffers, arranged so the final hop lands in dst and no hop ever reads
// the rows it is writing; dst must not alias ct (checked: the permutation
// writes tau(B) straight into dst).
func (b *rnsBackend) galoisCtx(ctx context.Context, dst *BackendCiphertext, ct BackendCiphertext, hops galoisHops, gk BackendGaloisKey) error {
	n := b.N()
	lv := b.levels[ct.Level]
	k := lv.c.Channels()
	var steps [maxGaloisHops]galoisStep[rnsLevelRelin]
	if err := resolveGalois(gk, b, &hops, ct.Level, &steps); err != nil {
		return err
	}
	for _, st := range steps[:hops.n] {
		if err := st.key.check("galois", k, n); err != nil {
			return err
		}
	}
	srcA, srcB := ct.A.(rns.Poly), ct.B.(rns.Poly)
	dstA, dstB, err := b.dstRows(dst)
	if err != nil {
		return err
	}
	if sameRows(dstA, srcA) || sameRows(dstA, srcB) || sameRows(dstB, srcA) || sameRows(dstB, srcB) {
		return fmt.Errorf("fhe: rotate destination aliases the source ciphertext")
	}
	if hops.n == 0 {
		// The identity rotation is a plain copy.
		for i := 0; i < k; i++ {
			copy(dstA.Res[i], srcA.Res[i])
			copy(dstB.Res[i], srcB.Res[i])
		}
		return nil
	}
	if err := lv.checkKeySwitch(ct.Level); err != nil {
		return err
	}
	sc := lv.mulPool.Get()
	defer sc.release()
	sc.lv = lv
	sc.in[0], sc.in[1] = srcA, srcB
	for h, st := range steps[:hops.n] {
		if err := phaseGate(ctx, faultinject.SiteRotate); err != nil {
			return err
		}
		sc.outA, sc.outB = dstA, dstB
		if h != hops.n-1 {
			sc.outA, sc.outB = sc.opQ[2*(h%2)], sc.opQ[2*(h%2)+1]
		}
		sc.lkey = st.key
		sc.gtab = st.tab
		b.galoisHop(sc)
		sc.in[0], sc.in[1] = sc.outA, sc.outB
	}
	return nil
}

// galoisHop applies one automorphism + key switch to the frame's operand
// pair (in[0], in[1]): permute both components and scale tau(A) into its
// gadget digit rows, then accumulate the key inner product per tower and
// land the hop.
func (b *rnsBackend) galoisHop(sc *rnsMulScratch) {
	k := sc.lv.c.Channels()
	b.towers(sc, k, galoisPermuteTower)
	b.towers(sc, k, galoisTower)
}

// galoisPermuteTower permutes one tower of both ciphertext components in
// the evaluation domain — a pure index map. tau(A) then crosses to
// COEFFICIENT form in c2 (the gadget decomposition needs positional
// digits) and scales into its gadget digit row, which needs no other
// tower; tau(B) lands directly in the hop's output rows.
func galoisPermuteTower(sc *rnsMulScratch, tau int) {
	plan := sc.lv.c.Plans[tau].Generic()
	tmp := sc.evE[0].Res[tau]
	plan.AutomorphismEvalInto(sc.gtab, tmp, sc.in[0].Res[tau])
	plan.NegacyclicInverseInto(sc.cQ[2].Res[tau], tmp)
	relinDigitRow(sc, tau)
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

// setSignedCtx writes coeffs, each of magnitude below every tower
// modulus, into every tower of dst: its two's-complement bits, plus q
// when negative.
func (b *rnsBackend) setSignedCtx(c *rns.Context, dst rns.Poly, coeffs []int64) {
	for i, mod := range c.Mods {
		row, q := dst.Res[i], mod.Q
		for j, e := range coeffs {
			row[j] = uint64(e) + q&uint64(e>>63)
		}
	}
}

// scaleRound turns one tensor component held in (cQ, cE) into the scaled
// ciphertext component round(T*v/Q_l) mod Q_l, written back into cQ:
// with w = T*v + floor(Q_l/2), the FastBConv digits of w's Q-remainder
// (one kernel call per Q tower, into the Q-shaped zQ), y = (w - [w]_Q)/Q_l
// in the extension base with [w]_Q's conversion folded in (one kernel
// call per extension tower, over the row list rows of k+1 entries), and
// the exact Shenoy-Kumaresan conversion back to Q_l. The FastBConv
// overshoot divides down to an additive error below k+1 — noise, not
// wrongness. Calls with their own zQ and rows may run concurrently: the
// converter takes pooled scratch.
func (lv *rnsLevel) scaleRound(cQ, cE, zQ rns.Poly, rows [][]uint64) {
	for i, plan := range lv.c.Plans {
		ring.AffineRows(plan.Generic(), zQ.Res[i], lv.digit[i], cQ.Res[i:i+1])
	}
	copy(rows[1:], zQ.Res)
	for j, plan := range lv.ext.Plans {
		rows[0] = cE.Res[j]
		ring.AffineRows(plan.Generic(), cE.Res[j], lv.extRound[j], rows)
	}
	must(lv.skConv.ConvertInto(cQ, cE))
}

// mulCtx is the BEHZ homomorphic multiply in the operands' level basis:
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
func (b *rnsBackend) mulCtx(ctx context.Context, dst *BackendCiphertext, ct1, ct2 BackendCiphertext, rlk BackendRelinKey) error {
	lv := b.levels[ct1.Level]
	if err := lv.checkKeySwitch(ct1.Level); err != nil {
		return err
	}
	lkey, err := relinKeyAt[rnsLevelRelin](rlk, b, ct1.Level)
	if err != nil {
		return err
	}
	if err := lkey.check("relin", lv.c.Channels(), lv.c.N); err != nil {
		return err
	}
	dstA, dstB, err := b.dstRows(dst)
	if err != nil {
		return err
	}
	a1, b1 := ct1.A.(rns.Poly), ct1.B.(rns.Poly)
	a2, b2 := ct2.A.(rns.Poly), ct2.B.(rns.Poly)
	sc := lv.mulPool.Get()
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
	b.towers(sc, nops, residentOpExtend)

	// 2. Tensor product. Q base: the operands are already evaluation
	// rows, so each tower is three pointwise products and three inverse
	// transforms. Ext base: the extended operands are coefficient rows;
	// squaring halves the forward transforms.
	if err := phaseGate(ctx, faultinject.SiteMulTensor); err != nil {
		return err
	}
	b.towers(sc, k, residentTensorQ)
	b.towers(sc, m, residentTensorExt)

	// 3. Divide-and-round each component by Q_l/T, one component per
	// dispatched index; results land in the cQ polys as the degree-2
	// scaled ciphertext, and c2 in its gadget digit rows.
	if err := phaseGate(ctx, faultinject.SiteMulScale); err != nil {
		return err
	}
	b.towers(sc, len(sc.cQ), residentScale)

	// 4. Relinearize and return resident: each tower accumulates its k
	// digit transforms and adds NTT(c1/c0) to the evaluation-domain
	// accumulators instead of leaving the domain.
	if err := phaseGate(ctx, faultinject.SiteMulRelin); err != nil {
		return err
	}
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

// residentOpExtend base-extends one operand's coefficient rows with the
// m~ correction.
func residentOpExtend(sc *rnsMulScratch, idx int) {
	must(sc.lv.mconv.ConvertInto(sc.opE[idx], sc.opQ[idx]))
}

// residentScale divides-and-rounds tensor component j. The operand rows
// opQ[j], dead once the tensor is formed, hold its digits, so the three
// components run concurrently on rows the frame already has. Component 2 then scales
// every tower of c2 into its gadget digit row, which saves the relin
// step a dispatch and gives the most work to the index a width-2
// dispatch runs alone.
func residentScale(sc *rnsMulScratch, j int) {
	sc.lv.scaleRound(sc.cQ[j], sc.cE[j], sc.opQ[j], sc.extRows[j])
	if j == 2 {
		for i := range sc.lv.c.Mods {
			relinDigitRow(sc, i)
		}
	}
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
		sc.evE[0].Res[tau], sc.evE[1].Res[tau], sc.cQ[0].Res[tau], sc.cQ[1].Res[tau], sc.cQ[2].Res[tau])
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
		ev(4), ev(0), sc.cE[0].Res[tau], sc.cE[1].Res[tau], sc.cE[2].Res[tau])
}

// relinDigitRow scales one tower of c2 into its CRT gadget digit row.
func relinDigitRow(sc *rnsMulScratch, i int) {
	c := sc.lv.c
	c.Plans[i].Generic().ScalarMulInto(sc.zQ.Res[i], sc.cQ[2].Res[i], c.QiInv(i))
}

// keySwitchAccumulate is the inner product every key switch shares: the
// k gadget digit rows in zQ, each forward-transformed into tower tau,
// against that tower of the framed key's a and b rows. The key rows are
// fixed, so each digit contributes one lazy Shoup product (< 2q) folded
// in with a plain integer add, and the digit transform and both key-row
// MACs run as one fused pass (NegacyclicForwardMAC2): the final NTT
// stage's outputs are accumulated as they are produced instead of being
// written out and streamed back twice per digit. Every landEvery digits
// the rows land in place on their canonical residues, so the 64-bit sums
// never wrap and stay inside Barrett's window. It returns the two
// accumulator rows, congruent to the inner products mod q_tau, which the
// landings (relinTower, galoisTower) reduce once per element. The digit
// rows are canonical mod q_i, and the twist pass's Shoup multiply is
// exact for any 64-bit input, so they feed the forward transform directly.
func keySwitchAccumulate(sc *rnsMulScratch, tau int) (accA, accB []uint64) {
	lv := sc.lv
	c := lv.c
	plan := c.Plans[tau].Generic()
	mod := c.Mods[tau]
	accA, accB = sc.accA.Res[tau], sc.accB.Res[tau]
	clearRow(accA)
	clearRow(accB)
	for i := 0; i < c.Channels(); i++ {
		if i > 0 && uint64(i)%lv.landEvery == 0 {
			landRow(accA, mod)
			landRow(accB, mod)
		}
		ring.NegacyclicForwardMAC2(plan, accA, accB, sc.zQ.Res[i],
			sc.lkey.a[i].Res[tau], sc.lkey.aPre[i].Res[tau],
			sc.lkey.b[i].Res[tau], sc.lkey.bPre[i].Res[tau])
	}
	return accA, accB
}

// landBound returns the largest L with q + L*2q < 2^min(64, 2*bitlen(q)):
// a canonical accumulator plus L lazy products neither wraps 64 bits nor
// leaves the range Barrett64Reduce(0, acc) reduces exactly. It is at
// least 1 for every modulus NewModulus64 accepts.
func landBound(q uint64) uint64 {
	room := ^uint64(0)
	if nb := bits.Len64(q); nb < 32 {
		room = 1<<(2*nb) - 1
	}
	return (room - q) / (2 * q)
}

// landRow reduces an accumulator row in place to canonical residues.
func landRow(acc []uint64, mod *modmath.Modulus64) {
	q, mu, nb := mod.Q, mod.Mu, mod.N
	for j, v := range acc {
		acc[j] = modmath.Barrett64Reduce(0, v, q, mu, nb)
	}
}

// relinTower accumulates all k gadget digits into one tower of the
// relinearized result, entirely in the evaluation domain, then lands the
// tower's output by adding NTT(c1/c0) to the accumulators
// (NTT(INTT(acc) + c) = acc + NTT(c), exactly).
func relinTower(sc *rnsMulScratch, tau int) {
	plan := sc.lv.c.Plans[tau].Generic()
	mod := sc.lv.c.Mods[tau]
	accA, accB := keySwitchAccumulate(sc, tau)
	plan.NegacyclicForwardInto(sc.outA.Res[tau], sc.cQ[1].Res[tau])
	reduceAddRow(sc.outA.Res[tau], accA, mod)
	plan.NegacyclicForwardInto(sc.outB.Res[tau], sc.cQ[0].Res[tau])
	reduceAddRow(sc.outB.Res[tau], accB, mod)
}

// reduceAddRow lands an accumulator row on a canonical row:
// dst[j] = dst[j] + acc[j] mod q, one Barrett reduction per element for
// the whole deferred inner product.
func reduceAddRow(dst, acc []uint64, mod *modmath.Modulus64) {
	q, mu, nb := mod.Q, mod.Mu, mod.N
	acc = acc[:len(dst)]
	for j := range dst {
		dst[j] = mod.Add(dst[j], modmath.Barrett64Reduce(0, acc[j], q, mu, nb))
	}
}

// modSwitchCtx drops one tower: dst = round(ct / q_{k-1-l}) via the
// Rescaler's evaluation-domain rescale, residues only, allocation-free in
// steady state — the RNS half of the ladder the oracle's big-integer
// switch ground-truths. Only the dropped tower crosses to coefficient
// form (one inverse transform), plus k-1 forward transforms of the
// correction term. ctx is observed before the rescale starts and between
// the two components.
func (b *rnsBackend) modSwitchCtx(ctx context.Context, dst *BackendCiphertext, ct BackendCiphertext) error {
	dstA, dstB, err := b.dstRows(dst)
	if err != nil {
		return err
	}
	if err := phaseGate(ctx, faultinject.SiteModSwitch); err != nil {
		return err
	}
	r := b.levels[ct.Level].rescale
	if err := r.RescaleNTTInto(dstA, ct.A.(rns.Poly), b.workers); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return r.RescaleNTTInto(dstB, ct.B.(rns.Poly), b.workers)
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

func addRow(dst, src []uint64, mod *modmath.Modulus64) {
	for j := range dst {
		dst[j] = mod.Add(dst[j], src[j])
	}
}
