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
// (rns.SKConverter). Relinearization keys are stored per level in that
// level's NTT domain, so the per-multiply key-side forward transforms are
// gone. All multiply state is pooled per level; steady-state MulCt and
// ModSwitch allocate nothing in the workers == 1 configuration.
//
// Since PR 6 ciphertexts REST in the twisted-evaluation (double-CRT)
// domain, and MulCt has two pipelines keyed off the operands' Domain tag:
//
//   - DomainCoeff: the PR 5 pipeline, bit-for-bit — each tensor tower
//     forward-transforms its four operand rows, multiplies pointwise, and
//     inverse-transforms the three products.
//   - DomainNTT (the resident pipeline): the Q-base tensor consumes the
//     operands' evaluation form directly (zero forward transforms), the
//     operands cross to coefficient form exactly once for the m~-corrected
//     extension, squared operands are detected by row identity and
//     extended/transformed once instead of twice, and the relinearized
//     result is returned resident (the accumulators already live in the
//     evaluation domain, so the result adds NTT(c0/c1) instead of leaving
//     the domain). Coefficient form survives only where BEHZ needs
//     positional digits: the base conversions and the rounding offsets.
//
// Every per-coefficient BEHZ step of both pipelines — the operand
// extension, the divide-and-round (rnsLevel.scaleRound), the exact return
// and the ladder's rescale — hands rows and precomputed weights to
// ring.AffineRows on the plan's kernel tier; see rns/baseconv.go for the
// row and weight table. Both pipelines dispatch their transform-bearing
// per-tower phases (crossing, tensor, relinearization) through the shared
// ring.ParallelChunks worker pool when workers != 1; the conversions run
// inline on the calling goroutine.
type rnsBackend struct {
	t       uint64
	k       int // towers at level 0
	workers int // tower-dispatch width: 1 sequential/zero-alloc, 0 GOMAXPROCS
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

// rnsMulScratch is the pooled working set of one MulCt call at one level.
// The per-TOWER-disjoint members (evE, opQ, zQ, liftQ, prodQ) exist so the
// dispatched phases can run towers concurrently without sharing rows; the
// flat rows (ev, zrow, lift, prod) serve the sequential coefficient-domain
// pipeline, whose explicit loops are what escape analysis keeps
// allocation-free.
//
// The struct doubles as the call frame of the dispatched phases: the
// operand/destination fields are set at the top of MulCt so the parallel
// closures capture ONE pointer (the scratch itself, already pooled)
// instead of a fresh environment per phase.
type rnsMulScratch struct {
	opE              [4]rns.Poly // operands extended to the ext base
	ev               [5][]uint64 // shared evaluation-domain rows (sequential path)
	evE              [5]rns.Poly // per-tower evaluation-domain rows (ext-base shaped)
	opQ              [4]rns.Poly // resident path: operand coefficient forms in Q_l
	zQ               rns.Poly    // divide-and-round digits, then relin digit rows
	liftQ, prodQ     rns.Poly    // per-tower relin scratch (parallel + resident)
	c0Q, c1Q, c2Q    rns.Poly    // tensor, then scaled ciphertext, in Q_l
	c0E, c1E, c2E    rns.Poly    // tensor in the ext base
	convE            rns.Poly    // FastBConv([w]_Q) landing buffer
	extRows          [][]uint64  // row list of the divide-and-round's extension step
	zrow, lift, prod []uint64    // relin digit, lifted digit, product rows
	accA, accB       rns.Poly    // relin evaluation-domain accumulators

	// Call frame for the dispatched phases.
	lv           *rnsLevel
	in           [4]rns.Poly // a1, b1, a2, b2 as passed
	outA, outB   rns.Poly
	lkey         *rnsLevelRelin
	keyNTTDomain bool
	squaring     bool               // operand rows of ct1 and ct2 are identical slices
	gtab         *ring.GaloisTables // the galois hop's index maps (rotation path)
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
// pinned. workers == 1 runs every per-tower phase as a plain sequential
// loop — the zero-allocation configuration the alloc gates measure.
// workers == 0 resolves to GOMAXPROCS at construction (the default): on
// a single-CPU host that IS the sequential zero-allocation path, so the
// default backend never pays pool dispatch it cannot use. Any other
// positive value caps the pool fan-out at that many concurrent tower
// chunks.
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
			zrow: make([]uint64, c.N), lift: make([]uint64, c.N), prod: make([]uint64, c.N),
		}
		for i := range sc.opE {
			sc.opE[i] = ext.NewPoly()
		}
		for i := range sc.opQ {
			sc.opQ[i] = c.NewPoly()
		}
		for i := range sc.ev {
			sc.ev[i] = make([]uint64, c.N)
		}
		for i := range sc.evE {
			// Ext-base shaped (the wider base), so the same rows serve both
			// bases' per-tower phases: m >= k and every row is length N.
			sc.evE[i] = ext.NewPoly()
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

//mqx:domaincheck
func (b *rnsBackend) CheckCiphertext(ct BackendCiphertext) error {
	if ct.Level < 0 || ct.Level >= len(b.levels) {
		return fmt.Errorf("fhe: level %d outside the %d-level chain", ct.Level, len(b.levels))
	}
	if ct.Domain > DomainNTT {
		return fmt.Errorf("fhe: unknown domain tag %d", ct.Domain)
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

func (b *rnsBackend) Neg(level int, dst, a Poly) {
	must(b.levels[level].c.NegInto(dst.(rns.Poly), a.(rns.Poly)))
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

func (b *rnsBackend) ScalarMul(level int, dst, a Poly, k uint64) {
	must(b.levels[level].c.ScalarMulUint64Into(dst.(rns.Poly), a.(rns.Poly), k))
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
// (a_i, a_i*s + e_i + (Q_l/q_i)*s^2) under that level's basis. With
// nttDomain set (the default and the fast path), both components are
// stored per tower in the twisted-evaluation domain, so relinearization
// pays one forward transform per digit-tower pair and two inverse
// transforms per tower — the key-side transforms are all at keygen.
// Coefficient-domain keys (RelinKeyGenCoeffDomain) pay two extra forward
// transforms per digit-tower pair on EVERY multiply; they exist as the
// benchmark comparison axis that measures what the NTT-domain layout
// saves.
type rnsRelinKey struct {
	nttDomain bool
	levels    []rnsLevelRelin
}

type rnsLevelRelin struct {
	a, b []rns.Poly

	// aPre/bPre are the elementwise Shoup precomputations of the
	// NTT-domain key rows (nil for coefficient-domain keys). With the
	// second multiplicand fixed — the key — the relin inner product can
	// run as lazy Shoup products accumulated with plain integer adds,
	// deferring the per-digit Barrett reduction to one pass per tower.
	aPre, bPre []rns.Poly
}

// RelinKeyGen builds the CRT-gadget relinearization key at every ladder
// level, stored in the NTT domain. The gadget digits are the towers
// themselves (z_i = [c2_i * (Q_l/q_i)^-1]_{q_i}, with
// sum_i z_i*(Q_l/q_i) = c2 mod Q_l), so no integer digit extraction is
// ever needed — the decomposition the paper's RNS philosophy already paid
// for is the key-switching gadget, at every level.
func (b *rnsBackend) RelinKeyGen(s Poly, rng *rand.Rand) BackendRelinKey {
	return b.relinKeyGen(s, rng, true)
}

// RelinKeyGenCoeffDomain builds the same per-level key with both
// components left in the coefficient domain — the PR 4-style layout whose
// per-multiply transform cost the NTT-domain default eliminates. It
// exists for benchmarks and tests; production callers want RelinKeyGen.
func (b *rnsBackend) RelinKeyGenCoeffDomain(s Poly, rng *rand.Rand) BackendRelinKey {
	return b.relinKeyGen(s, rng, false)
}

func (b *rnsBackend) relinKeyGen(s Poly, rng *rand.Rand, nttDomain bool) BackendRelinKey {
	sk0 := s.(rns.Poly)
	// s^2 per tower is level-independent (each tower's negacyclic square
	// stands alone), so compute it once at level 0 and slice prefixes.
	s2 := b.levels[0].c.NewPoly()
	must(b.levels[0].c.MulAll(s2, sk0, sk0, 1))
	noise := make([]int64, b.N())
	key := &rnsRelinKey{nttDomain: nttDomain}
	for l, lv := range b.levels {
		c := lv.c
		k := c.Channels()
		sk := b.SecretAt(l, s).(rns.Poly)
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
			for tau := 0; tau < k; tau++ {
				// + (Q_l/q_i mod q_tau) * s^2, on the scale-accumulate kernel.
				c.Plans[tau].Generic().ScaleAddInto(bb.Res[tau], bb.Res[tau], s2.Res[tau], lv.gadget[i][tau])
			}
			if nttDomain {
				aPre, bPre := c.NewPoly(), c.NewPoly()
				for tau := 0; tau < k; tau++ {
					plan := c.Plans[tau].Generic()
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
				lk.aPre = append(lk.aPre, aPre)
				lk.bPre = append(lk.bPre, bPre)
			}
			lk.a = append(lk.a, a)
			lk.b = append(lk.b, bb)
		}
		key.levels = append(key.levels, lk)
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

// GaloisKeyGen builds the per-level Galois key-switch keys, stored in the
// NTT domain. Structurally this is RelinKeyGen with tau_g(s) in place of
// s^2: for each covered element g and each tower i of level l, an
// encryption (a_i, a_i*s + e_i + (Q_l/q_i)*tau_g(s)) under that level's
// basis. tau_g(s) is computed once per g at level 0 in the coefficient
// domain; a lower rung's secret is a tower PREFIX, and the automorphism
// acts row-wise, so the restriction commutes with tau for free.
func (b *rnsBackend) GaloisKeyGen(s Poly, rng *rand.Rand) BackendGaloisKey {
	sk0 := s.(rns.Poly)
	n := b.N()
	c0 := b.levels[0].c
	tauS := c0.NewPoly()
	noise := make([]int64, n)
	key := &rnsGaloisKey{n: n, entries: make(map[uint64]*rnsGaloisEntry)}
	for _, g := range galoisKeyElements(n) {
		tab, err := ring.GaloisTablesFor(n, g)
		must(err)
		for tau := range c0.Mods {
			c0.Plans[tau].Generic().AutomorphismCoeffInto(tab, tauS.Res[tau], sk0.Res[tau])
		}
		entry := &rnsGaloisEntry{g: g, tab: tab}
		for l, lv := range b.levels {
			c := lv.c
			k := c.Channels()
			sk := b.SecretAt(l, s).(rns.Poly)
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
				for tau := 0; tau < k; tau++ {
					// + (Q_l/q_i mod q_tau) * tau_g(s)
					c.Plans[tau].Generic().ScaleAddInto(bb.Res[tau], bb.Res[tau], tauS.Res[tau], lv.gadget[i][tau])
				}
				aPre, bPre := c.NewPoly(), c.NewPoly()
				for tau := 0; tau < k; tau++ {
					plan := c.Plans[tau].Generic()
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
			entry.levels = append(entry.levels, lk)
		}
		key.entries[g] = entry
	}
	return key
}

func (b *rnsBackend) RotateSlots(dst *BackendCiphertext, ct BackendCiphertext, steps int, gk BackendGaloisKey) error {
	return b.RotateSlotsCtx(context.Background(), dst, ct, steps, gk)
}

func (b *rnsBackend) Conjugate(dst *BackendCiphertext, ct BackendCiphertext, gk BackendGaloisKey) error {
	return b.ConjugateCtx(context.Background(), dst, ct, gk)
}

// RotateSlotsCtx rotates both slot rows left by steps via the binary
// decomposition of the rotation: one Galois key-switch hop per set bit,
// each hop a permutation + CRT-gadget key switch that reuses the multiply
// pipeline's pooled scratch and lazy fused-MAC accumulation. ctx is
// observed before every hop. Zero allocations in steady state when
// workers == 1; dst must not alias ct.
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
// MulCtCtx validates its own: key provenance first, then level and domain
// agreement, then handle types and destination shape.
func (b *rnsBackend) checkGaloisCall(dst *BackendCiphertext, ct BackendCiphertext, gk BackendGaloisKey) (*rnsGaloisKey, error) {
	key, ok := gk.(*rnsGaloisKey)
	if !ok {
		return nil, fmt.Errorf("fhe: foreign galois key %T on the %s backend", gk, b.Name())
	}
	if key.n != b.N() {
		return nil, fmt.Errorf("fhe: galois key built for degree %d, want %d", key.n, b.N())
	}
	if ct.Level < 0 || ct.Level >= len(b.levels) {
		return nil, fmt.Errorf("fhe: level %d outside the %d-level chain", ct.Level, len(b.levels))
	}
	if dst.Level != ct.Level {
		return nil, fmt.Errorf("fhe: rotate level mismatch: %d -> %d", ct.Level, dst.Level)
	}
	if dst.Domain != ct.Domain {
		return nil, fmt.Errorf("fhe: rotate domain mismatch: %s -> %s", ct.Domain, dst.Domain)
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
	c := lv.c
	k := c.Channels()
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
	// A key of the right type and degree can still come from another
	// backend instance: validate every hop's per-level shape before any
	// hop indexes into it.
	for h := 0; h < nh; h++ {
		if ct.Level >= len(hops[h].levels) {
			return fmt.Errorf("fhe: galois key covers %d levels, ciphertext at level %d", len(hops[h].levels), ct.Level)
		}
		lk := &hops[h].levels[ct.Level]
		if len(lk.a) != k || len(lk.b) != k {
			return fmt.Errorf("fhe: galois key has %d digits at level %d, want %d", len(lk.a), ct.Level, k)
		}
		for i := 0; i < k; i++ {
			if len(lk.a[i].Res) != k || len(lk.b[i].Res) != k ||
				len(lk.a[i].Res[0]) != c.N || len(lk.b[i].Res[0]) != c.N {
				return fmt.Errorf("fhe: galois key digit %d shaped for another backend", i)
			}
		}
	}
	resident := ct.Domain == DomainNTT
	sc := lv.mulPool.Get().(*rnsMulScratch)
	defer func() {
		if r := recover(); r != nil {
			quarantinedScratch.Add(1)
			panic(r)
		}
		sc.lv, sc.lkey, sc.gtab = nil, nil, nil
		sc.in = [4]rns.Poly{}
		sc.outA, sc.outB = rns.Poly{}, rns.Poly{}
		lv.mulPool.Put(sc)
	}()
	sc.lv = lv
	sc.keyNTTDomain = true
	hopA, hopB := srcA, srcB
	for h := 0; h < nh; h++ {
		if err := phaseGate(ctx, faultinject.SiteRotate); err != nil {
			return err
		}
		outA, outB := dstA, dstB
		if h != nh-1 {
			if h%2 == 0 {
				outA, outB = sc.opQ[0], sc.opQ[1]
			} else {
				outA, outB = sc.opQ[2], sc.opQ[3]
			}
		}
		sc.in[0], sc.in[1] = hopA, hopB
		sc.outA, sc.outB = outA, outB
		sc.lkey = &hops[h].levels[ct.Level]
		sc.gtab = hops[h].tab
		b.galoisHop(sc, k, resident)
		hopA, hopB = outA, outB
	}
	return nil
}

// galoisHop applies one automorphism + key switch: permute both
// components (phase 1), scale tau(A) into its gadget digit rows (phase 2,
// the relin digit map verbatim), then accumulate the key inner product
// per tower and land the hop (phase 3). The phases dispatch through the
// worker pool exactly like the multiply's.
func (b *rnsBackend) galoisHop(sc *rnsMulScratch, k int, resident bool) {
	if b.workers == 1 {
		for tau := 0; tau < k; tau++ {
			galoisPermuteTower(sc, tau, resident)
		}
		for i := 0; i < k; i++ {
			relinDigitRow(sc, i)
		}
		for tau := 0; tau < k; tau++ {
			galoisTower(sc, tau, resident)
		}
		return
	}
	ring.ParallelChunks(k, b.workers, func(start, end int) {
		for tau := start; tau < end; tau++ {
			galoisPermuteTower(sc, tau, resident)
		}
	})
	ring.ParallelChunks(k, b.workers, func(start, end int) {
		for i := start; i < end; i++ {
			relinDigitRow(sc, i)
		}
	})
	ring.ParallelChunks(k, b.workers, func(start, end int) {
		for tau := start; tau < end; tau++ {
			galoisTower(sc, tau, resident)
		}
	})
}

// galoisPermuteTower permutes one tower of both ciphertext components:
// tau(A) lands in c2Q in COEFFICIENT form (the gadget decomposition needs
// positional digits), tau(B) lands directly in the hop's output rows, in
// the ciphertext's own domain. Resident rows permute in the evaluation
// domain — a pure index map — and only tau(A) pays an inverse transform.
func galoisPermuteTower(sc *rnsMulScratch, tau int, resident bool) {
	lv := sc.lv
	plan := lv.c.Plans[tau].Generic()
	srcA, srcB := sc.in[0].Res[tau], sc.in[1].Res[tau]
	if resident {
		tmp := sc.evE[0].Res[tau]
		plan.AutomorphismEvalInto(sc.gtab, tmp, srcA)
		plan.NegacyclicInverseInto(sc.c2Q.Res[tau], tmp)
		plan.AutomorphismEvalInto(sc.gtab, sc.outB.Res[tau], srcB)
		return
	}
	plan.AutomorphismCoeffInto(sc.gtab, sc.c2Q.Res[tau], srcA)
	plan.AutomorphismCoeffInto(sc.gtab, sc.outB.Res[tau], srcB)
}

// galoisTower accumulates the k gadget digits of tau(A) against one
// tower of the hop's key rows — the relinTower inner product, including
// the lazy fused-MAC path — and lands the key-switched pair
// (A', B') = (-acc_a, tau(B) - acc_b): the key's b rows encrypt
// tau_g(s) under s, so B' - A'*s = tau(B) - tau(A)*tau(s) + small noise.
func galoisTower(sc *rnsMulScratch, tau int, resident bool) {
	lv := sc.lv
	c := lv.c
	k := c.Channels()
	plan := c.Plans[tau].Generic()
	mod := c.Mods[tau]
	accA, accB := sc.accA.Res[tau], sc.accB.Res[tau]
	clearRow(accA)
	clearRow(accB)
	outA, outB := sc.outA.Res[tau], sc.outB.Res[tau]
	if lv.relinLazy && len(sc.lkey.aPre) == k {
		for i := 0; i < k; i++ {
			ring.NegacyclicForwardMAC2(plan, accA, accB, sc.zQ.Res[i],
				sc.lkey.a[i].Res[tau], sc.lkey.aPre[i].Res[tau],
				sc.lkey.b[i].Res[tau], sc.lkey.bPre[i].Res[tau])
		}
		if resident {
			reduceNegRow(outA, accA, mod)
			reduceSubRow(outB, accB, mod)
			return
		}
		reduceRow(accA, mod)
		reduceRow(accB, mod)
	} else {
		lift, prod := sc.liftQ.Res[tau], sc.prodQ.Res[tau]
		for i := 0; i < k; i++ {
			plan.NegacyclicForwardInto(lift, sc.zQ.Res[i])
			plan.PointwiseMulInto(prod, lift, sc.lkey.a[i].Res[tau])
			addRow(accA, prod, mod)
			plan.PointwiseMulInto(prod, lift, sc.lkey.b[i].Res[tau])
			addRow(accB, prod, mod)
		}
		if resident {
			negRowInto(outA, accA, mod)
			subRow(outB, accB, mod)
			return
		}
	}
	// Coefficient-domain landing: the accumulators live in the
	// evaluation domain; cross them out, then negate/subtract against
	// the already-permuted coefficient rows.
	lift := sc.liftQ.Res[tau]
	plan.NegacyclicInverseInto(lift, accA)
	negRowInto(outA, lift, mod)
	plan.NegacyclicInverseInto(lift, accB)
	subRow(outB, lift, mod)
}

// reduceNegRow lands a lazy accumulator row negated on a canonical row:
// dst[j] = -acc[j] mod q, one Barrett reduction per element.
func reduceNegRow(dst, acc []uint64, mod *modmath.Modulus64) {
	q, mu, nb := mod.Q, mod.Mu, mod.N
	acc = acc[:len(dst)]
	for j := range dst {
		dst[j] = mod.Neg(modmath.Barrett64Reduce(0, acc[j], q, mu, nb))
	}
}

// reduceSubRow lands a lazy accumulator row subtracted from a canonical
// row: dst[j] = dst[j] - acc[j] mod q.
func reduceSubRow(dst, acc []uint64, mod *modmath.Modulus64) {
	q, mu, nb := mod.Q, mod.Mu, mod.N
	acc = acc[:len(dst)]
	for j := range dst {
		dst[j] = mod.Sub(dst[j], modmath.Barrett64Reduce(0, acc[j], q, mu, nb))
	}
}

func negRowInto(dst, src []uint64, mod *modmath.Modulus64) {
	for j := range dst {
		dst[j] = mod.Neg(src[j])
	}
}

func subRow(dst, src []uint64, mod *modmath.Modulus64) {
	for j := range dst {
		dst[j] = mod.Sub(dst[j], src[j])
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

// tensorTower computes one tower's share of the ciphertext tensor
// product: four twisted forward transforms, four pointwise products, and
// three inverse transforms yield c0 = b1*b2, c1 = a1*b2 + a2*b1 and
// c2 = a1*a2 for that tower.
func tensorTower(plan *ring.Plan[uint64, ring.Shoup64], mod *modmath.Modulus64,
	a1, b1, a2, b2 []uint64, ev *[5][]uint64, o0, o1, o2 []uint64) {
	plan.NegacyclicForwardInto(ev[0], a1)
	plan.NegacyclicForwardInto(ev[1], b1)
	plan.NegacyclicForwardInto(ev[2], a2)
	plan.NegacyclicForwardInto(ev[3], b2)
	plan.PointwiseMulInto(ev[4], ev[1], ev[3]) // b1 ∘ b2
	plan.NegacyclicInverseInto(o0, ev[4])
	plan.PointwiseMulInto(ev[4], ev[0], ev[2]) // a1 ∘ a2
	plan.NegacyclicInverseInto(o2, ev[4])
	plan.PointwiseMulInto(ev[4], ev[0], ev[3]) // a1 ∘ b2
	plan.PointwiseMulInto(ev[0], ev[2], ev[1]) // a2 ∘ b1
	r4, r0 := ev[4], ev[0]
	for j := range r4 {
		r4[j] = mod.Add(r4[j], r0[j])
	}
	plan.NegacyclicInverseInto(o1, ev[4])
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

// MulCt is the BEHZ homomorphic multiply in the operands' level basis:
// m~-corrected base extension (no operand overshoot), tensor,
// divide-and-round by Q_l/T, exact return to base Q_l, and CRT-gadget
// relinearization with the level's NTT-domain keys — residues end to end,
// no big integers anywhere, zero allocations in steady state when workers
// == 1. dst must not alias the inputs. The two operand domains select the
// two pipelines described on rnsBackend; they produce bit-identical
// ciphertexts up to the final exact transform.
func (b *rnsBackend) MulCt(dst *BackendCiphertext, ct1, ct2 BackendCiphertext, rlk BackendRelinKey) error {
	return b.MulCtCtx(context.Background(), dst, ct1, ct2, rlk)
}

// MulCtCtx is MulCt with the DeadlineBackend contract: ctx is observed at
// the four BEHZ phase boundaries (base extension, tensor,
// divide-and-round, relinearization) and the multiply aborts with
// ctx.Err() — dst then holds garbage the scheme layer never returns. The
// pooled scratch frame goes back to the pool on every ordinary exit,
// including cancellation (the frame is intact, just abandoned mid-math);
// a PANIC unwinding through the multiply quarantines it instead, because
// a torn frame must never serve the next request.
func (b *rnsBackend) MulCtCtx(ctx context.Context, dst *BackendCiphertext, ct1, ct2 BackendCiphertext, rlk BackendRelinKey) error {
	key, ok := rlk.(*rnsRelinKey)
	if !ok {
		return fmt.Errorf("fhe: foreign relinearization key %T on the %s backend", rlk, b.Name())
	}
	if ct1.Level != ct2.Level || dst.Level != ct1.Level {
		return fmt.Errorf("fhe: MulCt level mismatch: %d, %d -> %d", ct1.Level, ct2.Level, dst.Level)
	}
	if ct1.Domain != ct2.Domain || dst.Domain != ct1.Domain {
		return fmt.Errorf("fhe: MulCt domain mismatch: %s, %s -> %s", ct1.Domain, ct2.Domain, dst.Domain)
	}
	if ct1.Level < 0 || ct1.Level >= len(b.levels) {
		return fmt.Errorf("fhe: level %d outside the %d-level chain", ct1.Level, len(b.levels))
	}
	resident := ct1.Domain == DomainNTT
	if resident && !key.nttDomain {
		// The coefficient-domain key layout exists as the PR 4 benchmark
		// axis; the resident pipeline's relin accumulation assumes key rows
		// already transformed. Callers measuring that axis hold
		// coefficient-domain ciphertexts (ConvertDomain) anyway.
		return fmt.Errorf("fhe: coefficient-domain relin keys require coefficient-domain ciphertexts")
	}
	lv := b.levels[ct1.Level]
	c, ext := lv.c, lv.ext
	k, m := c.Channels(), ext.Channels()
	// A key of the right TYPE can still come from a different backend
	// instance (other tower count, other N): validate its chain depth and
	// per-level shape before the digit loop indexes into it.
	if ct1.Level >= len(key.levels) {
		return fmt.Errorf("fhe: relin key covers %d levels, ciphertext at level %d", len(key.levels), ct1.Level)
	}
	lkey := &key.levels[ct1.Level]
	if len(lkey.a) != k || len(lkey.b) != k {
		return fmt.Errorf("fhe: relin key has %d digits at level %d, want %d", len(lkey.a), ct1.Level, k)
	}
	for i := 0; i < k; i++ {
		if len(lkey.a[i].Res) != k || len(lkey.b[i].Res) != k ||
			len(lkey.a[i].Res[0]) != c.N || len(lkey.b[i].Res[0]) != c.N {
			return fmt.Errorf("fhe: relin key digit %d shaped for another backend", i)
		}
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
	defer func() {
		if r := recover(); r != nil {
			// The panic unwound mid-pipeline: sc may be torn. Quarantine
			// it (the GC reclaims it, the pool refills fresh) and let the
			// panic continue to the caller's recovery layer.
			quarantinedScratch.Add(1)
			panic(r)
		}
		// Drop the caller's polynomials from the pooled frame so the pool
		// never pins live ciphertext storage between multiplies.
		sc.lv, sc.lkey = nil, nil
		sc.in = [4]rns.Poly{}
		sc.outA, sc.outB = rns.Poly{}, rns.Poly{}
		lv.mulPool.Put(sc)
	}()
	sc.lv = lv
	sc.in = [4]rns.Poly{a1, b1, a2, b2}
	sc.outA, sc.outB = dstA, dstB
	sc.lkey = lkey
	sc.keyNTTDomain = key.nttDomain
	sc.squaring = sameRows(a1, a2) && sameRows(b1, b2)

	if resident {
		return b.mulResident(ctx, lv, sc)
	}
	if b.workers == 1 {
		return b.mulCoeffSequential(ctx, lv, sc, k, m)
	}
	return b.mulCoeffParallel(ctx, lv, sc, k, m)
}

// sameRows reports whether two polynomials share their row storage — the
// squaring detection the resident pipeline uses to base-extend and
// transform aliased operands once instead of twice.
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

// mulCoeffSequential is the PR 5 coefficient-domain pipeline, verbatim:
// the explicit loops (no dispatch closures) are what escape analysis
// keeps allocation-free, and it is the bit-exact baseline the resident
// pipeline is measured and differentially tested against.
func (b *rnsBackend) mulCoeffSequential(ctx context.Context, lv *rnsLevel, sc *rnsMulScratch, k, m int) error {
	c, ext := lv.c, lv.ext

	// 1. Base-extend the four operand polynomials into the extension
	// base with the m~ correction: extended values are x + gamma*Q with
	// gamma in {-1, 0}, so the tensor headroom validated at construction
	// carries no k*Q operand overshoot.
	if err := phaseGate(ctx, faultinject.SiteMulExtend); err != nil {
		return err
	}
	for i := range sc.in {
		if err := lv.mconv.ConvertInto(sc.opE[i], sc.in[i]); err != nil {
			return err
		}
	}

	// 2. Tensor product, tower by tower across both bases.
	if err := phaseGate(ctx, faultinject.SiteMulTensor); err != nil {
		return err
	}
	for tau := 0; tau < k; tau++ {
		tensorTower(c.Plans[tau].Generic(), c.Mods[tau],
			sc.in[0].Res[tau], sc.in[1].Res[tau], sc.in[2].Res[tau], sc.in[3].Res[tau],
			&sc.ev, sc.c0Q.Res[tau], sc.c1Q.Res[tau], sc.c2Q.Res[tau])
	}
	for tau := 0; tau < m; tau++ {
		tensorTower(ext.Plans[tau].Generic(), ext.Mods[tau],
			sc.opE[0].Res[tau], sc.opE[1].Res[tau], sc.opE[2].Res[tau], sc.opE[3].Res[tau],
			&sc.ev, sc.c0E.Res[tau], sc.c1E.Res[tau], sc.c2E.Res[tau])
	}

	// 3. Divide-and-round each component by Q_l/T; results land in the
	// c*Q polys as the degree-2 scaled ciphertext.
	if err := phaseGate(ctx, faultinject.SiteMulScale); err != nil {
		return err
	}
	lv.scaleRound(sc, sc.c0Q, sc.c0E)
	lv.scaleRound(sc, sc.c1Q, sc.c1E)
	lv.scaleRound(sc, sc.c2Q, sc.c2E)

	if err := phaseGate(ctx, faultinject.SiteMulRelin); err != nil {
		return err
	}
	// 4. Relinearize: the towers of c2 are the gadget digits. Everything
	// accumulates in the evaluation domain; one inverse per tower at the
	// end. With NTT-domain keys (the default) the key rows are already
	// transformed; coefficient-domain keys pay two forward transforms per
	// digit-tower pair right here — the cost the per-level NTT layout
	// removes.
	for tau := 0; tau < k; tau++ {
		clearRow(sc.accA.Res[tau])
		clearRow(sc.accB.Res[tau])
	}
	for i := 0; i < k; i++ {
		c.Plans[i].Generic().ScalarMulInto(sc.zrow, sc.c2Q.Res[i], c.QiInv(i))
		for tau := 0; tau < k; tau++ {
			mod := c.Mods[tau]
			q := mod.Q
			for j, v := range sc.zrow {
				// One conditional subtract lifts the digit into tower
				// tau (same-width basis, validated at construction).
				if v >= q {
					v -= q
				}
				sc.lift[j] = v
			}
			plan := c.Plans[tau].Generic()
			plan.NegacyclicForwardInto(sc.lift, sc.lift)
			krowA, krowB := sc.lkey.a[i].Res[tau], sc.lkey.b[i].Res[tau]
			if !sc.keyNTTDomain {
				plan.NegacyclicForwardInto(sc.ev[0], krowA)
				plan.NegacyclicForwardInto(sc.ev[1], krowB)
				krowA, krowB = sc.ev[0], sc.ev[1]
			}
			plan.PointwiseMulInto(sc.prod, sc.lift, krowA)
			addRow(sc.accA.Res[tau], sc.prod, mod)
			plan.PointwiseMulInto(sc.prod, sc.lift, krowB)
			addRow(sc.accB.Res[tau], sc.prod, mod)
		}
	}
	for tau := 0; tau < k; tau++ {
		plan := c.Plans[tau].Generic()
		mod := c.Mods[tau]
		plan.NegacyclicInverseInto(sc.outA.Res[tau], sc.accA.Res[tau])
		addRow(sc.outA.Res[tau], sc.c1Q.Res[tau], mod)
		plan.NegacyclicInverseInto(sc.outB.Res[tau], sc.accB.Res[tau])
		addRow(sc.outB.Res[tau], sc.c0Q.Res[tau], mod)
	}
	return nil
}

// mulCoeffParallel is the coefficient-domain pipeline with its per-tower
// phases dispatched through the worker pool: same math, same bits, the
// tensor and relin towers running concurrently on per-tower-disjoint
// scratch rows. The base conversions stay sequential (they carry
// cross-tower accumulations).
func (b *rnsBackend) mulCoeffParallel(ctx context.Context, lv *rnsLevel, sc *rnsMulScratch, k, m int) error {
	if err := phaseGate(ctx, faultinject.SiteMulExtend); err != nil {
		return err
	}
	for i := range sc.in {
		if err := lv.mconv.ConvertInto(sc.opE[i], sc.in[i]); err != nil {
			return err
		}
	}
	if err := phaseGate(ctx, faultinject.SiteMulTensor); err != nil {
		return err
	}
	ring.ParallelChunks(k, b.workers, func(start, end int) {
		for tau := start; tau < end; tau++ {
			coeffTensorQ(sc, tau)
		}
	})
	ring.ParallelChunks(m, b.workers, func(start, end int) {
		for tau := start; tau < end; tau++ {
			coeffTensorExt(sc, tau)
		}
	})
	if err := phaseGate(ctx, faultinject.SiteMulScale); err != nil {
		return err
	}
	lv.scaleRound(sc, sc.c0Q, sc.c0E)
	lv.scaleRound(sc, sc.c1Q, sc.c1E)
	lv.scaleRound(sc, sc.c2Q, sc.c2E)
	if err := phaseGate(ctx, faultinject.SiteMulRelin); err != nil {
		return err
	}
	ring.ParallelChunks(k, b.workers, func(start, end int) {
		for i := start; i < end; i++ {
			relinDigitRow(sc, i)
		}
	})
	ring.ParallelChunks(k, b.workers, func(start, end int) {
		for tau := start; tau < end; tau++ {
			relinTower(sc, tau, false)
		}
	})
	return nil
}

// mulResident is the NTT-resident BEHZ multiply (see the rnsBackend doc):
// the Q-base tensor consumes the operands' resident evaluation form
// directly, coefficient form appears exactly where base conversion needs
// positional digits, the divide-and-round runs as fused one-pass kernels,
// and the result is returned resident.
func (b *rnsBackend) mulResident(ctx context.Context, lv *rnsLevel, sc *rnsMulScratch) error {
	k, m := lv.c.Channels(), lv.ext.Channels()
	seq := b.workers == 1
	nops := 4
	if sc.squaring {
		nops = 2
	}

	// 1. Operands cross to coefficient form once — nops*k independent
	// tower transforms — and base-extend with the m~ correction. Squared
	// operands (identical rows, the ladder's dominant workload) make the
	// crossing and both extensions once.
	if err := phaseGate(ctx, faultinject.SiteMulExtend); err != nil {
		return err
	}
	if seq {
		for u := 0; u < nops*k; u++ {
			residentOpINTT(sc, u)
		}
	} else {
		ring.ParallelChunks(nops*k, b.workers, func(start, end int) {
			for u := start; u < end; u++ {
				residentOpINTT(sc, u)
			}
		})
	}
	for i := 0; i < nops; i++ {
		if err := lv.mconv.ConvertInto(sc.opE[i], sc.opQ[i]); err != nil {
			return err
		}
	}

	// 2. Tensor product. Q base: the operands are already evaluation
	// rows, so each tower is three pointwise products and three inverse
	// transforms — the forward half of the PR 5 tensor is gone. Ext base:
	// the extended operands are coefficient rows; squaring halves the
	// forward transforms.
	if err := phaseGate(ctx, faultinject.SiteMulTensor); err != nil {
		return err
	}
	if seq {
		for tau := 0; tau < k; tau++ {
			residentTensorQ(sc, tau)
		}
		for tau := 0; tau < m; tau++ {
			residentTensorExt(sc, tau)
		}
	} else {
		ring.ParallelChunks(k, b.workers, func(start, end int) {
			for tau := start; tau < end; tau++ {
				residentTensorQ(sc, tau)
			}
		})
		ring.ParallelChunks(m, b.workers, func(start, end int) {
			for tau := start; tau < end; tau++ {
				residentTensorExt(sc, tau)
			}
		})
	}

	// 3. Divide-and-round per component.
	if err := phaseGate(ctx, faultinject.SiteMulScale); err != nil {
		return err
	}
	lv.scaleRound(sc, sc.c0Q, sc.c0E)
	lv.scaleRound(sc, sc.c1Q, sc.c1E)
	lv.scaleRound(sc, sc.c2Q, sc.c2E)

	// 4. Relinearize and return resident: digit rows once, then each
	// tower accumulates its k digit transforms and adds NTT(c1/c0) to the
	// evaluation-domain accumulators instead of leaving the domain.
	if err := phaseGate(ctx, faultinject.SiteMulRelin); err != nil {
		return err
	}
	if seq {
		for i := 0; i < k; i++ {
			relinDigitRow(sc, i)
		}
		for tau := 0; tau < k; tau++ {
			relinTower(sc, tau, true)
		}
	} else {
		ring.ParallelChunks(k, b.workers, func(start, end int) {
			for i := start; i < end; i++ {
				relinDigitRow(sc, i)
			}
		})
		ring.ParallelChunks(k, b.workers, func(start, end int) {
			for tau := start; tau < end; tau++ {
				relinTower(sc, tau, true)
			}
		})
	}
	return nil
}

// residentOpINTT inverse-transforms one (operand, tower) cell of the
// resident operands into its pooled coefficient row.
func residentOpINTT(sc *rnsMulScratch, u int) {
	k := sc.lv.c.Channels()
	idx, tau := u/k, u%k
	sc.lv.c.Plans[tau].Generic().NegacyclicInverseInto(sc.opQ[idx].Res[tau], sc.in[idx].Res[tau])
}

// residentTensorQ is one Q-base tower of the resident tensor: pointwise
// products of the operands' resident rows, inverse transforms of the
// three results. Squaring doubles a∘b instead of computing the symmetric
// product twice.
func residentTensorQ(sc *rnsMulScratch, tau int) {
	lv := sc.lv
	plan := lv.c.Plans[tau].Generic()
	mod := lv.c.Mods[tau]
	a1, b1 := sc.in[0].Res[tau], sc.in[1].Res[tau]
	a2, b2 := sc.in[2].Res[tau], sc.in[3].Res[tau]
	t0, t1 := sc.evE[0].Res[tau], sc.evE[1].Res[tau]
	plan.PointwiseMulInto(t0, b1, b2)
	plan.NegacyclicInverseInto(sc.c0Q.Res[tau], t0)
	plan.PointwiseMulInto(t0, a1, a2)
	plan.NegacyclicInverseInto(sc.c2Q.Res[tau], t0)
	plan.PointwiseMulInto(t0, a1, b2)
	if sc.squaring {
		addRow(t0, t0, mod) // a1∘b2 == a2∘b1: double instead of recompute
	} else {
		plan.PointwiseMulInto(t1, a2, b1)
		addRow(t0, t1, mod)
	}
	plan.NegacyclicInverseInto(sc.c1Q.Res[tau], t0)
}

// residentTensorExt is one extension-base tower of the resident tensor,
// consuming the base-extended coefficient rows.
func residentTensorExt(sc *rnsMulScratch, tau int) {
	lv := sc.lv
	plan := lv.ext.Plans[tau].Generic()
	mod := lv.ext.Mods[tau]
	var ev [5][]uint64
	for s := range ev {
		ev[s] = sc.evE[s].Res[tau]
	}
	if sc.squaring {
		a, bb := sc.opE[0].Res[tau], sc.opE[1].Res[tau]
		plan.NegacyclicForwardInto(ev[0], a)
		plan.NegacyclicForwardInto(ev[1], bb)
		plan.PointwiseMulInto(ev[2], ev[1], ev[1])
		plan.NegacyclicInverseInto(sc.c0E.Res[tau], ev[2])
		plan.PointwiseMulInto(ev[2], ev[0], ev[0])
		plan.NegacyclicInverseInto(sc.c2E.Res[tau], ev[2])
		plan.PointwiseMulInto(ev[2], ev[0], ev[1])
		addRow(ev[2], ev[2], mod)
		plan.NegacyclicInverseInto(sc.c1E.Res[tau], ev[2])
		return
	}
	tensorTower(plan, mod,
		sc.opE[0].Res[tau], sc.opE[1].Res[tau], sc.opE[2].Res[tau], sc.opE[3].Res[tau],
		&ev, sc.c0E.Res[tau], sc.c1E.Res[tau], sc.c2E.Res[tau])
}

// relinDigitRow scales one tower of c2 into its CRT gadget digit row.
func relinDigitRow(sc *rnsMulScratch, i int) {
	c := sc.lv.c
	c.Plans[i].Generic().ScalarMulInto(sc.zQ.Res[i], sc.c2Q.Res[i], c.QiInv(i))
}

// relinTower accumulates all k gadget digits into one tower of the
// relinearized result, entirely in the evaluation domain, then lands the
// tower's output: resident output adds NTT(c1/c0) to the accumulators
// (NTT(INTT(acc) + c) = acc + NTT(c), exactly); coefficient output
// inverse-transforms the accumulators and adds c1/c0 as PR 5 did. The
// digit rows are canonical mod q_i with q_i < 2*q_tau, and the twist
// pass's Shoup multiply is exact for any 64-bit input, so they feed the
// forward transform directly — the per-pair reduction copy of the
// sequential path is gone.
func relinTower(sc *rnsMulScratch, tau int, resident bool) {
	lv := sc.lv
	c := lv.c
	k := c.Channels()
	plan := c.Plans[tau].Generic()
	mod := c.Mods[tau]
	accA, accB := sc.accA.Res[tau], sc.accB.Res[tau]
	clearRow(accA)
	clearRow(accB)
	lift, prod := sc.liftQ.Res[tau], sc.prodQ.Res[tau]
	if sc.keyNTTDomain && lv.relinLazy && len(sc.lkey.aPre) == k {
		// Deferred-reduction inner product: the key rows are fixed, so
		// each digit contributes one lazy Shoup product (< 2q) folded in
		// with a plain integer add — relinLazy guarantees k of them fit
		// the 64-bit accumulator — and the whole k-digit sum pays a
		// single Barrett reduction per element at the end. Same residues
		// as the canonical multiply-add chain, reduced once. The digit
		// transform and both key-row MACs run as one fused pass
		// (NegacyclicForwardMAC2): the final NTT stage's outputs are
		// accumulated as they are produced instead of being written out
		// and streamed back twice per digit.
		for i := 0; i < k; i++ {
			ring.NegacyclicForwardMAC2(plan, accA, accB, sc.zQ.Res[i],
				sc.lkey.a[i].Res[tau], sc.lkey.aPre[i].Res[tau],
				sc.lkey.b[i].Res[tau], sc.lkey.bPre[i].Res[tau])
		}
		if resident {
			plan.NegacyclicForwardInto(sc.outA.Res[tau], sc.c1Q.Res[tau])
			reduceAddRow(sc.outA.Res[tau], accA, mod)
			plan.NegacyclicForwardInto(sc.outB.Res[tau], sc.c0Q.Res[tau])
			reduceAddRow(sc.outB.Res[tau], accB, mod)
			return
		}
		// The inverse transform wants its relaxed domain (< 2q), not a
		// raw 64-bit sum: land the accumulators first.
		reduceRow(accA, mod)
		reduceRow(accB, mod)
		plan.NegacyclicInverseInto(sc.outA.Res[tau], accA)
		addRow(sc.outA.Res[tau], sc.c1Q.Res[tau], mod)
		plan.NegacyclicInverseInto(sc.outB.Res[tau], accB)
		addRow(sc.outB.Res[tau], sc.c0Q.Res[tau], mod)
		return
	}
	for i := 0; i < k; i++ {
		plan.NegacyclicForwardInto(lift, sc.zQ.Res[i])
		krowA, krowB := sc.lkey.a[i].Res[tau], sc.lkey.b[i].Res[tau]
		if !sc.keyNTTDomain {
			plan.NegacyclicForwardInto(sc.evE[2].Res[tau], krowA)
			plan.NegacyclicForwardInto(sc.evE[3].Res[tau], krowB)
			krowA, krowB = sc.evE[2].Res[tau], sc.evE[3].Res[tau]
		}
		plan.PointwiseMulInto(prod, lift, krowA)
		addRow(accA, prod, mod)
		plan.PointwiseMulInto(prod, lift, krowB)
		addRow(accB, prod, mod)
	}
	if resident {
		plan.NegacyclicForwardInto(sc.outA.Res[tau], sc.c1Q.Res[tau])
		addRow(sc.outA.Res[tau], accA, mod)
		plan.NegacyclicForwardInto(sc.outB.Res[tau], sc.c0Q.Res[tau])
		addRow(sc.outB.Res[tau], accB, mod)
		return
	}
	plan.NegacyclicInverseInto(sc.outA.Res[tau], accA)
	addRow(sc.outA.Res[tau], sc.c1Q.Res[tau], mod)
	plan.NegacyclicInverseInto(sc.outB.Res[tau], accB)
	addRow(sc.outB.Res[tau], sc.c0Q.Res[tau], mod)
}

// mulPreAddRow folds one lazy Shoup product row into a raw 64-bit
// accumulator row: acc[j] += a[j]*w[j] - floor(a[j]*pre[j]/2^64)*q, each
// summand < 2q and congruent to a[j]*w[j] mod q for any 64-bit a[j].
// Callers guarantee the no-wrap headroom (rnsLevel.relinLazy).
//
//mqx:hotpath
//mqx:lazy wide=a,acc
func mulPreAddRow(acc, a, w, pre []uint64, q uint64) {
	a = a[:len(acc)]
	w = w[:len(acc)]
	pre = pre[:len(acc)]
	for j := range acc {
		qhat, _ := bits.Mul64(a[j], pre[j])
		acc[j] += a[j]*w[j] - qhat*q
	}
}

// reduceAddRow lands a lazy accumulator row on a canonical row:
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

// reduceRow reduces a lazy accumulator row in place to canonical form.
func reduceRow(acc []uint64, mod *modmath.Modulus64) {
	q, mu, nb := mod.Q, mod.Mu, mod.N
	for j := range acc {
		acc[j] = modmath.Barrett64Reduce(0, acc[j], q, mu, nb)
	}
}

// coeffTensorQ is one Q-base tower of the coefficient-domain tensor on
// per-tower-disjoint scratch (the parallel dispatch variant).
func coeffTensorQ(sc *rnsMulScratch, tau int) {
	lv := sc.lv
	var ev [5][]uint64
	for s := range ev {
		ev[s] = sc.evE[s].Res[tau]
	}
	tensorTower(lv.c.Plans[tau].Generic(), lv.c.Mods[tau],
		sc.in[0].Res[tau], sc.in[1].Res[tau], sc.in[2].Res[tau], sc.in[3].Res[tau],
		&ev, sc.c0Q.Res[tau], sc.c1Q.Res[tau], sc.c2Q.Res[tau])
}

// coeffTensorExt is one extension-base tower of the same.
func coeffTensorExt(sc *rnsMulScratch, tau int) {
	lv := sc.lv
	var ev [5][]uint64
	for s := range ev {
		ev[s] = sc.evE[s].Res[tau]
	}
	tensorTower(lv.ext.Plans[tau].Generic(), lv.ext.Mods[tau],
		sc.opE[0].Res[tau], sc.opE[1].Res[tau], sc.opE[2].Res[tau], sc.opE[3].Res[tau],
		&ev, sc.c0E.Res[tau], sc.c1E.Res[tau], sc.c2E.Res[tau])
}

// ModSwitch drops one tower: dst = round(ct / q_{k-1-l}) via the PR 4
// Rescaler, residues only, allocation-free in steady state — the RNS
// half of the ladder the oracle's big-integer switch ground-truths.
func (b *rnsBackend) ModSwitch(dst *BackendCiphertext, ct BackendCiphertext) error {
	return b.ModSwitchCtx(context.Background(), dst, ct)
}

// ModSwitchCtx is ModSwitch with the DeadlineBackend contract: ctx is
// observed before the rescale starts and between the two components.
func (b *rnsBackend) ModSwitchCtx(ctx context.Context, dst *BackendCiphertext, ct BackendCiphertext) error {
	if ct.Level < 0 || ct.Level+1 >= len(b.levels) {
		return fmt.Errorf("fhe: cannot switch below level %d of a %d-level chain", ct.Level, len(b.levels))
	}
	if dst.Level != ct.Level+1 {
		return fmt.Errorf("fhe: ModSwitch destination at level %d, want %d", dst.Level, ct.Level+1)
	}
	if dst.Domain != ct.Domain {
		return fmt.Errorf("fhe: ModSwitch domain mismatch: %s -> %s", ct.Domain, dst.Domain)
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
	if ct.Domain == DomainNTT {
		// Resident rescale: one inverse transform (the dropped tower)
		// plus k-1 forward transforms of the correction term, instead of
		// crossing the whole ciphertext out of the evaluation domain and
		// back.
		if err := r.RescaleNTTInto(dstA, srcA, b.workers); err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		return r.RescaleNTTInto(dstB, srcB, b.workers)
	}
	if err := r.RescaleInto(dstA, srcA); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return r.RescaleInto(dstB, srcB)
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
