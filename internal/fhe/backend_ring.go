package fhe

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"sync"

	"mqxgo/internal/faultinject"
	"mqxgo/internal/modmath"
	"mqxgo/internal/ntt"
	"mqxgo/internal/ring"
	"mqxgo/internal/rns"
	"mqxgo/internal/u128"
)

// ringBackend runs the scheme on the library's primary configuration:
// 128-bit double-word rings with the Barrett-multiplied 128-bit NTT. Its
// Poly handles are plain []u128.U128.
//
// For homomorphic multiplication this backend is the exactness oracle the
// differential harness trusts: the ciphertext tensor product is computed
// over the integers (a CRT tower convolution wide enough that no
// coefficient wraps) and the T/q rescale is exact big-integer
// round-half-up, so the only approximations anywhere are the ones the
// scheme itself defines. The same philosophy extends to the modulus
// ladder: the chain is a sequence of shrinking 128-bit NTT primes
// q_0 > q_1 > ..., and ModSwitch is the exact big-integer
// round(c * q_{l+1} / q_l) — the ground truth the RNS Rescaler path is
// differentially tested against. It allocates freely on those paths; the
// RNS backend is the performance configuration.
type ringBackend struct {
	p      *Params
	levels []*ringLevel

	// wide is the integer-convolution engine for MulCt, built on first
	// use: enough 59-bit NTT towers that negacyclic products of two
	// level-0 ring elements are exact over the integers (and a fortiori
	// of any lower level's).
	wideOnce sync.Once
	wide     *rns.Context
	wideErr  error
	tBig     *big.Int
}

// ringLevel is one rung of the oracle's modulus ladder.
type ringLevel struct {
	mod       *modmath.Modulus128
	plan      *ntt.Plan
	qBig      *big.Int
	halfQ     *big.Int  // floor(q_l / 2), rescale rounding and centering
	delta     u128.U128 // floor(q_l / T)
	deltaBits int
	digits    int      // relin gadget digits at this level
	vBound    *big.Int // 2*n*q_l^2: the largest centered tensor coefficient
	//                    a well-formed multiply can produce at this level
}

// Oracle ladder geometry: each level drops oracleLevelDropBits from the
// modulus, and the chain stops before Delta falls under
// oracleMinDeltaBits (no point switching to a level that cannot decrypt).
const (
	oracleLevelDropBits = 28
	oracleMinDeltaBits  = 20
)

// NewRingBackend wraps ring parameters as a Backend. Level 0 is exactly
// p's modulus; lower levels are found deterministically (the largest NTT
// prime of each shrinking width), so every backend over the same
// parameters sees the same ladder.
func NewRingBackend(p *Params) Backend {
	b := &ringBackend{p: p}
	b.levels = append(b.levels, newRingLevel(p.Mod, p.plan, p.T))
	bits := p.Mod.Q.BitLen()
	for {
		bits -= oracleLevelDropBits
		mod, plan, ok := findRingLevel(bits, p.N)
		if !ok {
			break
		}
		lv := newRingLevel(mod, plan, p.T)
		if lv.deltaBits < oracleMinDeltaBits {
			break
		}
		b.levels = append(b.levels, lv)
	}
	return b
}

func newRingLevel(mod *modmath.Modulus128, plan *ntt.Plan, t uint64) *ringLevel {
	qBig := mod.Q.ToBig()
	delta, _ := mod.Q.DivMod64(t)
	n := int64(plan.N)
	vBound := new(big.Int).Mul(qBig, qBig)
	vBound.Mul(vBound, big.NewInt(2*n))
	return &ringLevel{
		mod:       mod,
		plan:      plan,
		qBig:      qBig,
		halfQ:     new(big.Int).Rsh(qBig, 1),
		delta:     delta,
		deltaBits: delta.BitLen(),
		digits:    (mod.Q.BitLen() + oracleDigitBits - 1) / oracleDigitBits,
		vBound:    vBound,
	}
}

// findRingLevel locates the deterministic NTT prime and plan for one
// ladder rung; a failed search (width too small for the transform order)
// just ends the chain.
func findRingLevel(bits, n int) (*modmath.Modulus128, *ntt.Plan, bool) {
	q, err := modmath.FindNTTPrime128(bits, uint64(2*n))
	if err != nil {
		return nil, nil, false
	}
	mod, err := modmath.NewModulus128(q)
	if err != nil {
		return nil, nil, false
	}
	plan, err := ntt.CachedPlan(mod, n)
	if err != nil {
		return nil, nil, false
	}
	return mod, plan, true
}

func (b *ringBackend) Name() string         { return "u128" }
func (b *ringBackend) N() int               { return b.p.N }
func (b *ringBackend) PlainModulus() uint64 { return b.p.T }
func (b *ringBackend) Levels() int          { return len(b.levels) }
func (b *ringBackend) NewPolyAt(int) Poly   { return make([]u128.U128, b.p.N) }

func (b *ringBackend) Copy(a Poly) Poly {
	return append([]u128.U128(nil), a.([]u128.U128)...)
}

// CheckPoly validates one handle: backend type, shape, and residues
// reduced below the level modulus.
func (b *ringBackend) CheckPoly(level int, a Poly) error {
	x, ok := a.([]u128.U128)
	if !ok {
		return fmt.Errorf("fhe: foreign polynomial handle %T on the %s backend", a, b.Name())
	}
	if len(x) != b.p.N {
		return fmt.Errorf("fhe: polynomial length %d != N %d", len(x), b.p.N)
	}
	q := b.levels[level].mod.Q
	for i := range x {
		if !x[i].Less(q) {
			return fmt.Errorf("fhe: coefficient %d not reduced mod the level-%d modulus", i, level)
		}
	}
	return nil
}

func (b *ringBackend) checkDst(dst *BackendCiphertext) error {
	_, _, err := b.dstRows(dst)
	return err
}

// dstRows unpacks the destination an evaluation writes: this backend's
// handles, N long. Its residues are about to be overwritten, so they are
// not scanned.
func (b *ringBackend) dstRows(dst *BackendCiphertext) (dstA, dstB []u128.U128, err error) {
	dstA, okA := dst.A.([]u128.U128)
	dstB, okB := dst.B.([]u128.U128)
	if !okA || !okB || len(dstA) != b.p.N || len(dstB) != b.p.N {
		return nil, nil, fmt.Errorf("fhe: malformed destination on the %s backend", b.Name())
	}
	return dstA, dstB, nil
}

func (b *ringBackend) Add(level int, dst, a, c Poly) {
	mod := b.levels[level].mod
	d, x, y := dst.([]u128.U128), a.([]u128.U128), c.([]u128.U128)
	for i := range d {
		d[i] = mod.Add(x[i], y[i])
	}
}

func (b *ringBackend) Sub(level int, dst, a, c Poly) {
	mod := b.levels[level].mod
	d, x, y := dst.([]u128.U128), a.([]u128.U128), c.([]u128.U128)
	for i := range d {
		d[i] = mod.Sub(x[i], y[i])
	}
}

func (b *ringBackend) ToNTT(level int, dst, a Poly) {
	b.levels[level].plan.NegacyclicForwardInto(dst.([]u128.U128), a.([]u128.U128))
}

func (b *ringBackend) ToCoeff(level int, dst, a Poly) {
	b.levels[level].plan.NegacyclicInverseInto(dst.([]u128.U128), a.([]u128.U128))
}

func (b *ringBackend) PMul(level int, dst, a, c Poly) {
	b.levels[level].plan.PointwiseMulInto(dst.([]u128.U128), a.([]u128.U128), c.([]u128.U128))
}

func (b *ringBackend) SampleUniform(dst Poly, rng *rand.Rand) {
	b.sampleUniformAt(0, dst.([]u128.U128), rng)
}

func (b *ringBackend) SetSigned(dst Poly, coeffs []int64) {
	b.setSignedAt(0, dst.([]u128.U128), coeffs)
}

// SecretAt re-encodes a small signed polynomial from the level-0 modulus
// to a lower level's: values above q_0/2 are the negative coefficients
// and wrap to q_l - |e|.
func (b *ringBackend) SecretAt(level int, s Poly) Poly {
	if level == 0 {
		return s
	}
	src := s.([]u128.U128)
	lv := b.levels[level]
	halfU := b.p.Mod.Q.Rsh(1)
	out := make([]u128.U128, len(src))
	for i, v := range src {
		if v.LessEq(halfU) {
			out[i] = v.Mod(lv.mod.Q)
		} else {
			out[i] = lv.mod.Neg(b.p.Mod.Q.Sub(v).Mod(lv.mod.Q))
		}
	}
	return out
}

// AddDeltaMsg folds Delta_l-scaled plaintext into a ciphertext component
// on the level plan's scale-accumulate kernel.
func (b *ringBackend) AddDeltaMsg(level int, dst, a Poly, msg []uint64) {
	lv := b.levels[level]
	lv.plan.ScaleAddInto(dst.([]u128.U128), a.([]u128.U128), msg, lv.delta)
}

func (b *ringBackend) RoundToPlain(level int, a Poly) []uint64 {
	lv := b.levels[level]
	x := a.([]u128.U128)
	out := make([]uint64, b.p.N)
	half, _ := lv.delta.DivMod64(2)
	for i := range x {
		// Round to the nearest multiple of Delta_l.
		q, _ := x[i].Add(half).DivMod(lv.delta)
		out[i] = q.Lo % b.p.T
	}
	return out
}

func (b *ringBackend) DeltaBits(level int) int { return b.levels[level].deltaBits }

func (b *ringBackend) NoiseBits(level int, a Poly, msg []uint64) int {
	lv := b.levels[level]
	mod := lv.mod
	x := a.([]u128.U128)
	halfQ := mod.Q.Rsh(1)
	maxNoise := u128.Zero
	for i := range x {
		noise := mod.Sub(x[i], mod.Mul(lv.delta, u128.From64(msg[i]%b.p.T)))
		// Centered magnitude.
		if halfQ.Less(noise) {
			noise = mod.Q.Sub(noise)
		}
		if maxNoise.Less(noise) {
			maxNoise = noise
		}
	}
	return maxNoise.BitLen()
}

// oracleDigitBits is the relinearization gadget radix: c2 decomposes into
// digits below 2^31, keeping relin noise around n*2^31*noiseBound — far
// under Delta for any plaintext modulus this scheme accepts.
const oracleDigitBits = 31

// ringLevelKey is one level of the oracle's relin key or of one Galois
// entry: gadget encryptions of 2^(31d) * target with both components
// stored in that level's twisted-evaluation domain, so a key switch costs
// one forward transform per digit plus two inverse transforms total at
// whichever level it runs.
type ringLevelKey struct {
	ahat, bhat [][]u128.U128
}

// checkKey validates a key entry against this level: a key of the right
// TYPE can still come from a backend over other parameters (digit count,
// row length).
func (lv *ringLevel) checkKey(what string, lk *ringLevelKey, n int) error {
	if len(lk.ahat) != lv.digits || len(lk.bhat) != lv.digits {
		return fmt.Errorf("fhe: %s key has %d digits, want %d", what, len(lk.ahat), lv.digits)
	}
	for d := range lk.ahat {
		if len(lk.ahat[d]) != n || len(lk.bhat[d]) != n {
			return fmt.Errorf("fhe: %s key digit %d shaped for another backend", what, d)
		}
	}
	return nil
}

// accumulate is the key-switch inner product relinearization and every
// Galois hop share: z (coefficient form, reduced mod q_l) splits into
// 2^31-radix digits z_d, and each digit forward-transforms and multiplies
// the key rows pointwise, so the results are sum_d NTT(z_d) ∘ ahat_d and
// sum_d NTT(z_d) ∘ bhat_d in the level's evaluation domain.
func (lk *ringLevelKey) accumulate(lv *ringLevel, z []u128.U128) (accA, accB []u128.U128) {
	n := len(z)
	mod := lv.mod
	accA = make([]u128.U128, n)
	accB = make([]u128.U128, n)
	zd := make([]u128.U128, n)
	zhat := make([]u128.U128, n)
	prod := make([]u128.U128, n)
	for d := range lk.ahat {
		shift := uint(oracleDigitBits * d)
		for j := range zd {
			zd[j] = u128.From64(z[j].Rsh(shift).Lo & (1<<oracleDigitBits - 1))
		}
		lv.plan.NegacyclicForwardInto(zhat, zd)
		lv.plan.PointwiseMulInto(prod, zhat, lk.ahat[d])
		for j := range accA {
			accA[j] = mod.Add(accA[j], prod[j])
		}
		lv.plan.PointwiseMulInto(prod, zhat, lk.bhat[d])
		for j := range accB {
			accB[j] = mod.Add(accB[j], prod[j])
		}
	}
	return accA, accB
}

// wideCtx returns the integer-convolution tower basis, built on first
// use: the product of the towers exceeds 4*n*q_0^2, so signed negacyclic
// product coefficients (magnitude < n*q_l^2 at any level, doubled once
// for the c1 sum) reconstruct exactly. It panics if the basis cannot be
// built, which for any ring the 128-bit plan itself supports cannot
// happen.
func (b *ringBackend) wideCtx() *rns.Context {
	b.wideOnce.Do(func() {
		need := 2*b.p.Mod.Q.BitLen() + b.p.plan.M + 3
		count := (need + 57) / 58 // 59-bit primes carry at least 58 bits each
		b.wide, b.wideErr = rns.NewContext(59, count, b.p.N)
		b.tBig = new(big.Int).SetUint64(b.p.T)
	})
	if b.wideErr != nil {
		panic(fmt.Sprintf("fhe: oracle wide basis: %v", b.wideErr))
	}
	return b.wide
}

// gadgetKeyLevel builds one level's 2^31-gadget encryption of target
// under sk, both in coefficient form at the level's modulus: for each
// digit position d, (a_d, a_d*sk + e_d + 2^(31d)*target) with both rows
// forward-transformed under the level's plan. Per digit the generator
// draws a_d, then e_d — the order every seeded key depends on.
func (b *ringBackend) gadgetKeyLevel(level int, sk, target []u128.U128, rng *rand.Rand) ringLevelKey {
	lv := b.levels[level]
	n := b.p.N
	noise := make([]int64, n)
	e := make([]u128.U128, n)
	tmp := make([]u128.U128, n)
	lk := ringLevelKey{}
	for d := 0; d < lv.digits; d++ {
		a := make([]u128.U128, n)
		b.sampleUniformAt(level, a, rng)
		for i := range noise {
			noise[i] = int64(rng.Intn(2*noiseBound+1) - noiseBound)
		}
		b.setSignedAt(level, e, noise)
		bb := make([]u128.U128, n)
		lv.plan.PolyMulNegacyclicInto(bb, a, sk) // a_d * s
		b.Add(level, bb, bb, e)                  // + e_d
		lv.plan.ScalarMulInto(tmp, target, u128.One.Lsh(uint(oracleDigitBits*d)).Mod(lv.mod.Q))
		b.Add(level, bb, bb, tmp) // + 2^(31d) * target
		lv.plan.NegacyclicForwardInto(a, a)
		lv.plan.NegacyclicForwardInto(bb, bb)
		lk.ahat = append(lk.ahat, a)
		lk.bhat = append(lk.bhat, bb)
	}
	return lk
}

// RelinKeyGen builds the 2^31-gadget relinearization key at every ladder
// level: gadget encryptions of s^2 under the level's modulus.
func (b *ringBackend) RelinKeyGen(s Poly, rng *rand.Rand) BackendRelinKey {
	key := &relinKey[ringLevelKey]{}
	for l, lv := range b.levels {
		sk := b.SecretAt(l, s).([]u128.U128)
		s2 := make([]u128.U128, b.p.N)
		lv.plan.PolyMulNegacyclicInto(s2, sk, sk)
		key.levels = append(key.levels, b.gadgetKeyLevel(l, sk, s2, rng))
	}
	return key
}

func (b *ringBackend) sampleUniformAt(level int, dst []u128.U128, rng *rand.Rand) {
	q := b.levels[level].mod.Q
	for i := range dst {
		dst[i] = u128.New(rng.Uint64(), rng.Uint64()).Mod(q)
	}
}

func (b *ringBackend) setSignedAt(level int, dst []u128.U128, coeffs []int64) {
	mod := b.levels[level].mod
	for i, e := range coeffs {
		if e >= 0 {
			dst[i] = u128.From64(uint64(e))
		} else {
			dst[i] = mod.Neg(u128.From64(uint64(-e)))
		}
	}
}

// liftInto lifts u128 residues into big.Int coefficients, reusing dst's
// entries.
func liftInto(dst []*big.Int, src []u128.U128, t *big.Int) {
	for i, v := range src {
		if dst[i] == nil {
			dst[i] = new(big.Int)
		}
		dst[i].SetUint64(v.Hi)
		dst[i].Lsh(dst[i], 64)
		dst[i].Or(dst[i], t.SetUint64(v.Lo))
	}
}

// scaleRoundInto applies the exact BFV rescale to a reconstructed signed
// tensor component: out = round(T*v/q_l) mod q_l per coefficient, where v
// is centered by wideQ. This is the oracle's defining step — big-integer
// round-half-up, no approximation. A centered tensor coefficient larger
// than the level's vBound cannot come from reduced operands: the wide
// basis has wrapped, and the rescale would silently decrypt garbage. The
// scheme's residue check refuses unreduced operands before any backend
// runs, so this error is a backstop, not a path.
func (b *ringBackend) scaleRoundInto(lv *ringLevel, out []u128.U128, coeffs []*big.Int, wideQ, halfWideQ *big.Int) error {
	for i, v := range coeffs {
		if v.Cmp(halfWideQ) > 0 {
			v.Sub(v, wideQ)
		}
		if v.CmpAbs(lv.vBound) > 0 {
			return fmt.Errorf("fhe: oracle rescale out of range at coefficient %d (tensor exceeded the wide basis; unreduced ciphertext input?)", i)
		}
		v.Mul(v, b.tBig)
		v.Add(v, lv.halfQ)
		v.Div(v, lv.qBig) // Euclidean: floor for the positive modulus
		v.Mod(v, lv.qBig)
		x, ok := u128.FromBig(v)
		if !ok {
			return fmt.Errorf("fhe: oracle rescale out of range at coefficient %d", i)
		}
		out[i] = x
	}
	return nil
}

// mulCtx is the oracle homomorphic multiply at the operands' level:
// exact integer tensor product via the wide CRT basis, exact big-int
// rescale by T/q_l, then 2^31-gadget relinearization with the level's
// keys. ctx is observed at the same four phase boundaries as the RNS
// pipeline (lift/decompose, integer tensor, exact rescale,
// relinearization). The operands cross to coefficient form at entry and
// the result crosses back at exit: the integer tensor is defined on
// positional coefficients, and exactness — not transform count — is this
// backend's contract.
func (b *ringBackend) mulCtx(ctx context.Context, dst *BackendCiphertext, ct1, ct2 BackendCiphertext, rlk BackendRelinKey) error {
	lv := b.levels[ct1.Level]
	n := b.p.N
	lkey, err := relinKeyAt[ringLevelKey](rlk, b, ct1.Level)
	if err != nil {
		return err
	}
	if err := lv.checkKey("relin", lkey, n); err != nil {
		return err
	}
	dstA, dstB, err := b.dstRows(dst)
	if err != nil {
		return err
	}
	w := b.wideCtx()

	// Cross each component to coefficient form, lift it, and decompose it
	// into the wide basis.
	if err := phaseGate(ctx, faultinject.SiteMulExtend); err != nil {
		return err
	}
	coeffs := make([]*big.Int, n)
	t := new(big.Int)
	coef := make([]u128.U128, n)
	var wp [4]rns.Poly
	for i, op := range [4]Poly{ct1.A, ct1.B, ct2.A, ct2.B} {
		lv.plan.NegacyclicInverseInto(coef, op.([]u128.U128))
		liftInto(coeffs, coef, t)
		wp[i] = w.NewPoly()
		must(w.DecomposeInto(wp[i], coeffs))
	}
	a1, b1, a2, b2 := wp[0], wp[1], wp[2], wp[3]

	// Integer tensor product: c0 = b1*b2, c1 = a1*b2 + a2*b1, c2 = a1*a2,
	// every product an exact negacyclic convolution (no tower wraps).
	if err := phaseGate(ctx, faultinject.SiteMulTensor); err != nil {
		return err
	}
	c0, c1, c2, tmp := w.NewPoly(), w.NewPoly(), w.NewPoly(), w.NewPoly()
	must(w.MulAll(c0, b1, b2))
	must(w.MulAll(c1, a1, b2))
	must(w.MulAll(tmp, a2, b1))
	must(w.AddInto(c1, c1, tmp))
	must(w.MulAll(c2, a1, a2))

	if err := phaseGate(ctx, faultinject.SiteMulScale); err != nil {
		return err
	}
	halfWideQ := new(big.Int).Rsh(w.Q, 1)
	r0 := make([]u128.U128, n)
	r1 := make([]u128.U128, n)
	r2 := make([]u128.U128, n)
	for _, pair := range []struct {
		src rns.Poly
		out []u128.U128
	}{{c0, r0}, {c1, r1}, {c2, r2}} {
		must(w.ReconstructInto(coeffs, pair.src))
		if err := b.scaleRoundInto(lv, pair.out, coeffs, w.Q, halfWideQ); err != nil {
			return err
		}
	}

	// Relinearize: digit-decompose r2 and fold the gadget encryptions of
	// s^2 in the evaluation domain.
	if err := phaseGate(ctx, faultinject.SiteMulRelin); err != nil {
		return err
	}
	accA, accB := lkey.accumulate(lv, r2)
	// The rescaled components cross back and join the accumulators in the
	// evaluation domain: NTT(INTT(acc) + r) = acc + NTT(r) exactly.
	lv.plan.NegacyclicForwardInto(dstA, r1)
	lv.plan.NegacyclicForwardInto(dstB, r0)
	for j := range dstA {
		dstA[j] = lv.mod.Add(accA[j], dstA[j])
		dstB[j] = lv.mod.Add(accB[j], dstB[j])
	}
	return nil
}

// GaloisKeyGen builds the oracle's Galois keys, mirroring the RNS
// backend's exactly: RelinKeyGen with tau_g(s) in place of s^2 for each
// covered element, 2^31-gadget encryptions per level in the level's
// evaluation domain. The automorphism is applied to the level's
// re-encoded secret (SecretAt changes the modulus, and tau commutes with
// the re-encoding coefficient-wise).
func (b *ringBackend) GaloisKeyGen(s Poly, rng *rand.Rand) BackendGaloisKey {
	n := b.p.N
	return newGaloisKey(n, func(tab *ring.GaloisTables) []ringLevelKey {
		var levels []ringLevelKey
		for l, lv := range b.levels {
			sk := b.SecretAt(l, s).([]u128.U128)
			tauS := make([]u128.U128, n)
			lv.plan.AutomorphismCoeffInto(tab, tauS, sk)
			levels = append(levels, b.gadgetKeyLevel(l, sk, tauS, rng))
		}
		return levels
	})
}

// galoisCtx runs the oracle's hop sequence. Like the oracle's multiply,
// every hop crosses to coefficient form and runs the automorphism on
// positional coefficients — an independent check of the RNS backend's
// evaluation-domain permutation — and allocates freely; the RNS backend
// is the performance configuration.
func (b *ringBackend) galoisCtx(ctx context.Context, dst *BackendCiphertext, ct BackendCiphertext, hops galoisHops, gk BackendGaloisKey) error {
	n := b.p.N
	lv := b.levels[ct.Level]
	var steps [maxGaloisHops]galoisStep[ringLevelKey]
	if err := resolveGalois(gk, b, &hops, ct.Level, &steps); err != nil {
		return err
	}
	for _, st := range steps[:hops.n] {
		if err := lv.checkKey("galois", st.key, n); err != nil {
			return err
		}
	}
	srcA, srcB := ct.A.([]u128.U128), ct.B.([]u128.U128)
	dstA, dstB, err := b.dstRows(dst)
	if err != nil {
		return err
	}
	// Every handle is N long, so same storage is same first element.
	for _, d := range [2]*u128.U128{&dstA[0], &dstB[0]} {
		if d == &srcA[0] || d == &srcB[0] {
			return fmt.Errorf("fhe: rotate destination aliases the source ciphertext")
		}
	}
	if hops.n == 0 {
		copy(dstA, srcA)
		copy(dstB, srcB)
		return nil
	}
	hopA, hopB := srcA, srcB
	for h, st := range steps[:hops.n] {
		if err := phaseGate(ctx, faultinject.SiteRotate); err != nil {
			return err
		}
		outA, outB := dstA, dstB
		if h != hops.n-1 {
			outA = make([]u128.U128, n)
			outB = make([]u128.U128, n)
		}
		b.galoisHop(lv, st.key, st.tab, outA, outB, hopA, hopB)
		hopA, hopB = outA, outB
	}
	return nil
}

// galoisHop applies one automorphism + 2^31-gadget key switch:
// (A', B') = (-sum_d zhat_d ∘ ahat_d, NTT(tau(B)) - sum_d zhat_d ∘ bhat_d)
// where the z_d are the gadget digits of tau(A), with tau applied in
// coefficient form. The key's b rows encrypt tau_g(s) under s, so
// B' - A'*s = tau(B) - tau(A)*tau(s) plus the digit noise.
func (b *ringBackend) galoisHop(lv *ringLevel, lkey *ringLevelKey, tab *ring.GaloisTables, outA, outB, srcA, srcB []u128.U128) {
	n := b.p.N
	coef := make([]u128.U128, n)
	tauA := make([]u128.U128, n)
	tauB := make([]u128.U128, n)
	lv.plan.NegacyclicInverseInto(coef, srcA)
	lv.plan.AutomorphismCoeffInto(tab, tauA, coef)
	lv.plan.NegacyclicInverseInto(coef, srcB)
	lv.plan.AutomorphismCoeffInto(tab, tauB, coef)
	accA, accB := lkey.accumulate(lv, tauA)
	for j := range outA {
		outA[j] = lv.mod.Neg(accA[j])
	}
	lv.plan.NegacyclicForwardInto(outB, tauB)
	for j := range outB {
		outB[j] = lv.mod.Sub(outB[j], accB[j])
	}
}

// modSwitchCtx is the oracle's exact modulus switch: every coefficient
// moves from level l to l+1 as the big-integer round(c * q_{l+1} / q_l) of
// its centered value — the bit-exactness ground truth the RNS Rescaler
// path is differentially tested against. Each component crosses to
// coefficient form for the big-integer rescale and back under the NEW
// level's plan (the twiddle tower changes with q). ctx is observed before
// the switch starts and between the two components.
func (b *ringBackend) modSwitchCtx(ctx context.Context, dst *BackendCiphertext, ct BackendCiphertext) error {
	dstA, dstB, err := b.dstRows(dst)
	if err != nil {
		return err
	}
	if err := phaseGate(ctx, faultinject.SiteModSwitch); err != nil {
		return err
	}
	from, to := b.levels[ct.Level], b.levels[ct.Level+1]
	coef := make([]u128.U128, b.p.N)
	for i, pair := range [2][2][]u128.U128{{ct.A.([]u128.U128), dstA}, {ct.B.([]u128.U128), dstB}} {
		if i > 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		src, out := pair[0], pair[1]
		from.plan.NegacyclicInverseInto(coef, src)
		v := new(big.Int)
		t := new(big.Int)
		for j := range coef {
			liftOne(v, coef[j], t)
			if v.Cmp(from.halfQ) > 0 { // center mod q_l
				v.Sub(v, from.qBig)
			}
			v.Mul(v, to.qBig)
			v.Add(v, from.halfQ)
			v.Div(v, from.qBig) // Euclidean floor: round-half-up of the quotient
			v.Mod(v, to.qBig)
			x, ok := u128.FromBig(v)
			if !ok {
				return fmt.Errorf("fhe: ModSwitch result out of range at coefficient %d", j)
			}
			out[j] = x
		}
		to.plan.NegacyclicForwardInto(out, out)
	}
	return nil
}

func liftOne(dst *big.Int, v u128.U128, t *big.Int) {
	dst.SetUint64(v.Hi)
	dst.Lsh(dst, 64)
	dst.Or(dst, t.SetUint64(v.Lo))
}

// MulNoiseModel exposes the MulNoiseBoundBits parameters of the oracle
// pipeline at a level: the 2^31 gadget digits of the relin key, and zero
// operand overshoot (the integer tensor is exact).
func (b *ringBackend) MulNoiseModel(level int) (digits, digitBits, overshoot int) {
	return b.levels[level].digits, oracleDigitBits, 0
}
