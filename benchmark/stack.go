package main

// stack.go is the only file of the benchmark that imports the system
// under test. Everything else reaches the five layers through the types
// and functions declared here, so a change to the stack's API is a change
// to this file alone. The FHE workloads stay on the surface ROADMAP item 3
// keeps: rns.NewContext, fhe.NewRNSBackend, fhe.NewBackendScheme, the
// ...Ctx evaluation methods, Encrypt/Decrypt/EncodeSlots/DecodeSlots and
// serve.New/Handler/Drain. The probes below them call each lower layer's
// public functions directly, at the workloads' shape.

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"net/http"
	"runtime"

	"mqxgo/internal/blas"
	"mqxgo/internal/core"
	"mqxgo/internal/fhe"
	"mqxgo/internal/isa"
	"mqxgo/internal/modmath"
	"mqxgo/internal/ntt"
	"mqxgo/internal/perfmodel"
	"mqxgo/internal/ring"
	"mqxgo/internal/rns"
	"mqxgo/internal/serve"
	"mqxgo/internal/u128"
)

// shape is the size every workload and probe runs at.
type shape struct {
	n      int    // FHE ring degree
	levels int    // RNS towers, one modulus-ladder level each
	t      uint64 // plaintext modulus; 2n | t-1 so slots pack
	kernN  int    // size of the 128-bit kernels
}

const (
	primeBits  = 59 // bits per tower prime, cmd/fheserver's default
	schemeSeed = 1  // scheme and key rng seed, fixed apart from -seed
)

var (
	fullShape  = shape{n: 4096, levels: 4, t: 40961, kernN: 1 << 14}
	smokeShape = shape{n: 256, levels: 4, t: 40961, kernN: 256}
)

type (
	ciphertext = fhe.BackendCiphertext
	word128    = u128.U128
)

// resetPlanCaches drops the process-wide transform plans, so that a
// repeated set-up builds them again.
func resetPlanCaches() { ntt.ResetPlanCaches() }

// newScheme builds the RNS backend as its constructor defaults. The
// constructor sizes its tower dispatch from GOMAXPROCS, so procs > 0
// builds it as a process of that many CPUs would; cmd/fheserver's default
// (-tower-workers 1) is procs == 1.
func newScheme(sh shape, procs int) (*fhe.BackendScheme, error) {
	if procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	}
	c, err := rns.NewContext(primeBits, sh.levels, sh.n)
	if err != nil {
		return nil, fmt.Errorf("rns context: %w", err)
	}
	b, err := fhe.NewRNSBackend(c, sh.t)
	if err != nil {
		return nil, fmt.Errorf("rns backend: %w", err)
	}
	return fhe.NewBackendScheme(b, schemeSeed), nil
}

// fheStack is a keyed scheme. Each method is one call into the fhe layer
// and records one span.
type fheStack struct {
	sh     shape
	ctx    context.Context
	scheme *fhe.BackendScheme
	sk     fhe.BackendSecretKey
	rlk    fhe.BackendRelinKey
	gk     fhe.BackendGaloisKey
}

func newFHEStack(sh shape, procs int) (*fheStack, error) {
	s, err := newScheme(sh, procs)
	if err != nil {
		return nil, err
	}
	f := &fheStack{sh: sh, ctx: context.Background(), scheme: s}
	return f, f.keygen()
}

// keygen draws the secret, relinearisation and Galois keys, as a serve
// tenant's registration does.
func (f *fheStack) keygen() error {
	var err error
	f.sk = f.scheme.KeyGen()
	if f.rlk, err = f.scheme.RelinKeyGen(f.sk); err != nil {
		return fmt.Errorf("relin keygen: %w", err)
	}
	if f.gk, err = f.scheme.GaloisKeyGen(f.sk); err != nil {
		return fmt.Errorf("galois keygen: %w", err)
	}
	return nil
}

func (f *fheStack) encode(oc opCtx, slots []uint64) ([]uint64, error) {
	defer oc.end(oc.begin("fhe", "encode"))
	return f.scheme.EncodeSlots(slots)
}

func (f *fheStack) encrypt(oc opCtx, msg []uint64) (ciphertext, error) {
	defer oc.end(oc.begin("fhe", "encrypt"))
	return f.scheme.Encrypt(f.sk, msg)
}

func (f *fheStack) mul(oc opCtx, a, b ciphertext) (ciphertext, error) {
	defer oc.end(oc.begin("fhe", "mulct"))
	return f.scheme.MulCiphertextsCtx(f.ctx, a, b, f.rlk)
}

func (f *fheStack) modSwitch(oc opCtx, a ciphertext) (ciphertext, error) {
	defer oc.end(oc.begin("fhe", "modswitch"))
	return f.scheme.ModSwitchCtx(f.ctx, a)
}

func (f *fheStack) rotate(oc opCtx, a ciphertext, steps int) (ciphertext, error) {
	defer oc.end(oc.begin("fhe", "rotate"))
	return f.scheme.RotateSlotsCtx(f.ctx, a, steps, f.gk)
}

func (f *fheStack) add(oc opCtx, a, b ciphertext) (ciphertext, error) {
	defer oc.end(oc.begin("fhe", "add"))
	return f.scheme.AddCiphertexts(a, b)
}

func (f *fheStack) decrypt(oc opCtx, a ciphertext) ([]uint64, error) {
	defer oc.end(oc.begin("fhe", "decrypt"))
	return f.scheme.Decrypt(f.sk, a)
}

func (f *fheStack) decode(oc opCtx, msg []uint64) ([]uint64, error) {
	defer oc.end(oc.begin("fhe", "decode"))
	return f.scheme.DecodeSlots(msg)
}

// newServeHandler mounts the service exactly as cmd/fheserver's main does
// with only -n, -levels and -t given: a tower-sequential RNS backend and
// serve's default workers, queue, timeout and budget floor. drain stops it
// and reports whether it drained cleanly.
func newServeHandler(sh shape) (h http.Handler, drain func(context.Context) bool, err error) {
	s, err := newScheme(sh, 1)
	if err != nil {
		return nil, nil, err
	}
	srv := serve.New(serve.Config{Scheme: s})
	return srv.Handler(), func(ctx context.Context) bool { return srv.Drain(ctx).Clean }, nil
}

// kernelStack is the paper's own kernels on 128-bit residues: the ntt
// plan and the native BLAS backend over modmath's Barrett128.
type kernelStack struct {
	n    int
	mod  *modmath.Modulus128
	plan *ntt.Plan
	nat  blas.Native
}

func newKernelStack(n int) (*kernelStack, error) {
	mod := modmath.DefaultModulus128()
	plan, err := ntt.CachedPlan(mod, n)
	if err != nil {
		return nil, fmt.Errorf("ntt plan: %w", err)
	}
	return &kernelStack{n: n, mod: mod, plan: plan, nat: blas.Native{Mod: mod}}, nil
}

// randPoly draws n residues below q.
func (k *kernelStack) randPoly(r *rand.Rand, n int) []word128 {
	p := make([]word128, n)
	for i := range p {
		p[i] = u128.New(r.Uint64(), r.Uint64()).Mod(k.mod.Q)
	}
	return p
}

// mulAcc is the kernels128 op: c = a*b in Z_q[x]/(x^n+1), then
// out = (alpha+1)*c + a - b through the three BLAS calls.
func (k *kernelStack) mulAcc(oc opCtx, out, c, a, b []word128, alpha word128) {
	s := oc.begin("ntt", "polymul")
	k.plan.PolyMulNegacyclicInto(c, a, b)
	oc.end(s)
	s = oc.begin("blas", "vecsub")
	k.nat.VecSubMod(out, a, b)
	oc.end(s)
	s = oc.begin("blas", "axpy")
	k.nat.Axpy(alpha, c, out)
	oc.end(s)
	s = oc.begin("blas", "vecadd")
	k.nat.VecAddMod(out, out, c)
	oc.end(s)
}

// evalPoint is a seeded root of x^n+1 mod q: an odd power of a primitive
// 2n-th root of unity. A negacyclic product evaluated there equals the
// product of its factors' values, which is the model mulAcc is checked
// against without a second transform.
func (k *kernelStack) evalPoint(r *rand.Rand) (word128, error) {
	psi, err := k.mod.PrimitiveRootOfUnity(uint64(2 * k.n))
	if err != nil {
		return word128{}, err
	}
	return k.mod.Pow(psi, u128.From64(uint64(2*r.Intn(k.n)+1))), nil
}

// horner evaluates p at x.
func (k *kernelStack) horner(p []word128, x word128) word128 {
	var acc word128
	for i := len(p) - 1; i >= 0; i-- {
		acc = k.mod.Add(k.mod.Mul(acc, x), p[i])
	}
	return acc
}

// mulAccModel is mulAcc's result at the evaluation point, from the
// factors' values there.
func (k *kernelStack) mulAccModel(av, bv, alpha word128) word128 {
	m := k.mod
	return m.Add(m.Mul(m.Add(alpha, u128.One), m.Mul(av, bv)), m.Sub(av, bv))
}

// selfCheck is the kernels' set-up gate: Barrett multiplication against
// math/big, a forward/inverse round trip at the timed size, and the
// negacyclic product against the schoolbook definition at n = 256.
func (k *kernelStack) selfCheck(r *rand.Rand) error {
	q := k.mod.Q.ToBig()
	for i := 0; i < 256; i++ {
		a, b := k.randPoly(r, 1)[0], k.randPoly(r, 1)[0]
		want := new(big.Int).Mul(a.ToBig(), b.ToBig())
		if got := k.mod.Mul(a, b).ToBig(); got.Cmp(want.Mod(want, q)) != 0 {
			return fmt.Errorf("modmath: %s * %s mod q = %s, math/big says %s", a, b, got, want)
		}
	}
	x := k.randPoly(r, k.n)
	y, back := make([]word128, k.n), make([]word128, k.n)
	k.plan.ForwardInto(y, x)
	k.plan.InverseInto(back, y)
	for i := range x {
		if !back[i].Equal(x[i]) {
			return fmt.Errorf("ntt: round trip at n=%d differs at %d", k.n, i)
		}
	}
	const small = 256
	sp, err := ntt.CachedPlan(k.mod, small)
	if err != nil {
		return err
	}
	a, b := k.randPoly(r, small), k.randPoly(r, small)
	got := make([]word128, small)
	sp.PolyMulNegacyclicInto(got, a, b)
	for i, w := range ntt.SchoolbookNegacyclic(k.mod, a, b) {
		if !got[i].Equal(w) {
			return fmt.Errorf("ntt: product at n=%d differs from schoolbook at %d", small, i)
		}
	}
	return nil
}

// kernelTier names the 64-bit span-kernel tier the FHE towers selected.
func kernelTier(sh shape) (string, error) {
	c, err := rns.NewContext(primeBits, 1, sh.n)
	if err != nil {
		return "", err
	}
	return c.Plans[0].Generic().KernelTier(), nil
}

// layerProbes times each layer's public functions directly, at the
// workloads' shape. The fixtures are built here, outside every probe's
// clock; runProbes computes the speed-ups and shares from these. A probe
// panics on an error, which at these fixed shapes only a bug can cause.
func layerProbes(sh shape, pt probeTimer) ([]probe, error) {
	r := rand.New(rand.NewSource(schemeSeed))
	var ps []probe
	add := func(name string, run func() float64) { ps = append(ps, probe{name, run}) }
	// perCall reports one call's time in ns divided by scale: 1e3 for us,
	// an element count for ns per element.
	perCall := func(name string, scale float64, f func()) {
		add(name, func() float64 { return pt.ns(f) / scale })
	}
	// checked is perCall in us for a call that returns an error.
	checked := func(name string, call func() error) {
		perCall(name, 1e3, func() {
			if err := call(); err != nil {
				panic(fmt.Sprintf("%s: %v", name, err))
			}
		})
	}

	// modmath: dependent multiply chains, 1024 links a call.
	ks, err := newKernelStack(sh.kernN)
	if err != nil {
		return nil, err
	}
	const chain = 1024
	w128, acc128 := ks.randPoly(r, 1)[0], ks.randPoly(r, 1)[0]
	perCall("modmath.mul128_ns", chain, func() {
		for i := 0; i < chain; i++ {
			acc128 = ks.mod.Mul(acc128, w128)
		}
	})
	qc, err := rns.NewContext(primeBits, sh.levels, sh.n)
	if err != nil {
		return nil, err
	}
	mod64 := qc.Mods[0]
	w64 := mod64.Q / 3
	w64Pre, acc64 := mod64.ShoupPrecompute(w64), uint64(1)
	perCall("modmath.mul64_shoup_ns", chain, func() {
		for i := 0; i < chain; i++ {
			acc64 = mod64.MulShoup(acc64, w64, w64Pre)
		}
	})

	// blas and ntt at the kernels128 size.
	kn := float64(sh.kernN)
	a, b, dst := ks.randPoly(r, sh.kernN), ks.randPoly(r, sh.kernN), make([]word128, sh.kernN)
	perCall("blas.vecadd_ns_per_elem", kn, func() { ks.nat.VecAddMod(dst, a, b) })
	perCall("blas.vecsub_ns_per_elem", kn, func() { ks.nat.VecSubMod(dst, a, b) })
	perCall("blas.vecpmul_ns_per_elem", kn, func() { ks.nat.VecPMulMod(dst, a, b) })
	perCall("blas.axpy_ns_per_elem", kn, func() { ks.nat.Axpy(w128, a, dst) })
	bigNum := blas.NewBignum(ks.mod.Q)
	bigLen := min(sh.kernN, core.BLASVectorLength)
	ba, bb, bd := blas.ToBigVector(a[:bigLen]), blas.ToBigVector(b[:bigLen]), blas.BigVector(bigLen)
	perCall("blas.vecpmul_bignum_ns_per_elem", float64(bigLen), func() { bigNum.VecPMulMod(bd, ba, bb) })
	perCall("ntt.fwd128_n16384_us", 1e3, func() { ks.plan.ForwardInto(dst, a) })
	perCall("ntt.inv128_n16384_us", 1e3, func() { ks.plan.InverseInto(dst, a) })
	perCall("ntt.polymul128_n16384_us", 1e3, func() { ks.plan.PolyMulNegacyclicInto(dst, a, b) })
	cmpN := min(sh.kernN, sh.n)
	cmpPlan, err := ntt.CachedPlan(ks.mod, cmpN)
	if err != nil {
		return nil, err
	}
	bigPlan := core.NewBigPlan(cmpPlan)
	perCall("ntt.fwd128_n4096_us", 1e3, func() { cmpPlan.ForwardInto(dst[:cmpN], a[:cmpN]) })
	bigIn := blas.ToBigVector(a[:cmpN])
	perCall("ntt.fwd_bignum_n4096_us", 1e3, func() { bigPlan.Forward(bigIn) })

	// ring: one tower's 64-bit transforms and spans on the selected tier,
	// and the forward transform again on the scalar tier.
	plan64 := qc.Plans[0].Generic()
	x64, y64, d64 := make([]uint64, sh.n), make([]uint64, sh.n), make([]uint64, sh.n)
	for i := range x64 {
		x64[i], y64[i] = r.Uint64()%mod64.Q, r.Uint64()%mod64.Q
	}
	perCall("ring.fwd64_n4096_us", 1e3, func() { plan64.NegacyclicForwardInto(d64, x64) })
	perCall("ring.inv64_n4096_us", 1e3, func() { plan64.NegacyclicInverseInto(d64, x64) })
	scalarPlan, err := ring.NewPlan[uint64, ring.Shoup64](ring.NewShoup64Tier(mod64, ring.TierScalar), sh.n)
	if err != nil {
		return nil, err
	}
	perCall("ring.fwd64_n4096_scalar_us", 1e3, func() { scalarPlan.NegacyclicForwardInto(d64, x64) })
	perCall("ring.pmul64_n4096_us", 1e3, func() { plan64.PointwiseMulInto(d64, x64, y64) })
	gt, err := ring.GaloisTablesFor(sh.n, ring.RotationElement(sh.n, 1))
	if err != nil {
		return nil, err
	}
	perCall("ring.galois_eval64_n4096_us", 1e3, func() { plan64.AutomorphismEvalInto(gt, d64, x64) })

	// rns: all towers' transforms, the three BEHZ base conversions between
	// Q and an extension base of levels+2 primes, and the resident rescale,
	// each on one core (workers = 1).
	found, err := modmath.FindNTTPrimes64(primeBits, uint64(2*sh.n), 2*sh.levels+2)
	if err != nil {
		return nil, err
	}
	ext, err := rns.NewContextForPrimes(found[sh.levels:], sh.n)
	if err != nil {
		return nil, err
	}
	lower, err := rns.NewContextForPrimes(found[:sh.levels-1], sh.n)
	if err != nil {
		return nil, err
	}
	conv, err := rns.NewBaseConverter(qc, ext)
	if err != nil {
		return nil, err
	}
	mconv, err := rns.NewMontBaseConverter(qc, ext, 1<<16)
	if err != nil {
		return nil, err
	}
	skConv, err := rns.NewSKConverter(ext, qc)
	if err != nil {
		return nil, err
	}
	rescaler, err := rns.NewRescaler(qc, lower)
	if err != nil {
		return nil, err
	}
	randRNS := func(c *rns.Context) rns.Poly {
		p := c.NewPoly()
		for i, row := range p.Res {
			for j := range row {
				row[j] = r.Uint64() % c.Mods[i].Q
			}
		}
		return p
	}
	qa, qd, ed, ld := randRNS(qc), qc.NewPoly(), ext.NewPoly(), lower.NewPoly()
	// The Shenoy-Kumaresan return needs consistent residues of one small
	// value across the extension base: coefficient j is j in every tower.
	small := ext.NewPoly()
	for i, row := range small.Res {
		for j := range row {
			row[j] = uint64(j) % ext.Mods[i].Q
		}
	}
	checked("rns.nttall_k4_us", func() error { return qc.NegacyclicNTTAll(qd, qa, 1) })
	checked("rns.baseconv_k4_us", func() error { return conv.ConvertInto(ed, qa) })
	checked("rns.mont_baseconv_k4_us", func() error { return mconv.ConvertInto(ed, qa) })
	checked("rns.sk_return_k4_us", func() error { return skConv.ConvertInto(qd, small) })
	checked("rns.rescale_ntt_k4_us", func() error { return rescaler.RescaleNTTInto(ld, qa, 1) })

	// fhe: the scheme calls the workloads make, one at a time, on a keyed
	// default backend; then the top-level multiply again on the backend a
	// one-CPU process builds (towers in sequence, the server's
	// configuration; only the tower dispatch differs, GOMAXPROCS does not)
	// and on the 128-bit oracle backend.
	scheme, err := newScheme(sh, 0)
	if err != nil {
		return nil, err
	}
	f := &fheStack{sh: sh, ctx: context.Background(), scheme: scheme}
	keygenNS := timeOnce(func() { err = f.keygen() })
	if err != nil {
		return nil, err
	}
	add("fhe.keygen_s", func() float64 { return keygenNS / 1e9 })
	slots := make([]uint64, sh.n)
	for i := range slots {
		slots[i] = r.Uint64() % sh.t
	}
	oc := opCtx{}
	fx, err := newMulFixture(f, slots)
	if err != nil {
		return nil, err
	}
	checked("fhe.encode_us", func() error { _, err := f.encode(oc, slots); return err })
	checked("fhe.encrypt_us", func() error { _, err := f.encrypt(oc, fx.msg); return err })
	checked("fhe.decrypt_us", func() error { _, err := f.decrypt(oc, fx.l0); return err })
	checked("fhe.decode_us", func() error { _, err := f.decode(oc, fx.msg); return err })
	mulL0 := func() error { _, err := f.mul(oc, fx.l0, fx.l0b); return err }
	rotL0 := func() error { _, err := f.rotate(oc, fx.l0, 1); return err }
	checked("fhe.mulct_l0_us", mulL0)
	checked("fhe.mulct_l1_us", func() error { _, err := f.mul(oc, fx.l1, fx.l1); return err })
	checked("fhe.mulct_l2_us", func() error { _, err := f.mul(oc, fx.l2, fx.l2); return err })
	checked("fhe.modswitch_l0_us", func() error { _, err := f.modSwitch(oc, fx.l0); return err })
	checked("fhe.rotate_hop_l0_us", rotL0)
	checked("fhe.add_l0_us", func() error { _, err := f.add(oc, fx.l0, fx.l0b); return err })
	add("fhe.mulct_l0_allocs", func() float64 { return allocsPerCall(func() { _ = mulL0() }) })
	add("fhe.rotate_hop_l0_allocs", func() float64 { return allocsPerCall(func() { _ = rotL0() }) })

	f1, err := newFHEStack(sh, 1)
	if err != nil {
		return nil, err
	}
	fx1, err := newMulFixture(f1, slots)
	if err != nil {
		return nil, err
	}
	checked("fhe.mulct_l0_procs1_us", func() error { _, err := f1.mul(oc, fx1.l0, fx1.l0b); return err })
	params, err := fhe.NewParams(ks.mod, sh.n, sh.t)
	if err != nil {
		return nil, err
	}
	fo := &fheStack{sh: sh, ctx: context.Background(), scheme: fhe.NewBackendScheme(fhe.NewRingBackend(params), schemeSeed)}
	fo.sk = fo.scheme.KeyGen()
	if fo.rlk, err = fo.scheme.RelinKeyGen(fo.sk); err != nil {
		return nil, err
	}
	o0, err := fo.encrypt(oc, fx.msg)
	if err != nil {
		return nil, err
	}
	o1, err := fo.encrypt(oc, fx.msg)
	if err != nil {
		return nil, err
	}
	checked("fhe.mulct_l0_oracle_us", func() error { _, err := fo.mul(oc, o0, o1); return err })

	// perfmodel: the calibrated CI-host prediction for the forward
	// transform on the selected tier.
	level := map[string]isa.Level{"scalar": isa.LevelScalar, "avx2": isa.LevelAVX2, "avx512": isa.LevelAVX512}[plan64.KernelTier()]
	add("perfmodel.fwd64_n4096_pred_us", func() float64 {
		return perfmodel.ProjectLazyNTT64(perfmodel.CIBenchHost, level, mod64, sh.n, false).TimeNs() / 1e3
	})
	return ps, nil
}

// mulFixture holds the operands the fhe probes reuse: two fresh
// encryptions of one message (a multiply of two distinct ciphertexts is
// the general product, not the squaring) and one of them switched down to
// levels 1 and 2.
type mulFixture struct {
	msg             []uint64
	l0, l0b, l1, l2 ciphertext
}

func newMulFixture(f *fheStack, slots []uint64) (fx mulFixture, err error) {
	oc := opCtx{}
	if fx.msg, err = f.encode(oc, slots); err != nil {
		return fx, err
	}
	if fx.l0, err = f.encrypt(oc, fx.msg); err != nil {
		return fx, err
	}
	if fx.l0b, err = f.encrypt(oc, fx.msg); err != nil {
		return fx, err
	}
	if fx.l1, err = f.modSwitch(oc, fx.l0); err != nil {
		return fx, err
	}
	fx.l2, err = f.modSwitch(oc, fx.l1)
	return fx, err
}

// transformCensus is perfmodel's count of the mandatory transforms in one
// resident multiply of two distinct ciphertexts at the top level.
func transformCensus(sh shape) float64 {
	return float64(perfmodel.NewBEHZResidentModel(nil, sh.levels, false).Transforms())
}
