package main

import (
	"fmt"
	"math/rand"
)

// workload is one closed-loop set of inputs. The harness calls setup,
// then for each round newRound, every op, and verify; the clocks run only
// around the ops.
type workload interface {
	// clients is the number of concurrent callers; each waits for its
	// reply before its next op.
	clients() int
	// opsPerRound is the fixed number of ops each client runs in a round.
	opsPerRound() int
	// setup builds what the ops need: plans, keys, the server.
	setup(seed int64) error
	// newRound draws the round's inputs from r and drops the last
	// round's results.
	newRound(r *rand.Rand) error
	// op runs op i of the round for one client and stores its result.
	op(oc opCtx, client, i int) error
	// verify checks every stored result against the workload's model and
	// returns one line per wrong result.
	verify() []string
	// workerPID is the process doing the work, 0 for this one.
	workerPID() int
	// close releases what setup built; the error reports an unclean stop.
	// Closing again does nothing.
	close() error
}

// workloadInfo is what the benchmark knows about a workload by name.
type workloadInfo struct {
	name string
	why  string
	make func(sh shape, opt options) workload
}

// options are the harness settings a workload constructor reads.
type options struct {
	ops       int    // ops per client per round; 0 takes the workload's own
	serverBin string // built cmd/fheserver; empty mounts the handler in-process
	tr        *tracer
}

func (o options) opsOr(def int) int {
	if o.ops > 0 {
		return o.ops
	}
	return def
}

var workloads = []workloadInfo{
	{"kernels128", "128-bit NTT multiply-accumulate at n=2^14, one caller: modmath, ring's 128-bit spans, ntt and blas do all the work; rns, fhe and serve do none",
		func(sh shape, o options) workload { return &kernelWorkload{sh: sh, ops: o.opsOr(32)} }},
	{"mulchain", "depth-3 leveled multiply chain at n=4096, k=4, one caller: BEHZ base conversion in rns, 64-bit transforms in ring and relinearisation in fhe dominate; no rotation, no serve",
		func(sh shape, o options) workload { return &fheWorkload{sh: sh, ops: o.opsOr(32), chain: mulChain} }},
	{"dotprod", "packed dot product, one multiply then 11 rotate-and-add hops, one caller: the same fhe/rns/ring layers through automorphism and key switching instead of tensor and base conversion",
		func(sh shape, o options) workload { return &fheWorkload{sh: sh, ops: o.opsOr(32), chain: dotProduct} }},
	{"serve_mix", "the built fheserver over loopback HTTP, 2 clients with a tenant each, 15-request sessions: JSON transport, admission and tenant locking, about a third of a session, run here and nowhere else",
		func(sh shape, o options) workload {
			return &serveWorkload{sh: sh, ops: o.opsOr(16), serverBin: o.serverBin, tr: o.tr}
		}},
}

func findWorkload(name string) (workloadInfo, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadInfo{}, false
}

func randSlots(r *rand.Rand, n int, t uint64) []uint64 {
	s := make([]uint64, n)
	for i := range s {
		s[i] = r.Uint64() % t
	}
	return s
}

// firstDiff describes the first slot where got differs from want.
func firstDiff(what string, got, want []uint64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%s: got %d values, want %d", what, len(got), len(want))
	}
	for j := range want {
		if got[j] != want[j] {
			return fmt.Sprintf("%s: slot %d: got %d, want %d", what, j, got[j], want[j])
		}
	}
	return ""
}

// kernelWorkload is kernels128. The op multiplies two polynomials of a
// seeded pool and folds the product through the three BLAS calls; each
// result is kept and checked between rounds at a seeded root of x^n+1.
type kernelWorkload struct {
	sh  shape
	ops int
	k   *kernelStack

	pool   [][]word128
	poolAt []word128 // the pool polynomials' values at point
	point  word128
	prod   []word128
	out    [][]word128

	pick  [][2]int
	alpha []word128
	done  []bool
}

const kernelPool = 8

func (w *kernelWorkload) clients() int     { return 1 }
func (w *kernelWorkload) opsPerRound() int { return w.ops }
func (w *kernelWorkload) workerPID() int   { return 0 }
func (w *kernelWorkload) close() error     { return nil }

func (w *kernelWorkload) setup(seed int64) error {
	r := rand.New(rand.NewSource(seed))
	k, err := newKernelStack(w.sh.kernN)
	if err != nil {
		return err
	}
	if err := k.selfCheck(r); err != nil {
		return err
	}
	if w.point, err = k.evalPoint(r); err != nil {
		return err
	}
	w.k = k
	w.pool, w.poolAt = make([][]word128, kernelPool), make([]word128, kernelPool)
	for i := range w.pool {
		w.pool[i] = k.randPoly(r, k.n)
		w.poolAt[i] = k.horner(w.pool[i], w.point)
	}
	w.prod = make([]word128, k.n)
	w.out = make([][]word128, w.ops)
	for i := range w.out {
		w.out[i] = make([]word128, k.n)
	}
	w.pick, w.alpha, w.done = make([][2]int, w.ops), make([]word128, w.ops), make([]bool, w.ops)
	return nil
}

func (w *kernelWorkload) newRound(r *rand.Rand) error {
	for i := range w.pick {
		a := r.Intn(kernelPool)
		w.pick[i] = [2]int{a, (a + 1 + r.Intn(kernelPool-1)) % kernelPool}
		w.alpha[i] = w.k.randPoly(r, 1)[0]
		w.done[i] = false
	}
	return nil
}

func (w *kernelWorkload) op(oc opCtx, _, i int) error {
	a, b := w.pick[i][0], w.pick[i][1]
	w.k.mulAcc(oc, w.out[i], w.prod, w.pool[a], w.pool[b], w.alpha[i])
	w.done[i] = true
	return nil
}

func (w *kernelWorkload) verify() []string {
	var bad []string
	for i, done := range w.done {
		if !done {
			continue
		}
		a, b := w.pick[i][0], w.pick[i][1]
		want := w.k.mulAccModel(w.poolAt[a], w.poolAt[b], w.alpha[i])
		if got := w.k.horner(w.out[i], w.point); !got.Equal(want) {
			bad = append(bad, fmt.Sprintf("op %d: pool[%d]*pool[%d] at the check point: got %s, want %s", i, a, b, got, want))
		}
	}
	return bad
}

// fheWorkload is mulchain and dotprod: library-level circuits on one
// keyed scheme. Inputs are slot vectors, encoded between rounds; the op
// starts at Encrypt.
type fheWorkload struct {
	sh    shape
	ops   int
	chain fheChain
	f     *fheStack

	x, y   [][]uint64 // slot inputs
	mx, my [][]uint64 // their encodings
	got    [][]uint64 // what the chain returned, nil until the op has run
}

// fheChain is the circuit between Encrypt and the slots, and its
// plaintext model.
type fheChain struct {
	eval  func(f *fheStack, oc opCtx, cx, cy ciphertext) ([]uint64, error)
	model func(x, y []uint64, t uint64) []uint64
	// endsAtDecrypt says eval returns the decrypted message, which verify
	// decodes outside the clocks; otherwise eval decodes and returns slots.
	endsAtDecrypt bool
}

func (w *fheWorkload) clients() int     { return 1 }
func (w *fheWorkload) opsPerRound() int { return w.ops }
func (w *fheWorkload) workerPID() int   { return 0 }
func (w *fheWorkload) close() error     { return nil }

func (w *fheWorkload) setup(int64) error {
	f, err := newFHEStack(w.sh, 0)
	if err != nil {
		return err
	}
	w.f = f
	w.x, w.y = make([][]uint64, w.ops), make([][]uint64, w.ops)
	w.mx, w.my = make([][]uint64, w.ops), make([][]uint64, w.ops)
	w.got = make([][]uint64, w.ops)
	return nil
}

func (w *fheWorkload) newRound(r *rand.Rand) error {
	for i := range w.x {
		w.x[i], w.y[i] = randSlots(r, w.sh.n, w.sh.t), randSlots(r, w.sh.n, w.sh.t)
		var err error
		if w.mx[i], err = w.f.encode(opCtx{}, w.x[i]); err != nil {
			return err
		}
		if w.my[i], err = w.f.encode(opCtx{}, w.y[i]); err != nil {
			return err
		}
		w.got[i] = nil
	}
	return nil
}

func (w *fheWorkload) op(oc opCtx, _, i int) error {
	cx, err := w.f.encrypt(oc, w.mx[i])
	if err != nil {
		return err
	}
	cy, err := w.f.encrypt(oc, w.my[i])
	if err != nil {
		return err
	}
	w.got[i], err = w.chain.eval(w.f, oc, cx, cy)
	return err
}

func (w *fheWorkload) verify() []string {
	var bad []string
	for i, got := range w.got {
		if got == nil {
			continue
		}
		if w.chain.endsAtDecrypt {
			var err error
			if got, err = w.f.decode(opCtx{}, got); err != nil {
				bad = append(bad, fmt.Sprintf("op %d: decode: %v", i, err))
				continue
			}
		}
		if d := firstDiff(fmt.Sprintf("op %d", i), got, w.chain.model(w.x[i], w.y[i], w.sh.t)); d != "" {
			bad = append(bad, d)
		}
	}
	return bad
}

// mulChain is x*y, then two squarings, with a modulus switch after each
// multiply: three multiplies, one at each of the top three levels.
var mulChain = fheChain{
	endsAtDecrypt: true,
	eval: func(f *fheStack, oc opCtx, cx, cy ciphertext) ([]uint64, error) {
		c, err := f.mul(oc, cx, cy)
		for depth := 0; depth < 3 && err == nil; depth++ {
			if depth > 0 {
				if c, err = f.mul(oc, c, c); err != nil {
					break
				}
			}
			c, err = f.modSwitch(oc, c)
		}
		if err != nil {
			return nil, err
		}
		return f.decrypt(oc, c)
	},
	model: func(x, y []uint64, t uint64) []uint64 {
		want := make([]uint64, len(x))
		for j := range want {
			p := x[j] * y[j] % t
			p = p * p % t
			want[j] = p * p % t
		}
		return want
	},
}

// dotProduct is examples/dotproduct's circuit at the full ring size: one
// multiply, then log2(n/2) rotate-and-add hops at level 0, after which
// every slot of a row holds that row's dot product.
var dotProduct = fheChain{
	eval: func(f *fheStack, oc opCtx, cx, cy ciphertext) ([]uint64, error) {
		acc, err := f.mul(oc, cx, cy)
		if err != nil {
			return nil, err
		}
		for sh := f.sh.n / 4; sh >= 1; sh /= 2 {
			rot, err := f.rotate(oc, acc, sh)
			if err != nil {
				return nil, err
			}
			if acc, err = f.add(oc, acc, rot); err != nil {
				return nil, err
			}
		}
		msg, err := f.decrypt(oc, acc)
		if err != nil {
			return nil, err
		}
		return f.decode(oc, msg)
	},
	model: func(x, y []uint64, t uint64) []uint64 {
		rows := len(x) / 2
		want := make([]uint64, len(x))
		for r := 0; r < 2; r++ {
			var sum uint64
			for j := 0; j < rows; j++ {
				sum = (sum + x[r*rows+j]*y[r*rows+j]) % t
			}
			for j := 0; j < rows; j++ {
				want[r*rows+j] = sum
			}
		}
		return want
	},
}
