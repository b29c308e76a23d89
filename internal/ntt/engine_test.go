package ntt

import (
	"math/rand"
	"runtime"
	"testing"

	"mqxgo/internal/modmath"
	"mqxgo/internal/ring"
	"mqxgo/internal/scratch"
	"mqxgo/internal/u128"
)

// --- Into-API correctness ---

func TestForwardIntoMatchesReference(t *testing.T) {
	mod := testMod(t)
	r := rand.New(rand.NewSource(51))
	for _, n := range []int{2, 4, 8, 16, 64, 256, 1024} {
		p := mustPlan(t, mod, n)
		x := randPoly(r, mod, n)
		got := make([]u128.U128, n)
		p.ForwardInto(got, x)
		want := Reference(mod, p.Omega, x)
		for i := 0; i < n; i++ {
			if !got[i].Equal(want[bitReverse(i, p.M)]) {
				t.Fatalf("n=%d: output %d = %s, want %s", n, i, got[i], want[bitReverse(i, p.M)])
			}
		}
	}
}

func TestIntoRoundTrip(t *testing.T) {
	mod := testMod(t)
	r := rand.New(rand.NewSource(52))
	for _, n := range []int{2, 8, 32, 128, 1024} {
		p := mustPlan(t, mod, n)
		x := randPoly(r, mod, n)
		f := make([]u128.U128, n)
		back := make([]u128.U128, n)
		p.ForwardInto(f, x)
		p.InverseInto(back, f)
		for i := range x {
			if !back[i].Equal(x[i]) {
				t.Fatalf("n=%d: round trip failed at %d: got %s want %s", n, i, back[i], x[i])
			}
		}
	}
}

// TestIntoInPlaceAliasing checks that dst may alias the input for every
// Into API.
func TestIntoInPlaceAliasing(t *testing.T) {
	mod := testMod(t)
	r := rand.New(rand.NewSource(53))
	for _, n := range []int{2, 4, 64, 512} {
		p := mustPlan(t, mod, n)
		x := randPoly(r, mod, n)

		buf := append([]u128.U128(nil), x...)
		p.ForwardInto(buf, buf)
		want := forward(p, x)
		for i := range want {
			if !buf[i].Equal(want[i]) {
				t.Fatalf("n=%d: in-place forward differs at %d", n, i)
			}
		}

		p.InverseInto(buf, buf)
		for i := range x {
			if !buf[i].Equal(x[i]) {
				t.Fatalf("n=%d: in-place inverse differs at %d", n, i)
			}
		}

		b := randPoly(r, mod, n)
		wantMul := polyMul(p, x, b)
		got := append([]u128.U128(nil), x...)
		p.PolyMulNegacyclicInto(got, got, b)
		for i := range wantMul {
			if !got[i].Equal(wantMul[i]) {
				t.Fatalf("n=%d: aliased polymul differs at %d", n, i)
			}
		}
	}
}

func TestPlan64IntoMatchesWrappers(t *testing.T) {
	ps, err := modmath.FindNTTPrimes64(60, 1<<9, 1)
	if err != nil {
		t.Fatal(err)
	}
	mod := modmath.MustModulus64(ps[0])
	r := rand.New(rand.NewSource(54))
	for _, n := range []int{2, 8, 64, 256} {
		p := generic64(t, mod, n)
		x := make([]uint64, n)
		b := make([]uint64, n)
		for i := range x {
			x[i] = r.Uint64() % mod.Q
			b[i] = r.Uint64() % mod.Q
		}
		f := make([]uint64, n)
		p.ForwardInto(f, x)
		back := make([]uint64, n)
		p.InverseInto(back, f)
		for i := range back {
			if back[i] != x[i] {
				t.Fatalf("n=%d: InverseInto round trip failed at %d", n, i)
			}
		}
		// In place too.
		buf := append([]uint64(nil), x...)
		p.ForwardInto(buf, buf)
		p.InverseInto(buf, buf)
		for i := range buf {
			if buf[i] != x[i] {
				t.Fatalf("n=%d: in-place 64-bit round trip failed at %d", n, i)
			}
		}
		// The product in place over its first operand.
		got := append([]uint64(nil), x...)
		p.PolyMulNegacyclicInto(got, got, b)
		want := polyMul(p, x, b)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d: aliased PolyMulNegacyclicInto differs at %d", n, i)
			}
		}
	}
}

// --- Allocation regression (the PR's acceptance criterion) ---

func TestIntoAPIsDoNotAllocate(t *testing.T) {
	if scratch.Race {
		t.Skip("race instrumentation allocates")
	}
	mod := testMod(t)
	r := rand.New(rand.NewSource(55))
	const n = 1 << 10
	p := mustPlan(t, mod, n)
	x := randPoly(r, mod, n)
	b := randPoly(r, mod, n)
	dst := make([]u128.U128, n)

	// Warm the scratch pool so the measured runs are steady state.
	p.ForwardInto(dst, x)
	p.PolyMulNegacyclicInto(dst, x, b)

	if a := testing.AllocsPerRun(20, func() { p.ForwardInto(dst, x) }); a != 0 {
		t.Errorf("ForwardInto allocates %.1f per run, want 0", a)
	}
	if a := testing.AllocsPerRun(20, func() { p.InverseInto(dst, x) }); a != 0 {
		t.Errorf("InverseInto allocates %.1f per run, want 0", a)
	}
	if a := testing.AllocsPerRun(20, func() { p.PolyMulNegacyclicInto(dst, x, b) }); a != 0 {
		t.Errorf("PolyMulNegacyclicInto allocates %.1f per run, want 0", a)
	}
}

func TestPlan64IntoAPIsDoNotAllocate(t *testing.T) {
	if scratch.Race {
		t.Skip("race instrumentation allocates")
	}
	const n = 1 << 10
	ps, err := modmath.FindNTTPrimes64(60, uint64(2*n), 1)
	if err != nil {
		t.Fatal(err)
	}
	mod := modmath.MustModulus64(ps[0])
	p := generic64(t, mod, n)
	r := rand.New(rand.NewSource(56))
	x := make([]uint64, n)
	b := make([]uint64, n)
	for i := range x {
		x[i] = r.Uint64() % mod.Q
		b[i] = r.Uint64() % mod.Q
	}
	dst := make([]uint64, n)
	p.ForwardInto(dst, x)
	p.PolyMulNegacyclicInto(dst, x, b)

	if a := testing.AllocsPerRun(20, func() { p.ForwardInto(dst, x) }); a != 0 {
		t.Errorf("Plan64.Generic().ForwardInto allocates %.1f per run, want 0", a)
	}
	if a := testing.AllocsPerRun(20, func() { p.InverseInto(dst, x) }); a != 0 {
		t.Errorf("Plan64.Generic().InverseInto allocates %.1f per run, want 0", a)
	}
	if a := testing.AllocsPerRun(20, func() { p.PolyMulNegacyclicInto(dst, x, b) }); a != 0 {
		t.Errorf("Plan64.Generic().PolyMulNegacyclicInto allocates %.1f per run, want 0", a)
	}
}

// TestBatchIntoAllocsBounded asserts the batch dispatch cost stays at a
// handful of fixed allocations (closures and WaitGroup bookkeeping), not
// O(batch) buffers.
func TestBatchIntoAllocsBounded(t *testing.T) {
	if scratch.Race {
		t.Skip("race instrumentation allocates")
	}
	mod := testMod(t)
	r := rand.New(rand.NewSource(57))
	const n, batch = 1 << 8, 32
	p := mustPlan(t, mod, n)
	inputs := make([][]u128.U128, batch)
	dsts := make([][]u128.U128, batch)
	for i := range inputs {
		inputs[i] = randPoly(r, mod, n)
		dsts[i] = make([]u128.U128, n)
	}
	workers := runtime.GOMAXPROCS(0)
	p.BatchForwardInto(dsts, inputs, workers) // warm pool + scratch
	a := testing.AllocsPerRun(10, func() { p.BatchForwardInto(dsts, inputs, workers) })
	// One closure per dispatched chunk plus small fixed bookkeeping.
	if limit := float64(4*workers + 8); a > limit {
		t.Errorf("BatchForwardInto allocates %.1f per run, want <= %.0f", a, limit)
	}
}

// --- Batch correctness across worker counts (satellite regression) ---

func TestBatchMatchesSequentialAcrossWorkerCounts(t *testing.T) {
	mod := testMod(t)
	r := rand.New(rand.NewSource(58))
	const n, batch = 1 << 7, 37 // deliberately not a multiple of the worker counts
	p := mustPlan(t, mod, n)
	inputs := make([][]u128.U128, batch)
	for i := range inputs {
		inputs[i] = randPoly(r, mod, n)
	}
	wantF := make([][]u128.U128, batch)
	for i := range inputs {
		wantF[i] = forward(p, inputs[i])
	}
	for _, workers := range []int{0, 1, 3, runtime.GOMAXPROCS(0)} {
		gotF := ring.AllocBatch[u128.U128](n, batch)
		p.BatchForwardInto(gotF, inputs, workers)
		for i := range wantF {
			for j := range wantF[i] {
				if !gotF[i][j].Equal(wantF[i][j]) {
					t.Fatalf("workers=%d: BatchForwardInto[%d][%d] mismatch", workers, i, j)
				}
			}
		}
	}
}

// --- Plan cache ---

func TestCachedPlanReturnsSharedInstance(t *testing.T) {
	mod := testMod(t)
	p1, err := CachedPlan(mod, 1<<6)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := CachedPlan(mod, 1<<6)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("CachedPlan built two plans for the same (q, n)")
	}
	p3, err := CachedPlan(mod, 1<<7)
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Error("CachedPlan shared a plan across sizes")
	}
	ps, err := modmath.FindNTTPrimes64(60, 1<<7, 1)
	if err != nil {
		t.Fatal(err)
	}
	mod64 := modmath.MustModulus64(ps[0])
	q1, err := CachedPlan64(mod64, 1<<6)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := CachedPlan64(mod64, 1<<6)
	if err != nil {
		t.Fatal(err)
	}
	if q1 != q2 {
		t.Error("CachedPlan64 built two plans for the same (q, n)")
	}
	if _, err := CachedPlan(mod, 3); err == nil {
		t.Error("CachedPlan accepted a non-power-of-two size")
	}
}
