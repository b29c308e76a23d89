package rns

import (
	"math/big"
	"math/bits"
	"math/rand"
	"testing"

	"mqxgo/internal/scratch"
)

// Steady-state allocation regression for the Poly hot paths, matching the
// PR 1 discipline on the NTT engine: DecomposeInto runs on the
// precomputed Barrett limb tables, the negacyclic transforms and MulAll
// draw pooled per-plan scratch, so with reused destination buffers none
// of them may allocate. TestTowerDispatchWidth2DoesNotAllocate holds
// tower-parallel dispatch to the same bar.
func TestPolyHotPathsDoNotAllocate(t *testing.T) {
	if scratch.Race {
		t.Skip("race instrumentation allocates")
	}
	const n = 1 << 8
	c, err := NewContext(59, 3, n)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(81))
	coeffs := randCoeffs(r, c.Q, n)

	dst := c.NewPoly()
	a := c.NewPoly()
	b := c.NewPoly()
	if err := c.DecomposeInto(a, coeffs); err != nil {
		t.Fatal(err)
	}
	if err := c.DecomposeInto(b, randCoeffs(r, c.Q, n)); err != nil {
		t.Fatal(err)
	}

	// Warm the plan scratch pools.
	if err := c.NegacyclicNTTAll(dst, a, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.MulAll(dst, a, b); err != nil {
		t.Fatal(err)
	}

	// On 32-bit-word platforms DecomposeInto takes its documented big.Int
	// fallback, which allocates; the transform gates below still hold.
	if bits.UintSize == 64 {
		if got := testing.AllocsPerRun(20, func() {
			if err := c.DecomposeInto(dst, coeffs); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("DecomposeInto allocates %.1f per run, want 0", got)
		}
	}
	if got := testing.AllocsPerRun(20, func() {
		if err := c.NegacyclicNTTAll(dst, a, 1); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("NegacyclicNTTAll allocates %.1f per run, want 0", got)
	}
	if got := testing.AllocsPerRun(20, func() {
		if err := c.NegacyclicINTTAll(dst, a, 1); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("NegacyclicINTTAll allocates %.1f per run, want 0", got)
	}
	if got := testing.AllocsPerRun(20, func() {
		if err := c.MulAll(dst, a, b); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("MulAll allocates %.1f per run, want 0", got)
	}
}

// TestTowerDispatchWidth2DoesNotAllocate holds the tower-parallel
// dispatch to the same bar: at width 2 every per-tower call runs through
// one pooled ring.Fanout frame, so with the pools warm both transforms
// and the resident rescale allocate nothing.
func TestTowerDispatchWidth2DoesNotAllocate(t *testing.T) {
	if scratch.Race {
		t.Skip("race instrumentation allocates")
	}
	const workers = 2
	f := convFix(t)
	a, dst := f.q.NewPoly(), f.q.NewPoly()
	fillResidues(a, f.q.Mods, 4244, 0)
	dstSub := f.sub.NewPoly()
	for name, call := range map[string]func() error{
		"NegacyclicNTTAll":  func() error { return f.q.NegacyclicNTTAll(dst, a, workers) },
		"NegacyclicINTTAll": func() error { return f.q.NegacyclicINTTAll(dst, a, workers) },
		"RescaleNTTInto":    func() error { return f.rs.RescaleNTTInto(dstSub, a, workers) },
	} {
		if err := call(); err != nil { // warm the frame, scratch and worker pools
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(20, func() {
			if err := call(); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("%s at width %d allocates %.1f per run, want 0", name, workers, got)
		}
	}
}

// TestBaseConversionHotPathsDoNotAllocate extends the discipline to the
// BEHZ conversion trio: fast base conversion, the exact Shenoy-Kumaresan
// return, and divide-and-round by the last tower all run on precomputed
// tables and pooled digit scratch, so with reused destinations none may
// allocate.
func TestBaseConversionHotPathsDoNotAllocate(t *testing.T) {
	if scratch.Race {
		t.Skip("race instrumentation allocates")
	}
	f := convFix(t)
	src := f.q.NewPoly()
	fillResidues(src, f.q.Mods, 4242, 0)
	dstE := f.e.NewPoly()
	srcE := f.e.NewPoly()
	fillResidues(srcE, f.e.Mods, 4243, 8) // allocation behavior is input-independent
	dstQ := f.q.NewPoly()
	dstSub := f.sub.NewPoly()

	// Warm the digit-scratch pools.
	if err := f.conv.ConvertInto(dstE, src); err != nil {
		t.Fatal(err)
	}
	if err := f.sk.ConvertInto(dstQ, srcE); err != nil {
		t.Fatal(err)
	}
	if err := f.rs.RescaleInto(dstSub, src); err != nil {
		t.Fatal(err)
	}

	if got := testing.AllocsPerRun(20, func() {
		if err := f.conv.ConvertInto(dstE, src); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("BaseConverter.ConvertInto allocates %.1f per run, want 0", got)
	}
	if got := testing.AllocsPerRun(20, func() {
		if err := f.mconv.ConvertInto(dstE, src); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("MontBaseConverter.ConvertInto allocates %.1f per run, want 0", got)
	}
	if got := testing.AllocsPerRun(20, func() {
		if err := f.sk.ConvertInto(dstQ, srcE); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("SKConverter.ConvertInto allocates %.1f per run, want 0", got)
	}
	if got := testing.AllocsPerRun(20, func() {
		if err := f.rs.RescaleInto(dstSub, src); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("Rescaler.RescaleInto allocates %.1f per run, want 0", got)
	}
}

// TestReconstructIntoSteadyStateAllocs checks the CRT side: after the
// first call has grown the destination big.Ints to capacity, repeated
// reconstruction into the same buffers allocates nothing.
func TestReconstructIntoSteadyStateAllocs(t *testing.T) {
	if scratch.Race {
		t.Skip("race instrumentation allocates")
	}
	const n = 1 << 6
	c, err := NewContext(59, 3, n)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(82))
	a := decompose(t, c, randCoeffs(r, c.Q, n))
	dst := make([]*big.Int, n)
	if err := c.ReconstructInto(dst, a); err != nil { // warm-up growth
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(20, func() {
		if err := c.ReconstructInto(dst, a); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("ReconstructInto allocates %.1f per run steady state, want 0", got)
	}
}

// TestDecomposeIntoFastPathMatchesBigInt cross-checks the Barrett limb
// fast path against plain big.Int reduction, including negative and
// over-wide coefficients that must take the fallback.
func TestDecomposeIntoFastPathMatchesBigInt(t *testing.T) {
	const n = 1 << 5
	c, err := NewContext(60, 4, n)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(83))
	coeffs := randCoeffs(r, c.Q, n)
	// Mix in edge cases: zero, negatives, and values >= Q (wide).
	coeffs[0] = big.NewInt(0)
	coeffs[1] = new(big.Int).Neg(coeffs[1])
	coeffs[2] = new(big.Int).Add(c.Q, c.Q)
	coeffs[3] = new(big.Int).Lsh(big.NewInt(1), 300)
	coeffs[4] = big.NewInt(-12345)

	p := c.NewPoly()
	if err := c.DecomposeInto(p, coeffs); err != nil {
		t.Fatal(err)
	}
	tmp := new(big.Int)
	for i, mod := range c.Mods {
		qb := new(big.Int).SetUint64(mod.Q)
		for j, x := range coeffs {
			want := tmp.Mod(x, qb).Uint64()
			if p.Res[i][j] != want {
				t.Fatalf("tower %d coeff %d: got %d, want %d", i, j, p.Res[i][j], want)
			}
		}
	}
}
