package rns

import (
	"fmt"
	"math/big"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// TestConcurrentCallsShareNoScratch runs every pooled entry point of one
// shared fixture — MulAll, the tower dispatch (RescaleNTTInto), the
// big-integer DecomposeInto/ReconstructInto and the four converters — from
// several goroutines at once, each call checked against a sequential run.
// Under -race a pooled frame or row used past its Put, or kept in a field
// or global across calls, is touched by two goroutines without ordering
// and is reported as a data race; a poisoned row read back is a mismatch.
func TestConcurrentCallsShareNoScratch(t *testing.T) {
	f := convFix(t)
	q, e := f.q, f.e
	a, b := q.NewPoly(), q.NewPoly()
	fillResidues(a, q.Mods, 1, 0)
	fillResidues(b, q.Mods, 2, 0)
	ext := e.NewPoly()
	fillResidues(ext, e.Mods, 3, 0)
	coeffs := randCoeffs(rand.New(rand.NewSource(4)), q.Q, q.N)

	// One call of every entry point, writing its results into out.
	type results struct {
		mul, conv, mconv, rescale, rescaleNTT, skconv, dec Poly
		rec                                                []*big.Int
	}
	run := func(workers int, out *results) error {
		if err := q.MulAll(out.mul, a, b); err != nil {
			return err
		}
		if err := f.conv.ConvertInto(out.conv, a); err != nil {
			return err
		}
		if err := f.mconv.ConvertInto(out.mconv, a); err != nil {
			return err
		}
		if err := f.rs.RescaleInto(out.rescale, a); err != nil {
			return err
		}
		if err := f.rs.RescaleNTTInto(out.rescaleNTT, a, workers); err != nil {
			return err
		}
		if err := f.sk.ConvertInto(out.skconv, ext); err != nil {
			return err
		}
		if err := q.DecomposeInto(out.dec, coeffs); err != nil {
			return err
		}
		clear(out.rec) // nil entries: ReconstructInto allocates them
		return q.ReconstructInto(out.rec, a)
	}
	fresh := func() *results {
		return &results{
			mul: q.NewPoly(), conv: e.NewPoly(), mconv: e.NewPoly(),
			rescale: f.sub.NewPoly(), rescaleNTT: f.sub.NewPoly(), skconv: q.NewPoly(),
			dec: q.NewPoly(), rec: make([]*big.Int, q.N),
		}
	}
	want := fresh()
	if err := run(1, want); err != nil {
		t.Fatal(err)
	}

	const goroutines, iters = 6, 40
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := fresh()
			for it := 0; it < iters; it++ {
				if err := run(1+(g+it)%2, got); err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got, want) {
					errs <- fmt.Errorf("goroutine %d, call %d: results differ from the sequential run", g, it)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
