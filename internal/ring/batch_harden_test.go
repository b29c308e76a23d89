package ring

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mqxgo/internal/modmath"
)

// goid returns the calling goroutine's ID, the number after "goroutine"
// in its stack header.
func goid() string {
	buf := make([]byte, 64)
	return string(bytes.Fields(buf[:runtime.Stack(buf, false)])[1])
}

// runPair runs a width-2 dispatch whose two ranges each wait until both
// have started, so the caller runs one range and a pool worker the
// other, whichever claims first; then each range calls body, telling it
// which side it runs on.
func runPair(f *Fanout, body func(pool bool)) {
	caller := goid()
	var started atomic.Int32
	f.Run(2, 2, rangeFunc(func(start, end int) {
		started.Add(1)
		for deadline := time.Now().Add(10 * time.Second); started.Load() < 2; runtime.Gosched() {
			if time.Now().After(deadline) {
				panic("no pool worker ran the second range")
			}
		}
		body(goid() != caller)
	}))
}

// TestFanoutPanicPropagates pins the serving-layer contract: a panic
// inside a range running on a pool goroutine reaches the CALLING
// goroutine, where recover() can see it, and the pool — and the frame —
// keep working for subsequent dispatches.
func TestFanoutPanicPropagates(t *testing.T) {
	const n, workers = 64, 4
	var f Fanout
	caught := func() (r any) {
		defer func() { r = recover() }()
		runPair(&f, func(pool bool) {
			if pool {
				panic("chunk boom")
			}
		})
		return nil
	}()
	if caught != "chunk boom" {
		t.Fatalf("recovered %v, want \"chunk boom\"", caught)
	}

	// The pool must survive: a follow-up dispatch covers every index.
	var covered atomic.Int64
	f.Run(n, workers, rangeFunc(func(start, end int) {
		covered.Add(int64(end - start))
	}))
	if covered.Load() != n {
		t.Fatalf("post-panic dispatch covered %d of %d indices", covered.Load(), n)
	}
}

// TestFanoutCallerPanicWaitsForPool proves the caller's own range
// panicking does not unwind past an in-flight pool range (it reads the
// caller's buffers): the pool range starts its last 20 ms only once the
// caller's range is about to panic, and must have finished when the
// panic reaches the caller.
func TestFanoutCallerPanicWaitsForPool(t *testing.T) {
	var callerPanics, poolDone atomic.Bool
	caught := func() (r any) {
		defer func() { r = recover() }()
		var f Fanout
		runPair(&f, func(pool bool) {
			if !pool {
				callerPanics.Store(true)
				panic("caller boom")
			}
			for !callerPanics.Load() {
				runtime.Gosched()
			}
			time.Sleep(20 * time.Millisecond)
			poolDone.Store(true)
		})
		return nil
	}()
	if caught != "caller boom" {
		t.Fatalf("recovered %v, want \"caller boom\"", caught)
	}
	if !poolDone.Load() {
		t.Fatal("the caller unwound before its in-flight pool range finished")
	}
}

// TestFanoutCallerPanicRunsEveryRange holds every pool worker, so the
// dispatch's jobs stay queued and the caller claims every range itself;
// range 0 panics. The panic is parked like a pool-side one: every other
// range still runs exactly once, the panic then reaches the caller, and
// once the pool is released the frame serves the next dispatch in full.
func TestFanoutCallerPanicRunsEveryRange(t *testing.T) {
	const n, workers = 8, 4
	var hits [n]atomic.Int32
	count := rangeFunc(func(start, end int) {
		for i := start; i < end; i++ {
			hits[i].Add(1)
		}
	})
	var f Fanout
	release := holdPool(t)
	caught := func() (r any) {
		defer func() { r = recover() }()
		f.Run(n, workers, rangeFunc(func(start, end int) {
			if start == 0 {
				panic("caller boom")
			}
			count(start, end)
		}))
		return nil
	}()
	release()
	if caught != "caller boom" {
		t.Fatalf("recovered %v, want \"caller boom\"", caught)
	}
	for i := range hits {
		want := int32(1)
		if i < n/workers { // range 0
			want = 0
		}
		if got := hits[i].Load(); got != want {
			t.Errorf("index %d ran %d times beside the panicking range 0, want %d", i, got, want)
		}
		hits[i].Store(0)
	}
	f.Run(n, workers, count)
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Errorf("next dispatch: index %d ran %d times, want 1", i, got)
		}
	}
}

// TestBatchLenValidationBeforeDispatch pins that a malformed batch panics
// on the calling goroutine before any parallel work is dispatched.
func TestBatchLenValidationBeforeDispatch(t *testing.T) {
	p, err := NewPlan[uint64, Shoup64](NewShoup64(modmath.MustModulus64(257)), 8)
	if err != nil {
		t.Fatal(err)
	}
	good := AllocBatch[uint64](8, 4)
	bad := AllocBatch[uint64](8, 4)
	bad[2] = bad[2][:5] // wrong row length

	for _, tc := range []struct {
		name string
		call func()
	}{
		{"forward_bad_input", func() { p.BatchForwardInto(good, bad, 2) }},
		{"forward_bad_dst", func() { p.BatchForwardInto(bad, good, 2) }},
		{"count_mismatch", func() { p.BatchForwardInto(good[:3], good, 2) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("malformed batch did not panic")
				}
			}()
			tc.call()
		})
	}
}
