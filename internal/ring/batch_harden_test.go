package ring

import (
	"sync"
	"sync/atomic"
	"testing"

	"mqxgo/internal/modmath"
)

// TestFanoutPanicPropagates pins the serving-layer contract: a panic
// inside a range running on a pool goroutine reaches the CALLING
// goroutine, where recover() can see it, and the pool — and the frame —
// keep working for subsequent dispatches.
func TestFanoutPanicPropagates(t *testing.T) {
	const n, workers = 64, 4
	var f Fanout
	caught := func() (r any) {
		defer func() { r = recover() }()
		f.Run(n, workers, rangeFunc(func(start, end int) {
			if start == 0 { // first range runs on a pool worker
				panic("chunk boom")
			}
		}))
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
// panicking does not unwind past in-flight pool ranges (they read the
// caller's buffers).
func TestFanoutCallerPanicWaitsForPool(t *testing.T) {
	const n, workers = 64, 4
	var poolDone atomic.Int64
	var mu sync.Mutex
	lastRange := n * (workers - 1) / workers // caller runs the final range
	caught := func() (r any) {
		defer func() { r = recover() }()
		var f Fanout
		f.Run(n, workers, rangeFunc(func(start, end int) {
			if start >= lastRange {
				panic("caller boom")
			}
			mu.Lock()
			poolDone.Add(int64(end - start))
			mu.Unlock()
		}))
		return nil
	}()
	if caught != "caller boom" {
		t.Fatalf("recovered %v, want \"caller boom\"", caught)
	}
	if got := poolDone.Load(); got != int64(lastRange) {
		t.Fatalf("pool chunks completed %d indices before unwind, want %d", got, lastRange)
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
