// Package scratch pools per-call working memory. A Pool is a typed
// sync.Pool; in race-detector builds its Put first overwrites the value's
// data words with all-ones bytes, so a buffer read after it was returned
// reads garbage deterministically instead of only when another goroutine
// happens to take it in between. All-ones is a non-residue for every
// 64-bit and 128-bit modulus the engine uses, so poisoned rows fail the
// engine's own range checks and differential tests. In other builds the
// poison is compiled out and Get/Put are exactly sync.Pool's.
package scratch

import (
	"sync"
	"unsafe"
)

// Pool recycles *T values. New builds a value when the pool is empty;
// Poison, when set, overwrites the value's data words (never slice
// headers or pointers to memory the value does not own) and runs only in
// race builds. A Pool must not be copied after first use.
type Pool[T any] struct {
	New    func() *T
	Poison func(*T)
	pool   sync.Pool
}

// Get takes a value from the pool, or builds one with New; its contents
// are unspecified.
func (p *Pool[T]) Get() *T {
	if v, ok := p.pool.Get().(*T); ok {
		return v
	}
	return p.New()
}

// Put returns v to the pool; v must not be used afterwards.
func (p *Pool[T]) Put(v *T) {
	if Race && p.Poison != nil {
		p.Poison(v)
	}
	p.pool.Put(v)
}

// Fill overwrites every byte of s with 0xFF. T must be plain words (no
// pointers): uint64, u128.U128, byte.
func Fill[T any](s []T) {
	if len(s) == 0 {
		return
	}
	fillOnes(unsafe.Pointer(&s[0]), uintptr(len(s))*unsafe.Sizeof(s[0]))
}

// fillOnes stores all-ones over the n bytes at p, a word at a time, then
// the byte tail. The stores are hidden from the race detector, whose
// per-store bookkeeping would otherwise dominate a race build's run time;
// a reader of a recycled buffer still reads the all-ones poison.
//
//go:norace
func fillOnes(p unsafe.Pointer, n uintptr) {
	words := unsafe.Slice((*uint64)(p), n/8)
	for i := range words {
		words[i] = ^uint64(0)
	}
	for i := n &^ 7; i < n; i++ {
		*(*byte)(unsafe.Add(p, i)) = 0xFF
	}
}

// FillRows is Fill on every row.
func FillRows[T any](rows [][]T) {
	for _, r := range rows {
		Fill(r)
	}
}
