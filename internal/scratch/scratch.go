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
	b := unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0])))
	// Doubling copies: a handful of memmoves instead of one store per byte,
	// which the race detector would instrument one by one.
	b[0] = 0xFF
	for i := 1; i < len(b); i *= 2 {
		copy(b[i:], b[:i])
	}
}

// FillRows is Fill on every row.
func FillRows[T any](rows [][]T) {
	for _, r := range rows {
		Fill(r)
	}
}
