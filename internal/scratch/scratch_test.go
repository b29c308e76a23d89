package scratch_test

import (
	"testing"

	"mqxgo/internal/scratch"
	"mqxgo/internal/u128"
)

type rows struct {
	a []uint64
	b []u128.U128
}

func newPool(n int) *scratch.Pool[rows] {
	return &scratch.Pool[rows]{
		New: func() *rows { return &rows{a: make([]uint64, n), b: make([]u128.U128, n)} },
		Poison: func(r *rows) {
			scratch.Fill(r.a)
			scratch.Fill(r.b)
		},
	}
}

// TestPutPoisonsUnderRace pins the one behaviour the race build adds:
// after Put, every word of a uint64 row and a u128.U128 row reads
// all-ones; in other builds Put leaves the contents as they were.
func TestPutPoisonsUnderRace(t *testing.T) {
	for _, n := range []int{1, 3, 64, 4097} {
		p := newPool(n)
		r := p.Get()
		for i := range r.a {
			r.a[i] = uint64(i)
			r.b[i] = u128.U128{Hi: uint64(i), Lo: uint64(i) + 1}
		}
		p.Put(r)
		for i := range r.a {
			wantA, wantB := uint64(i), u128.U128{Hi: uint64(i), Lo: uint64(i) + 1}
			if scratch.Race {
				wantA, wantB = ^uint64(0), u128.U128{Hi: ^uint64(0), Lo: ^uint64(0)}
			}
			if r.a[i] != wantA || r.b[i] != wantB {
				t.Fatalf("n=%d race=%v: after Put word %d reads %#x, %v; want %#x, %v", n, scratch.Race, i, r.a[i], r.b[i], wantA, wantB)
			}
		}
	}
}

func TestFillBytesAndEmpty(t *testing.T) {
	scratch.Fill([]uint64(nil))
	b := make([]byte, 37)
	scratch.Fill(b)
	for i, c := range b {
		if c != 0xFF {
			t.Fatalf("byte %d = %#x after Fill", i, c)
		}
	}
}

func TestGetPutDoesNotAlloc(t *testing.T) {
	if scratch.Race {
		t.Skip("race instrumentation allocates")
	}
	p := newPool(256)
	p.Put(p.Get())
	if a := testing.AllocsPerRun(100, func() { p.Put(p.Get()) }); a != 0 {
		t.Fatalf("Get/Put allocates %.1f per op in steady state", a)
	}
}
