// Package fixture exercises the scratchescape analyzer: pooled values
// must stay inside their Get/Put window. The useAfterPut shape is the
// PR 7 fused-MAC m==1 aliasing bug — a scratch sub-buffer living past
// its Put — kept here as a permanent regression fixture.
package fixture

import "sync"

var pool = sync.Pool{New: func() any { b := make([]uint64, 64); return &b }}

var sink []uint64

type holder struct{ buf []uint64 }

// plan mirrors ring.Plan's pool accessors: //mqx:scratch values behave
// like Pool.Get results in callers, //mqx:scratchput like Pool.Put.
type plan struct{ pool sync.Pool }

// getScratch hands out a pooled slab; returning it is the accessor's
// job, so the annotation exempts its own return.
//
//mqx:scratch
func (p *plan) getScratch() *[]uint64 {
	return p.pool.Get().(*[]uint64)
}

//mqx:scratchput
func (p *plan) putScratch(bp *[]uint64) { p.pool.Put(bp) }

// useAfterPut is the PR 7 m==1 regression shape: src aliases the slab
// through a sub-slice and is still read after putScratch recycles it.
func (p *plan) useAfterPut(dst []uint64) {
	bp := p.getScratch()
	src := (*bp)[:len(dst)]
	p.putScratch(bp)
	copy(dst, src) // want `use of pooled scratch src after Put`
}

// window is the corrected shape: every alias dies before the Put.
func (p *plan) window(dst []uint64) {
	bp := p.getScratch()
	src := (*bp)[:len(dst)]
	copy(dst, src)
	p.putScratch(bp)
}

// storeEscape parks pooled scratch in a caller-reachable field.
func storeEscape(h *holder) {
	bp := pool.Get().(*[]uint64)
	h.buf = *bp // want `pooled scratch stored into h\.buf, which is reachable outside this call`
	pool.Put(bp)
}

// globalEscape parks pooled scratch in a package-level variable.
func globalEscape() {
	bp := pool.Get().(*[]uint64)
	sink = *bp // want `pooled scratch stored into package-level variable sink`
	pool.Put(bp)
}

// leak returns the pooled value from a function that is not a
// //mqx:scratch accessor.
func leak() []uint64 {
	bp := pool.Get().(*[]uint64)
	defer pool.Put(bp)
	return *bp // want `pooled scratch returned from expression: it outlives its Get/Put window`
}

// copyOut reads an element out of the slab before the Put: a value of
// basic type is caller memory, not an alias, so using it afterwards is
// fine (the slots-decode shape).
func copyOut() uint64 {
	bp := pool.Get().(*[]uint64)
	v := (*bp)[0]
	pool.Put(bp)
	return v
}

// deferredPut uses the sanctioned cleanup idiom: the deferred Put does
// not end the window, so every use below it is in range.
func deferredPut(dst []uint64) {
	bp := pool.Get().(*[]uint64)
	defer pool.Put(bp)
	copy(dst, (*bp)[:len(dst)])
}

var _ = []any{(*plan).useAfterPut, (*plan).window, storeEscape, globalEscape, leak, copyOut, deferredPut}
