package fhe

import (
	"fmt"

	"mqxgo/internal/ring"
)

// Key containers shared by both backends. A key-switch key is one gadget
// key per ladder level; K is the backend's per-level key type, which
// checks its own shape.

// relinKey is a relinearization key: gadget encryptions of s^2, one per
// level.
type relinKey[K any] struct {
	levels []K
}

// galoisKey is a Galois key set: one key-switch key per automorphism
// element galoisKeyElements covers, each encrypting tau_g(s) with the
// relin key's per-level layout.
type galoisKey[K any] struct {
	n       int
	entries map[uint64]*galoisEntry[K]
}

type galoisEntry[K any] struct {
	tab    *ring.GaloisTables // resolved once at keygen: a hop never hits the cache
	levels []K
}

// galoisKeyElements lists the automorphism elements a Galois key set
// covers: the binary ladder of rotation elements 3^(2^j) mod 2n plus the
// conjugation element 2n-1, so O(log n) keys decompose every rotation.
func galoisKeyElements(n int) []uint64 {
	twoN := uint64(2 * n)
	var gs []uint64
	g := uint64(ring.SlotGenerator)
	for m := 1; m < n/2; m *= 2 {
		gs = append(gs, g)
		g = g * g % twoN
	}
	return append(gs, ring.ConjugationElement(n))
}

// newGaloisKey builds the key set for degree n, element by element in
// galoisKeyElements order; levelKeys returns one element's per-level keys
// from its index maps (the order every seeded key depends on).
func newGaloisKey[K any](n int, levelKeys func(tab *ring.GaloisTables) []K) *galoisKey[K] {
	key := &galoisKey[K]{n: n, entries: make(map[uint64]*galoisEntry[K])}
	for _, g := range galoisKeyElements(n) {
		tab, err := ring.GaloisTablesFor(n, g)
		must(err)
		key.entries[g] = &galoisEntry[K]{tab: tab, levels: levelKeys(tab)}
	}
	return key
}

// keyAt returns a key's entry for level, refusing a key built for a
// shorter chain.
func keyAt[K any](what string, levels []K, level int) (*K, error) {
	if level >= len(levels) {
		return nil, fmt.Errorf("fhe: %s key covers %d levels, ciphertext at level %d", what, len(levels), level)
	}
	return &levels[level], nil
}

// relinKeyAt asserts rlk is a relinearization key of backend b (per-level
// key type K) and returns its level entry.
func relinKeyAt[K any](rlk BackendRelinKey, b Backend, level int) (*K, error) {
	key, ok := rlk.(*relinKey[K])
	if !ok {
		return nil, fmt.Errorf("fhe: foreign relinearization key %T on the %s backend", rlk, b.Name())
	}
	return keyAt("relin", key.levels, level)
}

// maxGaloisHops bounds a Galois evaluation's hop count: one per set bit
// of a step count below n/2, or the single conjugation.
const maxGaloisHops = 64

// galoisHops lists the automorphism elements one Galois evaluation
// applies, in order. It is a fixed-size value so that passing it through
// the Backend interface allocates nothing.
type galoisHops struct {
	g [maxGaloisHops]uint64
	n int
}

// rotationHops lists a slot rotation's hops: the rotation elements
// 3^(2^j) mod 2N for the set bits j of steps normalized into [0, N/2),
// lowest first. The guardrail's hop count is its length.
func (s *BackendScheme) rotationHops(steps int) galoisHops {
	n := s.B.N()
	rows := n / 2
	steps = ((steps % rows) + rows) % rows
	var h galoisHops
	g, twoN := uint64(ring.SlotGenerator), uint64(2*n)
	for ; steps != 0; steps >>= 1 {
		if steps&1 == 1 {
			h.g[h.n] = g
			h.n++
		}
		g = g * g % twoN
	}
	return h
}

// conjugationHops is the row swap's single hop, the element 2N-1.
func (s *BackendScheme) conjugationHops() galoisHops {
	h := galoisHops{n: 1}
	h.g[0] = ring.ConjugationElement(s.B.N())
	return h
}

// galoisStep is one resolved hop: the element's index maps and its key at
// the evaluation's level.
type galoisStep[K any] struct {
	tab *ring.GaloisTables
	key *K
}

// resolveGalois asserts gk is a Galois key set of backend b (per-level
// key type K) built for its degree, and resolves every hop to its tables
// and level key into steps before any hop runs.
func resolveGalois[K any](gk BackendGaloisKey, b Backend, hops *galoisHops, level int, steps *[maxGaloisHops]galoisStep[K]) error {
	key, ok := gk.(*galoisKey[K])
	if !ok {
		return fmt.Errorf("fhe: foreign galois key %T on the %s backend", gk, b.Name())
	}
	if key.n != b.N() {
		return fmt.Errorf("fhe: galois key built for degree %d, want %d", key.n, b.N())
	}
	for i, g := range hops.g[:hops.n] {
		e := key.entries[g]
		if e == nil {
			return fmt.Errorf("fhe: galois key missing element %d", g)
		}
		lk, err := keyAt("galois", e.levels, level)
		if err != nil {
			return err
		}
		steps[i] = galoisStep[K]{e.tab, lk}
	}
	return nil
}
