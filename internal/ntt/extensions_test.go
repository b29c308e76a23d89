package ntt

import (
	"math/rand"
	"testing"

	"mqxgo/internal/ring"
	"mqxgo/internal/u128"
)

func TestBatchTransforms(t *testing.T) {
	mod := testMod(t)
	r := rand.New(rand.NewSource(94))
	n := 128
	p := mustPlan(t, mod, n)
	const batch = 9 // deliberately not a multiple of workers
	inputs := make([][]u128.U128, batch)
	for i := range inputs {
		inputs[i] = randPoly(r, mod, n)
	}
	for _, workers := range []int{0, 1, 3, 16} {
		fwd := ring.AllocBatch[u128.U128](n, batch)
		p.BatchForwardInto(fwd, inputs, workers)
		for i := range inputs {
			want := forward(p, inputs[i])
			for j := 0; j < n; j++ {
				if !fwd[i][j].Equal(want[j]) {
					t.Fatalf("workers=%d: batch forward %d differs at %d", workers, i, j)
				}
			}
		}
	}
}
