package fhe

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"mqxgo/internal/rns"
)

// TestTowerDispatchWidthIsInvisible pins the one thing rnsBackend.towers
// may vary: HOW MANY goroutines run a step's towers, never what they
// compute. The same seeded scheme is built at dispatch widths 1, 2, 3 and
// 5 (below, at, and above the tower count's divisors, so chunks come out
// uneven: the multiply's three scaled components and four extended
// operands split unevenly too), and every evaluation op — multiply,
// squaring, a one-hop and a two-hop rotation, conjugation — at every
// level that key-switches (all but the one-tower bottom rung) must return
// byte-identical ciphertext rows at every width. The multiply of x by a
// row copy of itself takes the general tensor path, so it must also equal
// the squaring shortcut byte for byte.
func TestTowerDispatchWidthIsInvisible(t *testing.T) {
	const n, T, k = 64, 257, 4
	ctx := context.Background()
	c, err := rns.NewContext(59, k, n)
	if err != nil {
		t.Fatal(err)
	}
	// run evaluates the whole op matrix at one width, keyed by op name.
	run := func(workers int) map[string][][]uint64 {
		b, err := NewRNSBackendWorkers(c, T, workers)
		if err != nil {
			t.Fatal(err)
		}
		s := NewBackendScheme(b, 1616)
		sk := s.KeyGen()
		rlk, err := s.RelinKeyGen(sk)
		if err != nil {
			t.Fatal(err)
		}
		gk, err := s.GaloisKeyGen(sk)
		if err != nil {
			t.Fatal(err)
		}
		msg := make([]uint64, n)
		for i := range msg {
			msg[i] = uint64(11*i+3) % T
		}
		x := mustCT(t)(s.Encrypt(sk, msg))
		y := mustCT(t)(s.Encrypt(sk, msg))
		out := map[string][][]uint64{}
		for level := 0; level < b.Levels()-1; level++ {
			if level > 0 {
				x = mustCT(t)(s.ModSwitchCtx(ctx, x))
				y = mustCT(t)(s.ModSwitchCtx(ctx, y))
			}
			xCopy := BackendCiphertext{A: b.Copy(x.A), B: b.Copy(x.B), Level: x.Level}
			for name, ct := range map[string]BackendCiphertext{
				"mul":       mustCT(t)(s.MulCiphertextsCtx(ctx, x, y, rlk)),
				"square":    mustCT(t)(s.MulCiphertextsCtx(ctx, x, x, rlk)),
				"mulcopy":   mustCT(t)(s.MulCiphertextsCtx(ctx, x, xCopy, rlk)),
				"rotate1":   mustCT(t)(s.RotateSlotsCtx(ctx, x, 1, gk)),
				"rotate5":   mustCT(t)(s.RotateSlotsCtx(ctx, x, 5, gk)),
				"conjugate": mustCT(t)(conjugate(ctx, s, x, gk)),
			} {
				if ct.Level != level {
					t.Fatalf("%s at level %d came back at level %d", name, level, ct.Level)
				}
				rows := append([][]uint64{}, ct.A.(rns.Poly).Res...)
				out[fmt.Sprintf("%s/l%d", name, level)] = append(rows, ct.B.(rns.Poly).Res...)
			}
			if sq := fmt.Sprintf("/l%d", level); !reflect.DeepEqual(out["mulcopy"+sq], out["square"+sq]) {
				t.Errorf("workers=%d: mul(x, copy(x)) at level %d differs from square(x)", workers, level)
			}
		}
		return out
	}
	want := run(1)
	if len(want) != 6*(k-1) {
		t.Fatalf("reference matrix has %d cells, want %d", len(want), 6*(k-1))
	}
	for _, workers := range []int{2, 3, 5} {
		for cell, rows := range run(workers) {
			if !reflect.DeepEqual(rows, want[cell]) {
				t.Errorf("workers=%d: %s differs from the sequential result", workers, cell)
			}
		}
	}
}
