package ring

import (
	"testing"

	"mqxgo/internal/modmath"
	"mqxgo/internal/u128"
)

// TestPlanStoresOneTablePerStage pins the plan's table layout: each stage
// and direction holds exactly one twiddle table, compact (N/2^(s+1)
// entries, blk 2^s) exactly when 2^s >= blockedMinBlk, dense (N/2
// entries, blk 1) otherwise, for both rings at every tier; Precompute
// words ride along exactly where the ring's spans read them (Shoup64,
// and Barrett128 at avx512ifma). FwdStage expands every stage to its N/2
// dense twiddles.
func TestPlanStoresOneTablePerStage(t *testing.T) {
	m64 := simdMod(t)
	m128 := modmath.DefaultModulus128()
	for _, n := range []int{16, 4096} {
		for _, tier := range []KernelTier{TierScalar, TierAVX2, TierAVX512, TierAVX512IFMA} {
			if DetectKernelTier() < tier {
				continue
			}
			checkPlanTables(t, "barrett128/"+tier.String(), MustPlan[u128.U128](NewBarrett128Tier(m128, tier), n), tier == TierAVX512IFMA)
			checkPlanTables(t, "shoup64/"+tier.String(), MustPlan[uint64](NewShoup64Tier(m64, tier), n), true)
		}
	}
}

// checkPlanTables checks p's tables; withPre says p's spans read
// Precompute words.
func checkPlanTables[T comparable, R Ring[T]](t *testing.T, name string, p *Plan[T, R], withPre bool) {
	t.Helper()
	if len(p.fwdTw) != p.M || len(p.invTw) != p.M {
		t.Fatalf("%s n=%d: %d forward and %d inverse stage tables, want %d each", name, p.N, len(p.fwdTw), len(p.invTw), p.M)
	}
	checkPre := func(what string, tb table[T]) {
		t.Helper()
		switch {
		case !withPre && tb.pre != nil:
			t.Errorf("%s n=%d %s: %d Precompute words on a ring whose kernels read none", name, p.N, what, len(tb.pre))
		case withPre && len(tb.pre) != len(tb.w):
			t.Errorf("%s n=%d %s: %d Precompute words for %d twiddles", name, p.N, what, len(tb.pre), len(tb.w))
		}
		for i := range tb.pre {
			if tb.pre[i] != p.R.Precompute(tb.w[i]) {
				t.Fatalf("%s n=%d %s: entry %d's Precompute word is not its twiddle's", name, p.N, what, i)
			}
		}
	}
	half := p.N / 2
	for s := 0; s < p.M; s++ {
		blk := 1
		if 1<<s >= 8 {
			blk = 1 << s
		}
		for dir, tb := range map[string]table[T]{"fwd": p.fwdTw[s], "inv": p.invTw[s]} {
			if tb.blk != blk || len(tb.w) != half/blk {
				t.Errorf("%s n=%d %s stage %d: %d entries with blk %d, want %d with blk %d",
					name, p.N, dir, s, len(tb.w), tb.blk, half/blk, blk)
			}
			checkPre(dir, tb)
		}
		dense := p.FwdStage(s)
		if len(dense) != half {
			t.Fatalf("%s n=%d stage %d: FwdStage gave %d twiddles, want %d", name, p.N, s, len(dense), half)
		}
		for i, w := range dense {
			if want := p.fwdTw[s].w[i/blk]; w != want {
				t.Fatalf("%s n=%d stage %d: FwdStage twiddle %d is not the table's", name, p.N, s, i)
			}
		}
		dense[0] = p.NInv // a fresh slice: writing it leaves the table alone
		if p.fwdTw[s].w[0] != p.R.FromUint64(1) {
			t.Fatalf("%s n=%d stage %d: FwdStage returned a view of the table", name, p.N, s)
		}
	}
	for what, tb := range map[string]table[T]{"twist": p.twist, "untwist": p.untwist} {
		if tb.blk != 1 {
			t.Errorf("%s n=%d %s: blk %d, want 1", name, p.N, what, tb.blk)
		}
		checkPre(what, tb)
	}
}
