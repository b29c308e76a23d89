package ring

import (
	"testing"

	"mqxgo/internal/modmath"
	"mqxgo/internal/u128"
)

// TestPlanStoresOneTablePerStage pins the plan's table layout: each stage
// and direction holds exactly one twiddle table, compact (N/2^(s+1)
// entries, blk 2^s) exactly when the kernel set has blocked spans and
// 2^s >= blockedMinBlk, dense (N/2 entries, blk 1) otherwise; Precompute
// words ride along only on Shoup64 plans, whose kernels read them.
func TestPlanStoresOneTablePerStage(t *testing.T) {
	m64 := simdMod(t)
	for _, n := range []int{16, 4096} {
		checkPlanTables(t, "barrett128", MustPlan[u128.U128](NewBarrett128(modmath.DefaultModulus128()), n), false)
		for _, tier := range []KernelTier{TierScalar, TierAVX2, TierAVX512} {
			if DetectKernelTier() < tier {
				continue
			}
			checkPlanTables(t, tier.String(), MustPlan[uint64](NewShoup64Tier(m64, tier), n), true)
		}
	}
}

// checkPlanTables checks p's tables; shoup says p runs a Shoup64 kernel
// set, which has blocked spans and reads Precompute words.
func checkPlanTables[T any, R Ring[T]](t *testing.T, name string, p *Plan[T, R], shoup bool) {
	t.Helper()
	if (p.blk != nil) != shoup {
		t.Errorf("%s n=%d: blocked kernels = %v, want %v", name, p.N, p.blk != nil, shoup)
	}
	if len(p.fwdTw) != p.M || len(p.invTw) != p.M {
		t.Fatalf("%s n=%d: %d forward and %d inverse stage tables, want %d each", name, p.N, len(p.fwdTw), len(p.invTw), p.M)
	}
	checkPre := func(what string, tb table[T]) {
		t.Helper()
		switch {
		case !shoup && tb.pre != nil:
			t.Errorf("%s n=%d %s: %d Precompute words on a ring whose kernels read none", name, p.N, what, len(tb.pre))
		case shoup && len(tb.pre) != len(tb.w):
			t.Errorf("%s n=%d %s: %d Precompute words for %d twiddles", name, p.N, what, len(tb.pre), len(tb.w))
		}
	}
	half := p.N / 2
	for s := 0; s < p.M; s++ {
		blk := 1
		if shoup && 1<<s >= 8 {
			blk = 1 << s
		}
		for dir, tb := range map[string]table[T]{"fwd": p.fwdTw[s], "inv": p.invTw[s]} {
			if tb.blk != blk || len(tb.w) != half/blk {
				t.Errorf("%s n=%d %s stage %d: %d entries with blk %d, want %d with blk %d",
					name, p.N, dir, s, len(tb.w), tb.blk, half/blk, blk)
			}
			checkPre(dir, tb)
		}
		want := half
		if blk > 1 {
			want = -1
		}
		if got := fwdStageLen(p, s); got != want {
			t.Errorf("%s n=%d stage %d: FwdStage gave %d twiddles, want %d (-1: panics)", name, p.N, s, got, want)
		}
	}
	for what, tb := range map[string]table[T]{"invTw0Scaled": p.invTw0Scaled, "twist": p.twist, "untwist": p.untwist} {
		if tb.blk != 1 {
			t.Errorf("%s n=%d %s: blk %d, want 1", name, p.N, what, tb.blk)
		}
		checkPre(what, tb)
	}
}

// fwdStageLen is len(p.FwdStage(s)), or -1 when FwdStage panics (as it
// must on a compact stage).
func fwdStageLen[T any, R Ring[T]](p *Plan[T, R], s int) (n int) {
	defer func() {
		if recover() != nil {
			n = -1
		}
	}()
	return len(p.FwdStage(s))
}
