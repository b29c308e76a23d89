package fhe

import (
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"mqxgo/internal/rns"
)

// FuzzRoundToPlain and TestRNSRoundingDifferential check the RNS
// backend's residue-only scale-and-round against its math/big
// specification, the big-integer round(x / Delta_l) mod t that decryption
// computed before it rounded in residues. The phase residues are fuzzed at
// every level of a k=4 chain, for three plaintext moduli: boundary-steered
// rows (0, q_i-1, small residues) by the pattern byte, like FuzzModSwitch,
// and — with pattern bit 0x10 — phases Delta_l*m + e planted around random
// messages m with |e| up to RoundToPlain's documented bound
// Delta_l/2 - t - k*Delta_l/2^64. A planted phase must decrypt to m, with
// no skip, and the reference must agree.
//
// On the boundary-steered rows the residue rounding computes
// round(t*x/Q_l) with a 128-bit fixed-point fraction, so it may differ
// from the reference only where the exact frac(t*x/Q_l) lies within 2^-60
// of 1/2; the check skips such coefficients and reports how often it
// does. The two exact roundings, round(t*x/Q_l) and round(x/Delta_l),
// themselves differ only within (t+1)/Delta_l of a half-integer, which on
// the narrow levels is wider than 2^-60: there the result must equal the
// exact round(t*x/Q_l), and the check counts it as a convention case.

// levelDelta is Delta_l = floor(Q_l / t), the plaintext scale of a level.
func levelDelta(b *rnsBackend, level int) *big.Int {
	return new(big.Int).Div(b.levels[level].c.Q, new(big.Int).SetUint64(b.t))
}

type roundFix struct {
	schemes []*BackendScheme // one per plaintext modulus in roundTs
}

// roundTs are the fixture's plaintext moduli: the tests' usual 257, the
// benchmark's 40961, and a 29-bit one that leaves the one-tower level a
// Delta of 31 bits, only eight times t.
var roundTs = [...]uint64{257, 40961, 1<<28 + 3}

var (
	roundFixOnce sync.Once
	roundFixture roundFix
)

func roundFixtureGet() *roundFix {
	roundFixOnce.Do(func() {
		c, err := rns.NewContext(59, 4, 32)
		if err != nil {
			panic(err)
		}
		for _, T := range roundTs {
			b, err := NewRNSBackend(c, T)
			if err != nil {
				panic(err)
			}
			roundFixture.schemes = append(roundFixture.schemes, NewBackendScheme(b, 0))
		}
	})
	return &roundFixture
}

// roundStats counts the coefficients a rounding check compared, skipped
// within 2^-60 of a half-integer, and accepted as a convention case.
type roundStats struct {
	coeffs, skipped, convention int
}

func checkRoundToPlain(t *testing.T, seed int64, pattern, levelByte, tByte byte) roundStats {
	t.Helper()
	s := roundFixtureGet().schemes[int(tByte)%len(roundTs)]
	b := s.B.(*rnsBackend)
	level := int(levelByte) % b.Levels()
	lv := b.levels[level]
	c, T := lv.c, b.t
	tBig := new(big.Int).SetUint64(T)
	delta := levelDelta(b, level)
	rng := rand.New(rand.NewSource(seed))

	// The phase residues, and the planted message of each coefficient.
	ph := c.NewPoly()
	planted := pattern&0x10 != 0
	msg := make([]uint64, c.N)
	if planted {
		// e ranges over [-eMax, eMax], eMax the largest integer below
		// Delta_l/2 - t - k*Delta_l/2^64; the pattern's low bits steer it
		// to 0, to the extremes, or to small values.
		eMax := new(big.Int).Rsh(delta, 1)
		eMax.Sub(eMax, tBig)
		slack := new(big.Int).Mul(delta, big.NewInt(int64(len(c.Mods))))
		eMax.Sub(eMax, slack.Rsh(slack, 64)).Sub(eMax, big.NewInt(1))
		span := new(big.Int).Lsh(eMax, 1)
		span.Add(span, big.NewInt(1))
		x, e := new(big.Int), new(big.Int)
		coeffs := make([]*big.Int, c.N)
		for j := range coeffs {
			msg[j] = rng.Uint64() % T
			switch {
			case pattern&1 != 0 && j%3 == 0:
				e.SetInt64(0)
			case pattern&2 != 0 && j%3 == 1:
				e.Set(eMax)
				if rng.Intn(2) == 0 {
					e.Neg(e)
				}
			case pattern&8 != 0:
				e.SetInt64(rng.Int63n(33) - 16)
			default:
				e.Rand(rng, span)
				e.Sub(e, eMax)
			}
			x.SetUint64(msg[j])
			x.Mul(x, delta).Add(x, e)
			coeffs[j] = new(big.Int).Mod(x, c.Q)
		}
		if err := c.DecomposeInto(ph, coeffs); err != nil {
			t.Fatal(err)
		}
	} else {
		for i, row := range ph.Res {
			q := c.Mods[i].Q
			for j := range row {
				switch {
				case pattern&1 != 0 && j%3 == 0:
					row[j] = 0
				case pattern&2 != 0 && j%3 == 1:
					row[j] = q - 1
				case pattern&8 != 0:
					row[j] = rng.Uint64() % 16
				default:
					row[j] = rng.Uint64() % q
				}
			}
		}
	}

	got := b.RoundToPlain(level, ph)
	xs := make([]*big.Int, c.N)
	if err := c.ReconstructInto(xs, ph); err != nil {
		t.Fatal(err)
	}
	halfDelta := new(big.Int).Rsh(delta, 1)
	twoQ := new(big.Int).Lsh(c.Q, 1)
	qOver2to59 := new(big.Int).Rsh(c.Q, 59)
	convWindow := new(big.Int).Mul(twoQ, new(big.Int).SetUint64(T+1))
	var st roundStats
	ref, tx, r, dist, bound := new(big.Int), new(big.Int), new(big.Int), new(big.Int), new(big.Int)
	for j, x := range xs {
		st.coeffs++
		// The reference: round(x / Delta_l) mod t, rounding half up.
		ref.Add(x, halfDelta).Div(ref, delta).Mod(ref, tBig)
		want := ref.Uint64()
		if planted {
			if want != msg[j] || got[j] != msg[j] {
				t.Fatalf("seed %d pattern %x level %d t %d coeff %d: got %d, reference %d, planted message %d",
					seed, pattern, level, T, j, got[j], want, msg[j])
			}
			continue
		}
		if got[j] == want {
			continue
		}
		// dist = |2*(t*x mod Q) - Q|, so the distance of frac(t*x/Q)
		// from 1/2 is dist/(2Q).
		tx.Mul(x, tBig)
		r.Mod(tx, c.Q)
		dist.Lsh(r, 1).Sub(dist, c.Q).Abs(dist)
		if dist.Cmp(qOver2to59) < 0 { // dist/(2Q) < 2^-60
			st.skipped++
			continue
		}
		// Outside the skip window the residue rounding is exact.
		exact := tx.Lsh(tx, 1).Add(tx, c.Q).Div(tx, twoQ).Mod(tx, tBig).Uint64()
		bound.Mul(dist, delta)
		if got[j] == exact && bound.Cmp(convWindow) < 0 { // dist/(2Q) < (t+1)/Delta_l
			st.convention++
			continue
		}
		t.Fatalf("seed %d pattern %x level %d t %d coeff %d: got %d, want %d (exact round(t*x/Q) %d)",
			seed, pattern, level, T, j, got[j], want, exact)
	}
	return st
}

func FuzzRoundToPlain(f *testing.F) {
	for i, pattern := range []byte{0, 1, 2, 3, 8, 11, 0x10, 0x11, 0x12, 0x18} {
		f.Add(int64(i+1), pattern, byte(i), byte(i))
	}
	f.Fuzz(func(t *testing.T, seed int64, pattern, levelByte, tByte byte) {
		checkRoundToPlain(t, seed, pattern, levelByte, tByte)
	})
}

func TestRNSRoundingDifferential(t *testing.T) {
	var total roundStats
	for seed := int64(0); seed < 3; seed++ {
		for _, pattern := range []byte{0, 1, 2, 3, 8, 11, 0x10, 0x11, 0x12, 0x18} {
			for level := byte(0); level < 4; level++ {
				for ti := range roundTs {
					st := checkRoundToPlain(t, seed, pattern, level, byte(ti))
					total.coeffs += st.coeffs
					total.skipped += st.skipped
					total.convention += st.convention
				}
			}
		}
	}
	t.Logf("%d coefficients: %d skipped within 2^-60 of a half-integer, %d convention cases",
		total.coeffs, total.skipped, total.convention)
}
