package fhe

import (
	"context"
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"mqxgo/internal/rns"
)

// FuzzModSwitch differentially checks the Backend-seam modulus switch on
// the RNS path against its math/big specification: for every coefficient
// x of the input, the switched coefficient must equal round(x / q_dropped)
// mod the remaining towers — the same divide-and-round the oracle backend
// computes with big integers. The fuzzed rows are coefficient form; they
// cross into the evaluation form every ciphertext takes before the switch
// (so the evaluation-domain rescale is what runs) and the result crosses
// back before the comparison. The fuzzed level byte picks the rung, the
// pattern byte steers residues into boundary values (0, q_i-1, small)
// exactly like the rns-package conversions fuzz.

type modSwitchFix struct {
	c        *rns.Context
	s        *BackendScheme
	prefixes []*rns.Context // prefix context per switchable level
}

var (
	msFixOnce sync.Once
	msFix     modSwitchFix
)

func modSwitchFixture() *modSwitchFix {
	msFixOnce.Do(func() {
		const n, T = 32, 257
		c, err := rns.NewContext(59, 4, n)
		if err != nil {
			panic(err)
		}
		b, err := NewRNSBackend(c, T)
		if err != nil {
			panic(err)
		}
		msFix = modSwitchFix{c: c, s: NewBackendScheme(b, 0)}
		primes := make([]uint64, 4)
		for i, mod := range c.Mods {
			primes[i] = mod.Q
		}
		for level := 0; level < 3; level++ {
			p, err := rns.NewContextForPrimes(primes[:4-level], n)
			if err != nil {
				panic(err)
			}
			msFix.prefixes = append(msFix.prefixes, p)
		}
	})
	return &msFix
}

func checkModSwitch(t *testing.T, seed int64, pattern, levelByte byte) {
	t.Helper()
	f := modSwitchFixture()
	b := f.s.B
	level := int(levelByte) % (b.Levels() - 1)
	ct := BackendCiphertext{A: b.NewPolyAt(level), B: b.NewPolyAt(level), Level: level}
	rng := rand.New(rand.NewSource(seed))
	for _, h := range []Poly{ct.A, ct.B} {
		p := h.(rns.Poly)
		for i, row := range p.Res {
			q := f.c.Mods[i].Q
			for j := range row {
				var v uint64
				switch {
				case pattern&1 != 0 && j%3 == 0:
					v = 0
				case pattern&2 != 0 && j%3 == 1:
					v = q - 1
				case pattern&8 != 0:
					v = rng.Uint64() % 16
				default:
					v = rng.Uint64() % q
				}
				row[j] = v
			}
		}
	}
	// math/big reference over the level's prefix basis, taken from the
	// coefficient rows before they cross.
	towers := 4 - level
	full := f.prefixes[level]
	var coeffs [2][]*big.Int
	for hi, h := range []Poly{ct.A, ct.B} {
		coeffs[hi] = make([]*big.Int, full.N)
		if err := full.ReconstructInto(coeffs[hi], h.(rns.Poly)); err != nil {
			t.Fatal(err)
		}
		b.ToNTT(level, h, h)
	}
	dst := BackendCiphertext{A: b.NewPolyAt(level + 1), B: b.NewPolyAt(level + 1), Level: level + 1}
	if err := f.s.ModSwitchInto(context.Background(), &dst, ct); err != nil {
		t.Fatal(err)
	}
	qk := new(big.Int).SetUint64(f.c.Mods[towers-1].Q)
	half := new(big.Int).Rsh(qk, 1)
	tmp := new(big.Int)
	for hi, h := range []Poly{dst.A, dst.B} {
		b.ToCoeff(level+1, h, h)
		got := h.(rns.Poly)
		for j, x := range coeffs[hi] {
			y := tmp.Add(x, half)
			y.Div(y, qk)
			for i := 0; i < towers-1; i++ {
				want := new(big.Int).Mod(y, new(big.Int).SetUint64(f.c.Mods[i].Q)).Uint64()
				if got.Res[i][j] != want {
					t.Fatalf("seed %d pattern %x level %d: component %d coeff %d tower %d: got %d, want %d",
						seed, pattern, level, hi, j, i, got.Res[i][j], want)
				}
			}
		}
	}
}

func FuzzModSwitch(f *testing.F) {
	f.Add(int64(1), byte(0), byte(0))
	f.Add(int64(2), byte(1), byte(1))
	f.Add(int64(3), byte(2), byte(2))
	f.Add(int64(4), byte(8), byte(0))
	f.Add(int64(5), byte(3), byte(1))
	f.Add(int64(6), byte(11), byte(2))
	f.Fuzz(func(t *testing.T, seed int64, pattern, levelByte byte) {
		checkModSwitch(t, seed, pattern, levelByte)
	})
}

func TestModSwitchMatchesBigInt(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		for _, pattern := range []byte{0, 1, 2, 3, 8, 11} {
			for level := byte(0); level < 3; level++ {
				checkModSwitch(t, seed, pattern, level)
			}
		}
	}
}
