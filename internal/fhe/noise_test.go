package fhe

import (
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"mqxgo/internal/rns"
)

// TestNoiseBitsMatchesBigInt and FuzzNoiseBits check the RNS backend's
// residue noise measurement against its math/big specification,
// noiseBitLensBig: the CRT reconstruction NoiseBits ran before it measured
// in fixed-width words. Every coefficient is compared on its own (through
// a one-coefficient view of the phase) and the whole-phase maximum too,
// at every level of four bases: k = 3, 4, 5 towers of 59-bit primes and
// k = 5 of 61-bit primes, the widest words the towers allow. The results
// must be bit-identical.

// noiseBases are the fixture's bases, as rns.NewContext arguments.
var noiseBases = [...]struct{ bits, k int }{{59, 3}, {59, 4}, {59, 5}, {61, 5}}

var (
	noiseFixOnce sync.Once
	noiseFix     []*rnsBackend
)

func noiseFixtureGet() []*rnsBackend {
	noiseFixOnce.Do(func() {
		for _, nb := range noiseBases {
			c, err := rns.NewContext(nb.bits, nb.k, 64)
			if err != nil {
				panic(err)
			}
			b, err := NewRNSBackend(c, 40961)
			if err != nil {
				panic(err)
			}
			noiseFix = append(noiseFix, b.(*rnsBackend))
		}
	})
	return noiseFix
}

// noiseBitLensBig is the big-integer noise measurement, per coefficient:
// reconstruct x, take x - Delta_l*(msg mod t) mod Q_l, centre it against
// floor(Q_l/2), and return its bit length.
func noiseBitLensBig(b *rnsBackend, level int, a rns.Poly, msg []uint64) []int {
	lv := b.levels[level]
	coeffs := make([]*big.Int, lv.c.N)
	must(lv.c.ReconstructInto(coeffs, a))
	out := make([]int, len(coeffs))
	delta, halfQ := levelDelta(b, level), new(big.Int).Rsh(lv.c.Q, 1)
	noise := new(big.Int)
	for i, x := range coeffs {
		noise.SetUint64(msg[i] % b.t)
		noise.Mul(noise, delta)
		noise.Sub(x, noise)
		noise.Mod(noise, lv.c.Q)
		if noise.Cmp(halfQ) > 0 {
			noise.Sub(lv.c.Q, noise)
		}
		out[i] = noise.BitLen()
	}
	return out
}

// checkNoiseBits compares the residue pass with the oracle on the phase
// a, coefficient by coefficient and as a whole.
func checkNoiseBits(t *testing.T, b *rnsBackend, level int, a rns.Poly, msg []uint64) {
	t.Helper()
	want := noiseBitLensBig(b, level, a, msg)
	maxWant := 0
	one := rns.Poly{Res: make([][]uint64, len(a.Res))}
	for j, w := range want {
		for i, row := range a.Res {
			one.Res[i] = row[j : j+1]
		}
		if got := b.NoiseBits(level, one, msg[j:j+1]); got != w {
			t.Fatalf("%s level %d coeff %d: residue NoiseBits %d, big-integer %d", b.Name(), level, j, got, w)
		}
		maxWant = max(maxWant, w)
	}
	if got := b.NoiseBits(level, a, msg); got != maxWant {
		t.Fatalf("%s level %d: residue NoiseBits %d over the phase, big-integer %d", b.Name(), level, got, maxWant)
	}
}

// plantNoise returns the phase whose coefficient j is Delta_l*msg[j] +
// noise[j] mod Q_l.
func plantNoise(b *rnsBackend, level int, msg []uint64, noise []*big.Int) rns.Poly {
	lv := b.levels[level]
	coeffs := make([]*big.Int, lv.c.N)
	delta := levelDelta(b, level)
	for j := range coeffs {
		x := new(big.Int).SetUint64(msg[j] % b.t)
		x.Mul(x, delta).Add(x, noise[j])
		coeffs[j] = x.Mod(x, lv.c.Q)
	}
	a := lv.c.NewPoly()
	must(lv.c.DecomposeInto(a, coeffs))
	return a
}

// boundaryNoise lists the noise values where the centred measurement can
// go wrong: 0, ±1, floor(Q_l/2) and the value above it, Q_l - 1, and
// ±(2^j - 1), ±2^j, ±(2^j + 1) for every j below the bit length of Q_l.
func boundaryNoise(q *big.Int) []*big.Int {
	half := new(big.Int).Rsh(q, 1)
	out := []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(-1),
		half, new(big.Int).Add(half, big.NewInt(1)), new(big.Int).Sub(q, big.NewInt(1))}
	for j := 0; j < q.BitLen(); j++ {
		p := new(big.Int).Lsh(big.NewInt(1), uint(j))
		for _, d := range []int64{-1, 0, 1} {
			e := new(big.Int).Add(p, big.NewInt(d))
			out = append(out, e, new(big.Int).Neg(e))
		}
	}
	return out
}

// randomMsg draws messages, a quarter of them at or above t (NoiseBits
// reads them mod t).
func randomMsg(rng *rand.Rand, n int, t uint64) []uint64 {
	msg := make([]uint64, n)
	for j := range msg {
		if msg[j] = rng.Uint64() % t; rng.Intn(4) == 0 {
			msg[j] = rng.Uint64()
		}
	}
	return msg
}

func TestNoiseBitsMatchesBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, b := range noiseFixtureGet() {
		for level := 0; level < b.Levels(); level++ {
			lv := b.levels[level]
			n := lv.c.N
			// Random phases: uniform residues, so uniform noise mod Q_l.
			for rep := 0; rep < 4; rep++ {
				a := lv.c.NewPoly()
				for i, row := range a.Res {
					for j := range row {
						row[j] = rng.Uint64() % lv.c.Mods[i].Q
					}
				}
				checkNoiseBits(t, b, level, a, randomMsg(rng, n, b.t))
			}
			// Every boundary noise value, N coefficients at a time.
			edges := boundaryNoise(lv.c.Q)
			for lo := 0; lo < len(edges); lo += n {
				noise := make([]*big.Int, n)
				for j := range noise {
					noise[j] = edges[(lo+j)%len(edges)]
				}
				msg := randomMsg(rng, n, b.t)
				checkNoiseBits(t, b, level, plantNoise(b, level, msg, noise), msg)
			}
		}
	}
}

// FuzzNoiseBits steers the phase by the pattern byte: uniform residues
// (0), boundary residues 0 and q_i - 1 (bit 0x01), or noise planted around
// random messages — small (0x02), boundary values (0x04) or uniform below
// floor(Q_l/2) in magnitude (otherwise, with 0x08).
func FuzzNoiseBits(f *testing.F) {
	for i, pattern := range []byte{0, 1, 2, 4, 8, 0x0c, 0x0e} {
		f.Add(int64(i+1), pattern, byte(i), byte(i))
	}
	f.Fuzz(func(t *testing.T, seed int64, pattern, levelByte, basisByte byte) {
		bs := noiseFixtureGet()
		b := bs[int(basisByte)%len(bs)]
		level := int(levelByte) % b.Levels()
		lv := b.levels[level]
		n := lv.c.N
		rng := rand.New(rand.NewSource(seed))
		msg := randomMsg(rng, n, b.t)
		if pattern&0x0e == 0 {
			a := lv.c.NewPoly()
			for i, row := range a.Res {
				q := lv.c.Mods[i].Q
				for j := range row {
					switch {
					case pattern&1 != 0 && j%3 == 0:
						row[j] = 0
					case pattern&1 != 0 && j%3 == 1:
						row[j] = q - 1
					default:
						row[j] = rng.Uint64() % q
					}
				}
			}
			checkNoiseBits(t, b, level, a, msg)
			return
		}
		edges := boundaryNoise(lv.c.Q)
		half := new(big.Int).Rsh(lv.c.Q, 1)
		noise := make([]*big.Int, n)
		for j := range noise {
			switch {
			case pattern&0x02 != 0 && j%3 == 0:
				noise[j] = big.NewInt(rng.Int63n(65) - 32)
			case pattern&0x04 != 0 && j%3 != 2:
				noise[j] = edges[rng.Intn(len(edges))]
			default:
				e := new(big.Int).Rand(rng, half)
				if rng.Intn(2) == 0 {
					e.Neg(e)
				}
				noise[j] = e
			}
		}
		checkNoiseBits(t, b, level, plantNoise(b, level, msg, noise), msg)
	})
}
