// Package rns implements a residue number system over 64-bit NTT-friendly
// primes: the conventional CPU/GPU approach to large-coefficient polynomial
// arithmetic that the paper contrasts with its 128-bit double-word residues
// (Sections 1 and 8). Big coefficients are decomposed into single-word
// residues, each residue tower runs an independent 64-bit NTT, and results
// are reconstructed by the Chinese remainder theorem.
//
// Polynomials are first-class batched values (poly.go): a Poly allocated by
// NewPoly holds its k tower rows in one contiguous backing array, the hot
// conversions DecomposeInto/ReconstructInto run on precomputed Barrett limb
// tables instead of per-coefficient big.Int arithmetic (zero steady-state
// allocations), NegacyclicNTTAll/NegacyclicINTTAll dispatch all k towers
// through the shared internal/ring worker pool as one batch, on a pooled
// ring.Fanout frame that allocates nothing at any width, and MulAll runs
// its towers' products in turn. Every operation writes into a
// destination Poly the caller passes.
package rns

import (
	"fmt"
	"math/big"
	"math/bits"

	"mqxgo/internal/modmath"
	"mqxgo/internal/ntt"
)

// Context is an RNS basis q = q_0 * q_1 * ... * q_{k-1} of distinct
// NTT-friendly primes, with per-tower NTT plans of a fixed size.
type Context struct {
	Mods  []*modmath.Modulus64
	Plans []*ntt.Plan64
	N     int

	Q *big.Int // product of the basis primes

	// CRT reconstruction constants: Qi = Q/q_i, QiInv = Qi^-1 mod q_i.
	qi    []*big.Int
	qiInv []uint64

	// Decomposition constants: qBig[i] mirrors Mods[i].Q as a big.Int for
	// the wide-coefficient fallback; pow32[i][m] = 2^(32m) mod q_i feeds
	// the Barrett-limb fast path; qLimbs is the 64-bit limb count of Q.
	qBig   []*big.Int
	pow32  [][]uint64
	qLimbs int
	// limbFast is true when every prime exceeds 2^32 (so 32-bit halves of
	// big.Int limbs are already reduced residues) and big.Words are 64
	// bits wide (so the 2^(64m) limb-position weights apply);
	// DecomposeInto can then run entirely on word arithmetic.
	limbFast bool
}

// NewContext builds an RNS basis of count primes of the given bit width
// (<= 61), each supporting negacyclic NTTs of size n.
func NewContext(primeBits, count, n int) (*Context, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("rns: size %d is not a power of two", n)
	}
	primes, err := modmath.FindNTTPrimes64(primeBits, uint64(2*n), count)
	if err != nil {
		return nil, err
	}
	return NewContextForPrimes(primes, n)
}

// NewContextForPrimes builds an RNS basis over an explicit list of distinct
// NTT-friendly primes, each supporting negacyclic NTTs of size n. It is how
// extension bases (BEHZ base conversion) are built disjoint from a main
// base whose primes came from the same deterministic search.
func NewContextForPrimes(primes []uint64, n int) (*Context, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("rns: size %d is not a power of two", n)
	}
	if len(primes) == 0 {
		return nil, fmt.Errorf("rns: empty prime list")
	}
	for i, p := range primes {
		for _, q := range primes[:i] {
			if p == q {
				return nil, fmt.Errorf("rns: duplicate prime %d", p)
			}
		}
	}
	c := &Context{N: n, Q: big.NewInt(1), limbFast: bits.UintSize == 64}
	for _, p := range primes {
		mod := modmath.MustModulus64(p)
		plan, err := ntt.CachedPlan64(mod, n)
		if err != nil {
			return nil, err
		}
		c.Mods = append(c.Mods, mod)
		c.Plans = append(c.Plans, plan)
		c.Q.Mul(c.Q, new(big.Int).SetUint64(p))
		if bits.Len64(p) <= 32 {
			c.limbFast = false
		}
	}
	c.qLimbs = (c.Q.BitLen() + 63) / 64
	for _, mod := range c.Mods {
		qi := new(big.Int).Div(c.Q, new(big.Int).SetUint64(mod.Q))
		c.qi = append(c.qi, qi)
		qiModQi := new(big.Int).Mod(qi, new(big.Int).SetUint64(mod.Q)).Uint64()
		c.qiInv = append(c.qiInv, mod.Inv(qiModQi))
		c.qBig = append(c.qBig, new(big.Int).SetUint64(mod.Q))

		// 2^(32m) mod q for every 32-bit half-limb position of a
		// coefficient in [0, Q).
		pw := make([]uint64, 2*c.qLimbs)
		pw[0] = 1 % mod.Q
		r32 := (uint64(1) << 32) % mod.Q
		for m := 1; m < len(pw); m++ {
			pw[m] = mod.Mul(pw[m-1], r32)
		}
		c.pow32 = append(c.pow32, pw)
	}
	return c, nil
}

// Channels returns the number of residue towers.
func (c *Context) Channels() int { return len(c.Mods) }

// QiBig returns a copy of Q/q_i, the CRT weight of tower i. Callers use it
// to derive gadget constants (e.g. (Q/q_i) mod p for another modulus p).
func (c *Context) QiBig(i int) *big.Int { return new(big.Int).Set(c.qi[i]) }

// QiInv returns (Q/q_i)^-1 mod q_i, the CRT scaling residue of tower i:
// multiplying tower i's residue by it yields the fast-base-conversion digit
// z_i with x = sum_i z_i*(Q/q_i) - alpha*Q for some 0 <= alpha < k.
func (c *Context) QiInv(i int) uint64 { return c.qiInv[i] }
