package rns

import (
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"mqxgo/internal/modmath"
)

// Test and fuzz coverage for the BEHZ base-management trio. Every check
// is differential against a math/big reference reconstruction: the
// approximate FastBConv must match its integer specification exactly
// (including the overshoot alpha), the Shenoy-Kumaresan conversion must
// be exact for every |y| < P/2, and the rescaler must equal
// round(x / q_{k-1}). Inputs cover boundary residues {0, q_i-1} and the
// lazy [0, 2q) domain the PR 3 kernels introduced.

// bcFix is the shared conversion fixture: a 3-tower base Q and a 5-tower
// extension base (4 towers of P plus m_sk), built once because fuzz
// bodies run millions of times.
type bcFix struct {
	q, e  *Context
	conv  *BaseConverter
	mconv *MontBaseConverter
	sk    *SKConverter
	p     *big.Int // product of the extension base minus m_sk
	sub   *Context // q with its last tower dropped
	rs    *Rescaler
}

var (
	fixOnce, fix62Once sync.Once
	fix, fix62         bcFix
)

// newBCFix builds the fixture over 8 primes: 3 for Q, 5 for the
// extension base.
func newBCFix(primes []uint64) bcFix {
	const n = 32
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	q, err := NewContextForPrimes(primes[:3], n)
	must(err)
	e, err := NewContextForPrimes(primes[3:8], n)
	must(err)
	conv, err := NewBaseConverter(q, e)
	must(err)
	mconv, err := NewMontBaseConverter(q, e, 1<<16)
	must(err)
	sk, err := NewSKConverter(e, q)
	must(err)
	p := new(big.Int).Div(e.Q, new(big.Int).SetUint64(e.Mods[4].Q))
	sub, err := NewContextForPrimes(primes[:2], n)
	must(err)
	rs, err := NewRescaler(q, sub)
	must(err)
	return bcFix{q: q, e: e, conv: conv, mconv: mconv, sk: sk, p: p, sub: sub, rs: rs}
}

func convFix(t testing.TB) *bcFix {
	fixOnce.Do(func() {
		primes, err := modmath.FindNTTPrimes64(59, 64, 8)
		if err != nil {
			panic(err)
		}
		fix = newBCFix(primes)
	})
	return &fix
}

// convFix62 is the same fixture over primes just below 2^62, the widest
// modmath.Modulus64 admits (modmath.FindNTTPrimes64 stops at 61 bits):
// the kernel's acc + t < 4q bound comes closest to 2^64 here, with lazy
// inputs on top.
func convFix62(t testing.TB) *bcFix {
	fix62Once.Do(func() {
		var primes []uint64
		for q := uint64(1)<<62 - 63; len(primes) < 8; q -= 64 {
			if new(big.Int).SetUint64(q).ProbablyPrime(20) {
				primes = append(primes, q)
			}
		}
		fix62 = newBCFix(primes)
	})
	return &fix62
}

// fillResidues derives one residue matrix from a seeded generator,
// steering toward the corners the pattern byte selects: zero rows,
// q_i - 1 rows, small values, and lazy [0, 2q) representations.
func fillResidues(p Poly, mods []*modmath.Modulus64, seed int64, pattern byte) {
	rng := rand.New(rand.NewSource(seed))
	lazy := pattern&4 != 0
	for i, mod := range mods {
		row := p.Res[i]
		for j := range row {
			var v uint64
			switch {
			case pattern&1 != 0 && j%3 == 0:
				v = 0
			case pattern&2 != 0 && j%3 == 1:
				v = mod.Q - 1
			case pattern&8 != 0:
				v = rng.Uint64() % 16
			default:
				v = rng.Uint64() % mod.Q
			}
			if lazy {
				v += mod.Q // lazy [0, 2q) representation, still < 2^63
			}
			row[j] = v
		}
	}
}

// refConvert is the integer specification of FastBConv: for each
// coefficient, sum_i z_i*(Q/q_i) with z_i = [x_i * (Q/q_i)^-1]_{q_i},
// reduced mod the target prime. The overshoot alpha*Q is part of the
// spec, so this matches ConvertInto bit for bit.
func refConvert(from *Context, src Poly, j int, target uint64) uint64 {
	sum := new(big.Int)
	term := new(big.Int)
	for i, mod := range from.Mods {
		x := src.Res[i][j] % mod.Q // tolerate lazy inputs like the kernels do
		z := mod.Mul(x, from.qiInv[i])
		term.SetUint64(z)
		term.Mul(term, from.qi[i])
		sum.Add(sum, term)
	}
	return sum.Mod(sum, term.SetUint64(target)).Uint64()
}

func checkBaseConvert(t *testing.T, f *bcFix, seed int64, pattern byte) {
	t.Helper()
	src := f.q.NewPoly()
	fillResidues(src, f.q.Mods, seed, pattern)
	dst := f.e.NewPoly()
	if err := f.conv.ConvertInto(dst, src); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < f.q.N; j++ {
		for jj, mod := range f.e.Mods {
			if want := refConvert(f.q, src, j, mod.Q); dst.Res[jj][j] != want {
				t.Fatalf("seed %d pattern %x: coeff %d ext tower %d: got %d, want %d",
					seed, pattern, j, jj, dst.Res[jj][j], want)
			}
		}
	}
}

// checkMontConvert verifies the m-tilde-corrected conversion's defining
// property against big-integer reconstruction: every coefficient converts
// to a representative y = x + gamma*Q with ONE gamma in {-1, 0} shared by
// all extension towers — the k*Q overshoot of the plain FastBConv is gone.
func checkMontConvert(t *testing.T, f *bcFix, seed int64, pattern byte) {
	t.Helper()
	src := f.q.NewPoly()
	fillResidues(src, f.q.Mods, seed, pattern)
	canon := f.q.NewPoly()
	for i, mod := range f.q.Mods {
		for j, v := range src.Res[i] {
			canon.Res[i][j] = v % mod.Q
		}
	}
	xs := reconstruct(t, f.q, canon)
	dst := f.e.NewPoly()
	if err := f.mconv.ConvertInto(dst, src); err != nil {
		t.Fatal(err)
	}
	tmp := new(big.Int)
	y := new(big.Int)
	for j, x := range xs {
		matched := false
		for _, gamma := range []int64{0, -1} {
			y.SetInt64(gamma)
			y.Mul(y, f.q.Q)
			y.Add(y, x)
			ok := true
			for jj, mod := range f.e.Mods {
				if dst.Res[jj][j] != tmp.Mod(y, tmp.SetUint64(mod.Q)).Uint64() {
					ok = false
					break
				}
			}
			if ok {
				matched = true
				break
			}
		}
		if !matched {
			t.Fatalf("seed %d pattern %x: coeff %d: no gamma in {-1,0} explains the converted residues (x=%v)",
				seed, pattern, j, x)
		}
	}
}

func checkSKConvert(t *testing.T, f *bcFix, seed int64, pattern byte) {
	t.Helper()
	// Draw a centered y with |y| < P/2 per coefficient and lay down its
	// exact residues across the extension base (P towers and m_sk).
	rng := rand.New(rand.NewSource(seed))
	halfP := new(big.Int).Rsh(f.p, 1)
	span := new(big.Int).Sub(f.p, big.NewInt(1)) // y in (-P/2, P/2)
	ys := make([]*big.Int, f.e.N)
	for j := range ys {
		y := new(big.Int).Rand(rng, span)
		switch {
		case pattern&1 != 0 && j%4 == 0:
			y.SetInt64(0)
		case pattern&2 != 0 && j%4 == 1:
			y.Sub(f.p, big.NewInt(1)) // maximal positive after centering offset
		case pattern&8 != 0:
			y.SetInt64(int64(rng.Uint64() % 64))
		}
		y.Sub(y, halfP)
		ys[j] = y
	}
	src := f.e.NewPoly()
	tmp := new(big.Int)
	for i, mod := range f.e.Mods {
		qb := new(big.Int).SetUint64(mod.Q)
		for j, y := range ys {
			v := tmp.Mod(y, qb).Uint64() // Euclidean: signed residues wrap
			if pattern&4 != 0 {          // lazy representation
				v += mod.Q
			}
			src.Res[i][j] = v
		}
	}
	dst := f.q.NewPoly()
	if err := f.sk.ConvertInto(dst, src); err != nil {
		t.Fatal(err)
	}
	for i, mod := range f.q.Mods {
		qb := new(big.Int).SetUint64(mod.Q)
		for j, y := range ys {
			if want := tmp.Mod(y, qb).Uint64(); dst.Res[i][j] != want {
				t.Fatalf("seed %d pattern %x: coeff %d tower %d: got %d, want %d (y=%v)",
					seed, pattern, j, i, dst.Res[i][j], want, y)
			}
		}
	}
}

func checkRescale(t *testing.T, f *bcFix, seed int64, pattern byte) {
	t.Helper()
	full, sub := f.q, f.sub
	src := full.NewPoly()
	fillResidues(src, full.Mods, seed, pattern)
	dst := sub.NewPoly()
	if err := f.rs.RescaleInto(dst, src); err != nil {
		t.Fatal(err)
	}
	// Reference: reconstruct x in [0, Q), divide-and-round by the last
	// prime, reduce into each remaining tower.
	canon := full.NewPoly()
	for i, mod := range full.Mods {
		for j, v := range src.Res[i] {
			canon.Res[i][j] = v % mod.Q
		}
	}
	coeffs := reconstruct(t, full, canon)
	qk := new(big.Int).SetUint64(full.Mods[2].Q)
	half := new(big.Int).Rsh(qk, 1)
	tmp := new(big.Int)
	for j, x := range coeffs {
		y := tmp.Add(x, half)
		y.Div(y, qk)
		for i, mod := range sub.Mods {
			want := new(big.Int).Mod(y, new(big.Int).SetUint64(mod.Q)).Uint64()
			if dst.Res[i][j] != want {
				t.Fatalf("seed %d pattern %x: coeff %d tower %d: got %d, want %d",
					seed, pattern, j, i, dst.Res[i][j], want)
			}
		}
	}
}

// eachBasis sweeps a differential check over seeds and input patterns on
// the 59-bit fixture and on the 62-bit one.
func eachBasis(t *testing.T, check func(t *testing.T, f *bcFix, seed int64, pattern byte)) {
	for _, b := range []struct {
		name string
		f    *bcFix
	}{{"59bit", convFix(t)}, {"62bit", convFix62(t)}} {
		f := b.f
		t.Run(b.name, func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				for _, pattern := range []byte{0, 1, 2, 3, 4, 7, 8, 12, 15} {
					check(t, f, seed, pattern)
				}
			}
		})
	}
}

func TestBaseConverterMatchesBigInt(t *testing.T) { eachBasis(t, checkBaseConvert) }

func TestMontBaseConverterOvershootFree(t *testing.T) { eachBasis(t, checkMontConvert) }

func TestMontBaseConverterValidation(t *testing.T) {
	f := convFix(t)
	if _, err := NewMontBaseConverter(f.q, f.e, 12345); err == nil {
		t.Error("expected error for non-power-of-two m~")
	}
	if _, err := NewMontBaseConverter(f.q, f.e, 4); err == nil {
		t.Error("expected error for m~ <= 2k")
	}
	if _, err := NewMontBaseConverter(f.q, f.e, 1<<32); err == nil {
		t.Error("expected error for m~ above 2^31")
	}
	src := f.q.NewPoly()
	if err := f.mconv.ConvertInto(f.q.NewPoly(), src); err == nil {
		t.Error("expected shape error for destination in the wrong base")
	}
}

func TestSKConverterExact(t *testing.T) { eachBasis(t, checkSKConvert) }

func TestRescalerMatchesBigInt(t *testing.T) { eachBasis(t, checkRescale) }

// TestRescaleNTTMatchesCoefficientPath: the resident rescale on an
// NTT-domain polynomial must be BIT-IDENTICAL to transform -> RescaleInto
// -> transform, for both the sequential and the tower-parallel dispatch —
// the linearity argument (NTT(x + w) = NTT(x) + NTT(w), scalars commute)
// checked in code rather than trusted.
func TestRescaleNTTMatchesCoefficientPath(t *testing.T) {
	eachBasis(t, checkRescaleNTT)
}

func checkRescaleNTT(t *testing.T, f *bcFix, seed int64, pattern byte) {
	t.Helper()
	full, sub := f.q, f.sub
	src := full.NewPoly()
	fillResidues(src, full.Mods, seed, pattern)
	for i, mod := range full.Mods {
		for j := range src.Res[i] {
			src.Res[i][j] %= mod.Q
		}
	}
	want := sub.NewPoly()
	if err := f.rs.RescaleInto(want, src); err != nil {
		t.Fatal(err)
	}
	srcHat := full.NewPoly()
	if err := full.NegacyclicNTTAll(srcHat, src, 1); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		gotHat := sub.NewPoly()
		if err := f.rs.RescaleNTTInto(gotHat, srcHat, workers); err != nil {
			t.Fatal(err)
		}
		got := sub.NewPoly()
		if err := sub.NegacyclicINTTAll(got, gotHat, 1); err != nil {
			t.Fatal(err)
		}
		for i := range got.Res {
			for j := range got.Res[i] {
				if got.Res[i][j] != want.Res[i][j] {
					t.Fatalf("seed %d pattern %x workers %d: tower %d coeff %d: resident %d, coefficient path %d",
						seed, pattern, workers, i, j, got.Res[i][j], want.Res[i][j])
				}
			}
		}
	}
}

func TestRescalerValidation(t *testing.T) {
	f := convFix(t)
	if _, err := NewRescaler(f.q, f.q); err == nil {
		t.Error("expected error for non-prefix target with equal tower count")
	}
	wrong, err := NewContextForPrimes([]uint64{f.q.Mods[0].Q, f.q.Mods[2].Q}, f.q.N)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRescaler(f.q, wrong); err == nil {
		t.Error("expected error for mismatched prefix primes")
	}
	if _, err := NewSKConverter(wrong, f.q); err == nil {
		// wrong has two towers, so this actually succeeds shape-wise;
		// the real invalid case is a single-tower source.
		t.Log("two-tower SK base accepted (valid)")
	}
	single, err := NewContextForPrimes([]uint64{f.q.Mods[0].Q}, f.q.N)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSKConverter(single, f.q); err == nil {
		t.Error("expected error for single-tower Shenoy-Kumaresan base")
	}
}

// FuzzBaseConvert cross-checks both conversion directions against the
// math/big reference: the approximate FastBConv out of base Q and the
// exact Shenoy-Kumaresan conversion back. The pattern byte steers
// residues into boundary values {0, q_i-1}, small values, and the lazy
// [0, 2q) domain.
func FuzzBaseConvert(f *testing.F) {
	f.Add(int64(1), byte(0))
	f.Add(int64(2), byte(1))
	f.Add(int64(3), byte(2))
	f.Add(int64(4), byte(4))
	f.Add(int64(5), byte(7))
	f.Add(int64(6), byte(15))
	// Lazy [q, 2q) inputs combined with the boundary and small-value
	// steering, on top of the all-lazy seed above.
	f.Add(int64(7), byte(5))
	f.Add(int64(8), byte(6))
	f.Add(int64(9), byte(12))
	f.Fuzz(func(t *testing.T, seed int64, pattern byte) {
		for _, fx := range []*bcFix{convFix(t), convFix62(t)} {
			checkBaseConvert(t, fx, seed, pattern)
			checkMontConvert(t, fx, seed, pattern)
			checkSKConvert(t, fx, seed, pattern)
		}
	})
}

// FuzzRescale cross-checks divide-and-round by the last tower against
// big-integer reconstruction, same input steering as FuzzBaseConvert.
func FuzzRescale(f *testing.F) {
	f.Add(int64(1), byte(0))
	f.Add(int64(2), byte(1))
	f.Add(int64(3), byte(2))
	f.Add(int64(4), byte(4))
	f.Add(int64(5), byte(7))
	f.Add(int64(6), byte(15))
	f.Add(int64(7), byte(5))
	f.Add(int64(8), byte(6))
	f.Add(int64(9), byte(12))
	f.Fuzz(func(t *testing.T, seed int64, pattern byte) {
		for _, fx := range []*bcFix{convFix(t), convFix62(t)} {
			checkRescale(t, fx, seed, pattern)
			checkRescaleNTT(t, fx, seed, pattern)
		}
	})
}
