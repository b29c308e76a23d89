package vm

import (
	"math/bits"
	"math/rand"
	"testing"

	"mqxgo/internal/isa"
)

func randVec(r *rand.Rand) Vec {
	var v Vec
	for i := range v {
		v[i] = r.Uint64()
	}
	return v
}

func randV(m *Machine, r *rand.Rand) V {
	v := m.Set1(0)
	v.X = randVec(r)
	return v
}

func randV4(m *Machine, r *rand.Rand) V4 {
	v := m.Set1x4(0)
	for i := range v.X {
		v.X[i] = r.Uint64()
	}
	return v
}

func TestAVX512LaneSemantics(t *testing.T) {
	m := New(TraceOff)
	r := rand.New(rand.NewSource(31))
	for iter := 0; iter < 200; iter++ {
		a, b := randV(m, r), randV(m, r)
		add := m.Add(a, b)
		sub := m.Sub(a, b)
		mlo := m.MulLo(a, b)
		mud := m.MulUDQ(a, b)
		or := m.Or(a, b)
		srl := m.SrlI(a, 13)
		sll := m.SllI(a, 7)
		for i := 0; i < 8; i++ {
			if add.X[i] != a.X[i]+b.X[i] {
				t.Fatal("Add lane mismatch")
			}
			if sub.X[i] != a.X[i]-b.X[i] {
				t.Fatal("Sub lane mismatch")
			}
			if mlo.X[i] != a.X[i]*b.X[i] {
				t.Fatal("MulLo lane mismatch")
			}
			if mud.X[i] != (a.X[i]&0xffffffff)*(b.X[i]&0xffffffff) {
				t.Fatal("MulUDQ lane mismatch")
			}
			if or.X[i] != a.X[i]|b.X[i] {
				t.Fatal("Or lane mismatch")
			}
			if srl.X[i] != a.X[i]>>13 || sll.X[i] != a.X[i]<<7 {
				t.Fatal("shift lane mismatch")
			}
		}
	}
}

func TestAVX512CmpBlendMask(t *testing.T) {
	m := New(TraceOff)
	r := rand.New(rand.NewSource(32))
	preds := []CmpPred{CmpEq, CmpLt, CmpLe, CmpNeq, CmpNlt, CmpNle}
	for iter := 0; iter < 200; iter++ {
		a, b := randV(m, r), randV(m, r)
		if iter%3 == 0 {
			b.X[iter%8] = a.X[iter%8] // force some equal lanes
		}
		for _, p := range preds {
			k := m.CmpU(p, a, b)
			for i := 0; i < 8; i++ {
				want := cmpU64(p, a.X[i], b.X[i])
				if got := k.K&(1<<uint(i)) != 0; got != want {
					t.Fatalf("CmpU pred %d lane %d: got %v, want %v", p, i, got, want)
				}
			}
		}
		k := m.CmpU(CmpLt, a, b)
		bl := m.Blend(k, a, b)
		for i := 0; i < 8; i++ {
			want := a.X[i]
			if a.X[i] < b.X[i] {
				want = b.X[i]
			}
			if bl.X[i] != want {
				t.Fatal("Blend lane mismatch")
			}
		}
		ka := m.CmpU(CmpLt, a, b)
		kb := m.CmpU(CmpEq, a, b)
		if m.KOr(ka, kb).K != (ka.K | kb.K) {
			t.Fatal("KOr mismatch")
		}
		if m.KAnd(ka, kb).K != (ka.K & kb.K) {
			t.Fatal("KAnd mismatch")
		}
	}
}

func TestMaskAddSub(t *testing.T) {
	m := New(TraceOff)
	r := rand.New(rand.NewSource(33))
	for iter := 0; iter < 200; iter++ {
		src, a, b := randV(m, r), randV(m, r), randV(m, r)
		k := M{K: MaskBits(r.Intn(256))}
		ma := m.MaskAdd(src, k, a, b)
		ms := m.MaskSub(src, k, a, b)
		for i := 0; i < 8; i++ {
			wantA, wantS := src.X[i], src.X[i]
			if k.K&(1<<uint(i)) != 0 {
				wantA = a.X[i] + b.X[i]
				wantS = a.X[i] - b.X[i]
			}
			if ma.X[i] != wantA || ms.X[i] != wantS {
				t.Fatal("MaskAdd/MaskSub lane mismatch")
			}
		}
	}
}

func TestMQXSemantics(t *testing.T) {
	m := New(TraceOff)
	r := rand.New(rand.NewSource(34))
	for iter := 0; iter < 300; iter++ {
		a, b := randV(m, r), randV(m, r)
		ci := M{K: MaskBits(r.Intn(256))}

		hi, lo := m.MulWide(a, b)
		mh := m.MulHi(a, b)
		for i := 0; i < 8; i++ {
			wh, wl := bits.Mul64(a.X[i], b.X[i])
			if hi.X[i] != wh || lo.X[i] != wl || mh.X[i] != wh {
				t.Fatal("MulWide/MulHi lane mismatch")
			}
		}

		sum, co := m.Adc(a, b, ci)
		for i := 0; i < 8; i++ {
			cin := uint64(ci.K>>uint(i)) & 1
			ws, wc := bits.Add64(a.X[i], b.X[i], cin)
			if sum.X[i] != ws {
				t.Fatal("Adc sum mismatch")
			}
			if got := uint64(co.K>>uint(i)) & 1; got != wc {
				t.Fatal("Adc carry mismatch")
			}
		}

		diff, bo := m.Sbb(a, b, ci)
		for i := 0; i < 8; i++ {
			bin := uint64(ci.K>>uint(i)) & 1
			wd, wb := bits.Sub64(a.X[i], b.X[i], bin)
			if diff.X[i] != wd {
				t.Fatal("Sbb diff mismatch")
			}
			if got := uint64(bo.K>>uint(i)) & 1; got != wb {
				t.Fatal("Sbb borrow mismatch")
			}
		}

		pred := M{K: MaskBits(r.Intn(256))}
		pa := m.PredAdc(pred, a, b, ci)
		ps := m.PredSbb(pred, a, b, ci)
		for i := 0; i < 8; i++ {
			cin := uint64(ci.K>>uint(i)) & 1
			wantA, wantS := a.X[i], a.X[i]
			if pred.K&(1<<uint(i)) != 0 {
				wantA = a.X[i] + b.X[i] + cin
				wantS = a.X[i] - b.X[i] - cin
			}
			if pa.X[i] != wantA || ps.X[i] != wantS {
				t.Fatal("PredAdc/PredSbb lane mismatch")
			}
		}
	}
}

func TestPermuteAndUnpack(t *testing.T) {
	m := New(TraceOff)
	var a, b V
	for i := 0; i < 8; i++ {
		a.X[i] = uint64(i)      // 0..7
		b.X[i] = uint64(10 + i) // 10..17
	}
	var idx V
	for i := 0; i < 8; i++ {
		idx.X[i] = uint64(15 - i) // reverse, spanning both sources
	}
	p := m.Permute2(idx, a, b)
	want := Vec{17, 16, 15, 14, 13, 12, 11, 10}
	if p.X != want {
		t.Errorf("Permute2 = %v, want %v", p.X, want)
	}
}

func TestAVX2Semantics(t *testing.T) {
	m := New(TraceOff)
	r := rand.New(rand.NewSource(35))
	sf := m.Set1x4(signBit)
	for iter := 0; iter < 300; iter++ {
		a, b := randV4(m, r), randV4(m, r)
		if iter%4 == 0 {
			b.X[iter%4] = a.X[iter%4]
		}
		add := m.Add4(a, b)
		sub := m.Sub4(a, b)
		mud := m.MulUDQ4(a, b)
		lt := m.CmpGtQ4(m.Xor4(b, sf), m.Xor4(a, sf)) // unsigned a < b
		eq := m.CmpEqQ4(a, b)
		for i := 0; i < 4; i++ {
			if add.X[i] != a.X[i]+b.X[i] || sub.X[i] != a.X[i]-b.X[i] {
				t.Fatal("Add4/Sub4 mismatch")
			}
			if mud.X[i] != (a.X[i]&0xffffffff)*(b.X[i]&0xffffffff) {
				t.Fatal("MulUDQ4 mismatch")
			}
			wantLt := uint64(0)
			if a.X[i] < b.X[i] {
				wantLt = ^uint64(0)
			}
			if lt.X[i] != wantLt {
				t.Fatal("sign-flipped CmpGtQ4 mismatch")
			}
			wantEq := uint64(0)
			if a.X[i] == b.X[i] {
				wantEq = ^uint64(0)
			}
			if eq.X[i] != wantEq {
				t.Fatal("CmpEqQ4 mismatch")
			}
		}
		bl := m.BlendV4(lt, a, b)
		for i := 0; i < 4; i++ {
			want := a.X[i]
			if a.X[i] < b.X[i] {
				want = b.X[i]
			}
			if bl.X[i] != want {
				t.Fatal("BlendV4 mismatch")
			}
		}
	}
	// Unpack fixed vectors.
	var a, b V4
	for i := 0; i < 4; i++ {
		a.X[i] = uint64(i)
		b.X[i] = uint64(10 + i)
	}
	av, bv := V4{X: a.X}, V4{X: b.X}
	if got := m.UnpackLo4(av, bv).X; got != (Vec4{0, 10, 2, 12}) {
		t.Errorf("UnpackLo4 = %v", got)
	}
	if got := m.UnpackHi4(av, bv).X; got != (Vec4{1, 11, 3, 13}) {
		t.Errorf("UnpackHi4 = %v", got)
	}
}

func TestScalarOps(t *testing.T) {
	m := New(TraceOff)
	r := rand.New(rand.NewSource(36))
	for iter := 0; iter < 300; iter++ {
		a, b := S{X: r.Uint64()}, S{X: r.Uint64()}

		sum, cf := m.SAdd(a, b)
		ws, wc := bits.Add64(a.X, b.X, 0)
		if sum.X != ws || cf.B != (wc != 0) {
			t.Fatal("SAdd mismatch")
		}
		sum2, cf2 := m.SAdc(a, b, cf)
		ws2, wc2 := bits.Add64(a.X, b.X, wc)
		if sum2.X != ws2 || cf2.B != (wc2 != 0) {
			t.Fatal("SAdc mismatch")
		}
		d, bf := m.SSub(a, b)
		wd, wb := bits.Sub64(a.X, b.X, 0)
		if d.X != wd || bf.B != (wb != 0) {
			t.Fatal("SSub mismatch")
		}
		d2, bf2 := m.SSbb(a, b, bf)
		wd2, wb2 := bits.Sub64(a.X, b.X, wb)
		if d2.X != wd2 || bf2.B != (wb2 != 0) {
			t.Fatal("SSbb mismatch")
		}
		hi, lo := m.SMulWide(a, b)
		wh, wl := bits.Mul64(a.X, b.X)
		if hi.X != wh || lo.X != wl {
			t.Fatal("SMulWide mismatch")
		}
		if m.SMulLo(a, b).X != a.X*b.X {
			t.Fatal("SMulLo mismatch")
		}
		if m.SCmpLt(a, b).B != (a.X < b.X) || m.SCmpLe(a, b).B != (a.X <= b.X) || m.SCmpEq(a, b).B != (a.X == b.X) {
			t.Fatal("scalar compare mismatch")
		}
		f := m.SCmpLt(a, b)
		if m.SCmov(f, a, b).X != map[bool]uint64{true: b.X, false: a.X}[f.B] {
			t.Fatal("SCmov mismatch")
		}
		g := m.SCmpEq(a, b)
		if m.SFOr(f, g).B != (f.B || g.B) || m.SFAnd(f, g).B != (f.B && g.B) {
			t.Fatal("flag combine mismatch")
		}
		if m.SOr(a, b).X != a.X|b.X {
			t.Fatal("scalar bitwise mismatch")
		}
		if m.SShl(a, 5).X != a.X<<5 || m.SShr(a, 9).X != a.X>>9 {
			t.Fatal("scalar shift mismatch")
		}
	}
}

func TestLoadStore(t *testing.T) {
	m := New(TraceFull)
	m.BeginLoop()
	src := make([]uint64, 16)
	for i := range src {
		src[i] = uint64(i * 7)
	}
	dst := make([]uint64, 16)

	v := m.Load(src, 8)
	m.Store(dst, 0, v)
	for i := 0; i < 8; i++ {
		if dst[i] != src[8+i] {
			t.Fatal("Load/Store mismatch")
		}
	}
	v4 := m.Load4(src, 2)
	m.Store4(dst, 12, v4)
	for i := 0; i < 4; i++ {
		if dst[12+i] != src[2+i] {
			t.Fatal("Load4/Store4 mismatch")
		}
	}
	s := m.SLoad(src, 3)
	m.SStore(dst, 9, s)
	if dst[9] != src[3] {
		t.Fatal("SLoad/SStore mismatch")
	}
	if m.BytesLoaded() != 64+32+8 || m.BytesStored() != 64+32+8 {
		t.Fatalf("byte accounting: loaded %d, stored %d", m.BytesLoaded(), m.BytesStored())
	}
}

func TestTraceModesAndPreamble(t *testing.T) {
	m := New(TraceFull)
	c := m.Set1(5) // preamble
	m.BeginLoop()
	a := m.Add(c, c)
	b := m.Sub(a, c)
	_ = b
	if len(m.Body()) != 2 {
		t.Fatalf("body = %v", m.Body())
	}
	if m.Counts()[isa.AVX512Bcast] != 1 || m.Counts()[isa.AVX512AddQ] != 1 || m.Counts()[isa.AVX512SubQ] != 1 {
		t.Fatal("counts wrong")
	}
	// Dependencies: Sub's first input must be Add's output.
	add, sub := m.Body()[0], m.Body()[1]
	if sub.In[0] != add.Out[0] {
		t.Fatalf("dependency lost: %v -> %v", add, sub)
	}
	if m.TotalOps() != 3 {
		t.Fatalf("TotalOps = %d", m.TotalOps())
	}

	mc := New(TraceCounts)
	mc.BeginLoop()
	x := mc.Set1(1)
	mc.Add(x, x)
	if len(mc.Body()) != 0 {
		t.Fatal("TraceCounts should not record instructions")
	}
	if mc.Counts()[isa.AVX512AddQ] != 1 {
		t.Fatal("TraceCounts should count")
	}

	mo := New(TraceOff)
	mo.BeginLoop()
	y := mo.Set1(1)
	mo.Add(y, y)
	if mo.TotalOps() != 0 {
		t.Fatal("TraceOff should not count")
	}
}
