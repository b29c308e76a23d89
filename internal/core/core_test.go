package core

import (
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"mqxgo/internal/modmath"
	"mqxgo/internal/ntt"
	"mqxgo/internal/perfmodel"
	"mqxgo/internal/u128"
)

func TestGenericArithAndBigPlanAgreeWithNative(t *testing.T) {
	mod := modmath.DefaultModulus128()
	n := 32
	p, err := ntt.CachedPlan(mod, n)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(82))
	x := make([]u128.U128, n)
	for i := range x {
		x[i] = u128.New(r.Uint64(), r.Uint64()).Mod(mod.Q)
	}
	want := make([]u128.U128, n)
	p.ForwardInto(want, x)

	got := GenericArith{Q: mod.Q}.Forward(p, x)
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("generic NTT differs at %d", i)
		}
	}

	bp := NewBigPlan(p)
	bigCoeffs := make([]*big.Int, n)
	for i := range bigCoeffs {
		bigCoeffs[i] = x[i].ToBig()
	}
	gotBig := bp.Forward(bigCoeffs)
	for i := range want {
		w, ok := u128.FromBig(gotBig[i])
		if !ok || !w.Equal(want[i]) {
			t.Fatalf("big NTT differs at %d", i)
		}
	}
}

func TestMeasureBaselineRatios(t *testing.T) {
	r, err := MeasureNTTBaselineRatios(modmath.DefaultModulus128(), 256)
	if err != nil {
		t.Fatal(err)
	}
	if r.GenericOverNative < 1 || r.BignumOverNative < 1 {
		t.Fatalf("ratios must be >= 1: %+v", r)
	}
}

func TestFiguresAssemble(t *testing.T) {
	mod := modmath.DefaultModulus128()
	ratios := DefaultBaselineRatios

	for _, mach := range perfmodel.MeasurementMachines {
		f5 := Figure5(mach, mod, ratios)
		if len(f5.Series) != 6 {
			t.Fatalf("figure5 series = %d", len(f5.Series))
		}
		for _, s := range f5.Series {
			if len(s.Values) != len(f5.Sizes) {
				t.Fatalf("figure5 %s: %d values", s.Name, len(s.Values))
			}
			for _, v := range s.Values {
				if v <= 0 {
					t.Fatalf("figure5 %s has non-positive value", s.Name)
				}
			}
		}
		f4 := Figure4(mach, mod, ratios)
		if len(f4.Series) != 5 || len(f4.Series[0].Values) != len(f4.Ops) {
			t.Fatalf("figure4 malformed")
		}
		f7, err := Figure7(mach, mod)
		if err != nil {
			t.Fatal(err)
		}
		if len(f7.MQXSOL.Points) != len(f7.Sizes) || len(f7.Baselines) != 4 {
			t.Fatalf("figure7 malformed")
		}
	}
	if _, err := Figure7(perfmodel.IntelXeon6980P, mod); err == nil {
		t.Error("expected error: SOL target has no SOL target")
	}

	f6 := Figure6(mod)
	if len(f6) != 6 {
		t.Fatalf("figure6 rows = %d", len(f6))
	}
	if f6[0].Label != "Base" || f6[0].Normalized != 1 {
		t.Fatalf("figure6 base row wrong: %+v", f6[0])
	}
	for _, row := range f6[1:] {
		if row.Normalized >= 1 {
			t.Errorf("%s should improve on base: %f", row.Label, row.Normalized)
		}
	}

	f1 := Figure1(mod, ratios)
	if len(f1) != 7 {
		t.Fatalf("figure1 bars = %d", len(f1))
	}
	// Headline relation: single-core AVX-512 beats OpenFHE-32c (paper: 3.8x).
	var openFHE, avx512 float64
	for _, b := range f1 {
		switch b.Label {
		case "OpenFHE (32 cores)":
			openFHE = b.TimeNs
		case "This work, AVX-512 (1 core)":
			avx512 = b.TimeNs
		}
	}
	if ratio := openFHE / avx512; ratio < 2 || ratio > 8 {
		t.Errorf("AVX-512 1-core vs OpenFHE-32c = %.2fx, expected near the paper's 3.8x", ratio)
	}

	rows, err := Table6(mod)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("table6 rows = %d", len(rows))
	}

	kar := KaratsubaComparison(mod)
	if len(kar) != 8 {
		t.Fatalf("karatsuba rows = %d", len(kar))
	}
	wins := 0
	for _, row := range kar {
		if row.Speedup >= 1 {
			wins++
		}
	}
	// Paper: schoolbook wins in (almost) all variants.
	if wins < 6 {
		t.Errorf("schoolbook should win in most configs, won %d of 8", wins)
	}

	h := Summary(mod, ratios)
	if h.AVX512OverBestBaseline <= 1 || h.MQXOverBestBaseline <= h.AVX512OverBestBaseline {
		t.Errorf("headline NTT speedups inconsistent: %+v", h)
	}
	if h.AVX512OverGMPBLAS <= 1 || h.MQXOverGMPBLAS <= h.AVX512OverGMPBLAS {
		t.Errorf("headline BLAS speedups inconsistent: %+v", h)
	}
	if h.MQXSlowdownVsRPU <= 1 {
		t.Errorf("MQX single core should be slower than the ASIC: %+v", h)
	}

	tbl := FormatSeriesTable("T", "n", []string{"1024"}, []NamedSeries{{Name: "x", Values: []float64{1.5}}})
	if !strings.Contains(tbl, "1024") || !strings.Contains(tbl, "1.500") {
		t.Errorf("table formatting broken:\n%s", tbl)
	}
}
