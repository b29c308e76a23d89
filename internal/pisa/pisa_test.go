package pisa

import (
	"math"
	"testing"

	"mqxgo/internal/isa"
	"mqxgo/internal/modmath"
	"mqxgo/internal/perfmodel"
)

func TestValidateProducesAllPairs(t *testing.T) {
	mod := modmath.DefaultModulus128()
	for _, mach := range perfmodel.MeasurementMachines {
		res, err := Validate(mach, mod)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != len(isa.PISAValidationPairs) {
			t.Fatalf("%s: got %d results, want %d", mach.Name, len(res), len(isa.PISAValidationPairs))
		}
		for _, r := range res {
			if r.TargetNs <= 0 || r.ProxyNs <= 0 {
				t.Fatalf("%s %v: non-positive runtimes %+v", mach.Name, r.Pair.Target, r)
			}
			if math.IsNaN(r.EpsilonPct) {
				t.Fatalf("%s %v: NaN epsilon", mach.Name, r.Pair.Target)
			}
			// The paper's sanity threshold: |epsilon| below ~15% for a
			// trustworthy proxy methodology (the paper observes <8% on
			// hardware; our model includes the guard uop, so projections
			// lean conservative).
			if math.Abs(r.EpsilonPct) > 15 {
				t.Errorf("%s %v: |epsilon| = %.2f%% too large", mach.Name, r.Pair.Target, r.EpsilonPct)
			}
		}
	}
}

func TestMaskPairsConservative(t *testing.T) {
	// The masked add/sub proxies carry a guard uop, so PISA should predict
	// runtimes at least as slow as the target (epsilon <= 0).
	mod := modmath.DefaultModulus128()
	res, err := Validate(perfmodel.IntelXeon8352Y, mod)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Pair.Target == isa.AVX512MaskAddQ || r.Pair.Target == isa.AVX512MaskSubQ {
			if r.EpsilonPct > 0 {
				t.Errorf("%v: expected conservative projection, epsilon = %.2f%%", r.Pair.Target, r.EpsilonPct)
			}
		}
	}
}

func TestLevelForTargetUnknown(t *testing.T) {
	if _, err := levelForTarget(isa.ScalarAdd); err == nil {
		t.Fatal("expected error for un-exercised target")
	}
}

func TestProxyTable(t *testing.T) {
	rows := ProxyTable()
	if len(rows) != 3 {
		t.Fatalf("want 3 rows, got %d", len(rows))
	}
	if rows[0][0] != "vpmulq" || rows[0][1] != "vpmullq" {
		t.Fatalf("unexpected first row: %v", rows[0])
	}
}
