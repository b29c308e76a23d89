package isa

import (
	"strings"
	"testing"
)

func TestPortSetOps(t *testing.T) {
	s := ports(0, 5)
	if !s.Has(0) || !s.Has(5) || s.Has(1) {
		t.Fatal("Has wrong")
	}
	got := s.Ports()
	if len(got) != 2 || got[0] != 0 || got[1] != 5 {
		t.Fatalf("Ports = %v", got)
	}
	if len(PortSet(0).Ports()) != 0 {
		t.Fatal("empty set wrong")
	}
}

func TestEveryKernelOpHasCostsOnBothMarchs(t *testing.T) {
	// Every op with a name must be costed (natively or via proxy) on both
	// microarchitectures: kernels may emit any of them.
	for op := range opNames {
		for _, m := range Microarchs {
			func() {
				defer func() {
					if recover() != nil {
						t.Errorf("%s: no cost for %v", m.Name, op)
					}
				}()
				c := m.CostOf(op)
				if len(c.Uops) == 0 {
					t.Errorf("%s: %v has zero uops", m.Name, op)
				}
				if c.Lat <= 0 {
					t.Errorf("%s: %v has non-positive latency", m.Name, op)
				}
				for _, u := range c.Uops {
					if u == 0 {
						t.Errorf("%s: %v has a uop with no ports", m.Name, op)
					}
					for _, p := range u.Ports() {
						if p >= len(m.PortNames) {
							t.Errorf("%s: %v uses undefined port %d", m.Name, op, p)
						}
					}
				}
			}()
		}
	}
}

func TestMQXOpsProxyResolved(t *testing.T) {
	for op := range PISAProxy {
		for _, m := range Microarchs {
			if _, native := m.Costs[op]; native {
				t.Errorf("%s: MQX op %v must not have a native entry (PISA-only)", m.Name, op)
			}
			c := m.CostOf(op)
			proxy := m.CostOf(PISAProxy[op])
			if c.Lat != proxy.Lat || len(c.Uops) != len(proxy.Uops) {
				t.Errorf("%s: %v cost differs from proxy %v", m.Name, op, PISAProxy[op])
			}
		}
	}
}

func TestCostOfPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown op")
		}
	}()
	SunnyCove.CostOf(Op(9999))
}

func TestLevelProperties(t *testing.T) {
	if LevelScalar.Lanes() != 1 || LevelAVX2.Lanes() != 4 || LevelAVX512.Lanes() != 8 || LevelMQX.Lanes() != 8 {
		t.Error("lanes wrong")
	}
	for _, l := range SensitivityLevels {
		if l.String() == "level?" {
			t.Errorf("unnamed level %d", l)
		}
	}
}

func TestOpNamesAndPredicates(t *testing.T) {
	if ScalarAdc.String() != "adc" || MQXAdcQ.String() != "vpadcq" {
		t.Error("names wrong")
	}
	if Op(12345).String() != "op?" {
		t.Error("unknown op name wrong")
	}
	if !MQXMulQ.IsMQX() || ScalarAdd.IsMQX() || AVX512AddQ.IsMQX() {
		t.Error("IsMQX wrong")
	}
	// Mnemonics should look like assembly (lowercase, no spaces).
	for op, name := range opNames {
		if strings.ContainsAny(name, " \t") {
			t.Errorf("op %d name %q contains whitespace", op, name)
		}
	}
}
