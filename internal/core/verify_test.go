package core

import (
	"testing"

	"mqxgo/internal/modmath"
)

func TestVerifyAllTiers(t *testing.T) {
	mod := modmath.DefaultModulus128()
	if err := VerifyAllTiers(mod, 64); err != nil {
		t.Fatal(err)
	}
	// Invalid size propagates an error.
	if err := VerifyAllTiers(mod, 3); err == nil {
		t.Error("expected plan error for size 3")
	}
	// Too small for the 8-lane tiers.
	if err := VerifyAllTiers(mod, 8); err == nil {
		t.Error("expected lane-count error for size 8")
	}
}
