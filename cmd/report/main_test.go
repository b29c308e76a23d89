package main

import (
	"bytes"
	"strings"
	"testing"

	"mqxgo/internal/core"
)

// TestRunPrintsEverySectionOnce renders the whole report, verification
// included, and checks that each paper artefact appears exactly once.
func TestRunPrintsEverySectionOnce(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, core.DefaultBaselineRatios, true); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, title := range []string{
		"[verify] all ISA tiers bit-match the native 2^12 transform",
		"Table 1 — addition with carry",
		"Table 3 — Proxy instructions",
		"Table 4 — modeled CPUs",
		"Table 5 — Target and proxy instructions",
		"Table 6 — Relative error",
		"Listing 4 — addmod128 on SunnyCove",
		"Figure 1 — NTT performance comparison",
		"Figure 4a — BLAS runtime per element",
		"Figure 4b — BLAS runtime per element",
		"Figure 5a — NTT runtime per butterfly",
		"Figure 5b — NTT runtime per butterfly",
		"Figure 6 — NTT runtime per butterfly",
		"Section 5.5 — schoolbook vs. Karatsuba",
		"RNS vs. double-word kernels",
		"Figure 7a — speed-of-light NTT runtime",
		"Figure 7b — speed-of-light NTT runtime",
		"Headline summary (model) vs. paper claims",
	} {
		if n := strings.Count(out, title); n != 1 {
			t.Errorf("%q printed %d times, want once", title, n)
		}
	}
	_, headline, _ := strings.Cut(out, "Headline summary (model) vs. paper claims")
	for _, claim := range []string{
		"NTT:  AVX-512 over best CPU baseline:",
		"NTT:  MQX over best CPU baseline:",
		"NTT:  MQX over AVX-512:",
		"BLAS: AVX-512 over GMP:",
		"BLAS: MQX over GMP:",
		"MQX single core vs RPU ASIC:",
	} {
		if !strings.Contains(headline, claim) {
			t.Errorf("headline block lacks %q", claim)
		}
	}
}
