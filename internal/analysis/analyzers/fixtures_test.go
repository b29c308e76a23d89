package analyzers

import (
	"strings"
	"testing"

	"mqxgo/internal/analysis/analyzertest"
)

// The five analyzer fixture suites: each directory holds code that fails
// without its analyzer (the `// want` lines), the corrected shapes, and
// an //mqx:allow-suppressed variant proving the escape hatch works.

func TestHotAllocFixtures(t *testing.T) {
	analyzertest.Run(t, "testdata/hotalloc", HotAlloc)
}

func TestScratchEscapeFixtures(t *testing.T) {
	analyzertest.Run(t, "testdata/scratchescape", ScratchEscape)
}

func TestLazyRangeFixtures(t *testing.T) {
	analyzertest.Run(t, "testdata/lazyrange", LazyRange)
}

func TestCtxPhaseFixtures(t *testing.T) {
	analyzertest.Run(t, "testdata/ctxphase", CtxPhase)
}

func TestValidateFirstFixtures(t *testing.T) {
	analyzertest.Run(t, "testdata/validatefirst", ValidateFirst)
}

// TestMalformedAllow checks the suppression grammar's failure mode: an
// //mqx:allow with no reason suppresses nothing and is itself reported.
// Asserted by hand because the malformed finding lands on the allow
// comment's own line, where a `// want` comment cannot sit.
func TestMalformedAllow(t *testing.T) {
	res := analyzertest.Diags(t, "testdata/allowsyntax", HotAlloc)
	var sawMalformed, sawUnsuppressed bool
	for _, d := range res.Diagnostics {
		switch {
		case d.Analyzer == "mqxallow" && strings.Contains(d.Message, "malformed //mqx:allow"):
			sawMalformed = true
		case d.Analyzer == "hotalloc" && strings.Contains(d.Message, "heap allocation (make)"):
			sawUnsuppressed = true
		default:
			pos := res.Prog.Position(d.Pos)
			t.Errorf("%s:%d: unexpected diagnostic: [%s] %s", pos.Filename, pos.Line, d.Analyzer, d.Message)
		}
	}
	if !sawMalformed {
		t.Errorf("reasonless //mqx:allow was not reported as malformed")
	}
	if !sawUnsuppressed {
		t.Errorf("reasonless //mqx:allow suppressed the hotalloc finding; the reason is supposed to be mandatory")
	}
}
