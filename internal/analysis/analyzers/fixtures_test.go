package analyzers

import (
	"testing"

	"mqxgo/internal/analysis/analyzertest"
)

// The fixture directory holds code that fails without the analyzer (the
// `// want` lines) and the corrected shapes, which must stay silent.
func TestScratchEscapeFixtures(t *testing.T) {
	analyzertest.Run(t, "testdata/scratchescape", ScratchEscape)
}
