package analyzers

import (
	"testing"

	"mqxgo/internal/analysis/mqx"
)

// TestSuiteCleanOnRepo is the in-tree form of the CI gate: the suite
// over the whole module must report nothing, so pool-scoped scratch is
// re-checked on each test run, not only in the mqxlint CI job.
func TestSuiteCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	loader, err := mqx.NewLoader("", nil, "")
	if err != nil {
		t.Fatalf("building loader: %v", err)
	}
	prog, err := loader.Load("./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags, err := mqx.Run(prog, All)
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, d := range diags {
		pos := prog.Position(d.Pos)
		t.Errorf("%s:%d:%d: [%s] %s", pos.Filename, pos.Line, pos.Column, d.Analyzer, d.Message)
	}
}
