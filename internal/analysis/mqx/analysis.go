// Package mqx is a self-contained analysis framework: the narrow slice
// of golang.org/x/tools/go/analysis this repository needs, rebuilt on
// the standard library alone (go/parser + go/types + the source
// importer, with package discovery delegated to `go list`). The shape
// deliberately mirrors go/analysis — an Analyzer owns a Run function
// over a Pass — so the suite can migrate to the real multichecker
// verbatim once the x/tools dependency is available; until then nothing
// outside the toolchain is required to build or run the linters.
//
// The one repo-specific mechanism living here rather than in the
// analyzers is the annotation grammar (annot.go): `//mqx:` directive
// comments on functions that the analyzers read as machine-checked API
// documentation.
package mqx

import (
	"fmt"
	"go/token"
)

// Analyzer describes one static check: a name (used in diagnostics),
// one-paragraph documentation, and the Run function invoked once per
// analyzed package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Diagnostic is one finding, attributed to the analyzer that produced
// it. Pos resolves through the Program's shared FileSet.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Pass carries everything one analyzer invocation may inspect: the
// package under analysis plus the whole loaded Program for cross-package
// queries (annotations on callees in other packages).
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program
	Pkg      *Package

	diags *[]Diagnostic
}

// Reportf records a finding at pos. Duplicate (position, message) pairs
// for the same analyzer are collapsed by the runner, so an analyzer that
// visits one site twice need not dedupe itself.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}
