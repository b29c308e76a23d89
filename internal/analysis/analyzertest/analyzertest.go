// Package analyzertest is the fixture harness for the mqxlint analyzers:
// the narrow slice of golang.org/x/tools/go/analysis/analysistest this
// repository needs, rebuilt on the mqx loader. A fixture directory under
// testdata/ is type-checked as one synthetic package against the live
// module (so fixtures may import mqxgo packages), the analyzers under
// test run through mqx.Run, exactly as in mqxlint, and the resulting
// diagnostics are matched against `// want "regexp"` comments in the
// fixture sources.
//
// Expectation grammar, per analysistest convention:
//
//	copy(dst, src) // want `use of pooled scratch src after Put`
//	sink = *bp     // want "package-level variable sink"
//
// Each quoted string is an RE2 regexp matched against the diagnostic
// message; expectations bind to the line the comment sits on, and every
// diagnostic must consume exactly one expectation on its line (and vice
// versa).
package analyzertest

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"mqxgo/internal/analysis/mqx"
)

// expectation is one `// want "re"` clause, bound to a file line.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// Run loads the fixture directory, runs the analyzers over it through
// mqx.Run, and reports any mismatch between diagnostics and `// want`
// expectations as test errors.
func Run(t *testing.T, dir string, analyzers ...*mqx.Analyzer) {
	t.Helper()
	loader, err := mqx.NewLoader("", nil, "")
	if err != nil {
		t.Fatalf("building loader: %v", err)
	}
	prog, err := loader.CheckDir(dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	diags, err := mqx.Run(prog, analyzers)
	if err != nil {
		t.Fatalf("running analyzers over %s: %v", dir, err)
	}
	wants := collectWants(t, prog)
	for _, d := range diags {
		pos := prog.Position(d.Pos)
		if w := matchWant(wants, pos.Filename, pos.Line, d.Message); w != nil {
			w.matched = true
			continue
		}
		t.Errorf("%s:%d: unexpected diagnostic: [%s] %s", pos.Filename, pos.Line, d.Analyzer, d.Message)
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.raw)
		}
	}
}

// matchWant finds the first unconsumed expectation on (file, line) whose
// regexp matches the message.
func matchWant(wants []*expectation, file string, line int, msg string) *expectation {
	for _, w := range wants {
		if !w.matched && w.file == file && w.line == line && w.re.MatchString(msg) {
			return w
		}
	}
	return nil
}

// wantClause extracts the quoted regexp strings from one want comment
// body — double-quoted or backquoted, per analysistest convention.
var wantClause = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

func collectWants(t *testing.T, prog *mqx.Program) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, pkg := range prog.Targets() {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					body := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if !strings.HasPrefix(body, "want ") {
						continue
					}
					pos := prog.Position(c.Pos())
					clauses := wantClause.FindAllString(strings.TrimPrefix(body, "want "), -1)
					if len(clauses) == 0 {
						t.Fatalf("%s:%d: malformed want comment (no quoted regexp): %s", pos.Filename, pos.Line, c.Text)
					}
					for _, q := range clauses {
						raw, err := strconv.Unquote(q)
						if err != nil {
							t.Fatalf("%s:%d: unquoting %s: %v", pos.Filename, pos.Line, q, err)
						}
						re, err := regexp.Compile(raw)
						if err != nil {
							t.Fatalf("%s:%d: compiling want regexp %q: %v", pos.Filename, pos.Line, raw, err)
						}
						wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: raw})
					}
				}
			}
		}
	}
	return wants
}
