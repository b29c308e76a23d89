package mqx

import (
	"go/ast"
	"strings"
)

// FuncAnnot is the parsed set of //mqx: directives from one function's
// doc comment. The grammar (documented in the README's "Static analysis"
// section) is deliberately small:
//
//	//mqx:hotpath
//	    The function and everything it statically calls inside the
//	    module must be allocation-free (hotalloc).
//
//	//mqx:scratch
//	    The function returns pooled scratch (a sync.Pool accessor
//	    wrapper); scratchescape treats its results like Pool.Get values
//	    in callers and permits the wrapper's own return.
//
//	//mqx:scratchput
//	    The function recycles its argument into a pool, like Pool.Put.
//
//	//mqx:validator
//	    The function validates a BackendCiphertext (provenance, level,
//	    shape, residue ranges); a call to it satisfies validatefirst's
//	    "check before component access" rule.
//
//	//mqx:lazy <directive> [<directive>...]
//	    Lazy-reduction range contract (lazyrange), directives:
//	      returns        results may be relaxed, in [0, 2q)
//	      strict         results are canonical, in [0, q)
//	      params=a,b     named params accept relaxed [0, 2q) values
//	      wide=a         named params accept ANY uint64 value
//	      slices=out     the function may store relaxed [0, 2q) values
//	                     into the named slice parameters
type FuncAnnot struct {
	Hotpath    bool
	Scratch    bool
	ScratchPut bool
	Validator  bool

	LazyReturns bool
	LazyStrict  bool
	LazyParams  map[string]bool
	WideParams  map[string]bool
	LazySlices  map[string]bool
}

// HasLazy reports whether any lazy-domain directive is present.
func (a *FuncAnnot) HasLazy() bool {
	return a.LazyReturns || a.LazyStrict || len(a.LazyParams) > 0 ||
		len(a.WideParams) > 0 || len(a.LazySlices) > 0
}

// ParseFuncAnnot extracts //mqx: directives from a doc comment. Unknown
// directives are ignored here; mqxlint's directive hygiene is enforced
// by the fixture suite, not at parse time.
func ParseFuncAnnot(doc *ast.CommentGroup) *FuncAnnot {
	a := &FuncAnnot{}
	if doc == nil {
		return a
	}
	for _, c := range doc.List {
		line := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if !strings.HasPrefix(line, "mqx:") {
			continue
		}
		line = strings.TrimPrefix(line, "mqx:")
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "hotpath":
			a.Hotpath = true
		case "scratch":
			a.Scratch = true
		case "scratchput":
			a.ScratchPut = true
		case "validator":
			a.Validator = true
		case "lazy":
			for _, f := range fields[1:] {
				switch {
				case f == "returns":
					a.LazyReturns = true
				case f == "strict":
					a.LazyStrict = true
				case strings.HasPrefix(f, "params="):
					a.LazyParams = addNames(a.LazyParams, strings.TrimPrefix(f, "params="))
				case strings.HasPrefix(f, "wide="):
					a.WideParams = addNames(a.WideParams, strings.TrimPrefix(f, "wide="))
				case strings.HasPrefix(f, "slices="):
					a.LazySlices = addNames(a.LazySlices, strings.TrimPrefix(f, "slices="))
				}
			}
		}
	}
	return a
}

func addNames(m map[string]bool, csv string) map[string]bool {
	if m == nil {
		m = make(map[string]bool)
	}
	for _, n := range strings.Split(csv, ",") {
		if n = strings.TrimSpace(n); n != "" {
			m[n] = true
		}
	}
	return m
}
