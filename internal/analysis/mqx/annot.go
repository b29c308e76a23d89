package mqx

import (
	"go/ast"
	"strings"
)

// FuncAnnot is the parsed set of //mqx: directives from one function's
// doc comment. The grammar (documented in the README's "Static analysis"
// section) is two directives, read by scratchescape:
//
//	//mqx:scratch
//	    The function returns pooled scratch (a sync.Pool accessor
//	    wrapper); scratchescape treats its results like Pool.Get values
//	    in callers and permits the wrapper's own return.
//
//	//mqx:scratchput
//	    The function recycles its argument into a pool, like Pool.Put.
type FuncAnnot struct {
	Scratch    bool
	ScratchPut bool
}

// ParseFuncAnnot extracts //mqx: directives from a doc comment. Unknown
// directives are ignored.
func ParseFuncAnnot(doc *ast.CommentGroup) *FuncAnnot {
	a := &FuncAnnot{}
	if doc == nil {
		return a
	}
	for _, c := range doc.List {
		switch strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) {
		case "mqx:scratch":
			a.Scratch = true
		case "mqx:scratchput":
			a.ScratchPut = true
		}
	}
	return a
}
