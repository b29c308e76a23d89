package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"

	"mqxgo/internal/analysis/mqx"
)

// ValidateFirst enforces validation before component access at API
// boundaries. A BackendCiphertext's components are backend-owned handles,
// and arithmetic on a pair that never passed the backend's gate — a
// foreign handle, a level whose shape it does not have, unreduced
// residues — is a panic deep in a kernel at best and a silently wrong
// plaintext at worst. The convention is that every EXPORTED function
// reading BackendCiphertext component polys (the A/B fields) first calls
// a function annotated //mqx:validator (the scheme's checkCts, or
// checkEval on the in-place evaluation calls). Unexported functions —
// among them every backend evaluation method — are inside the validated
// perimeter and exempt; validators themselves are annotated.
//
// The check is ordered: the validation must occur before (in source
// order) the first component read, so a check bolted on after the
// arithmetic does not count.
var ValidateFirst = &mqx.Analyzer{
	Name: "validatefirst",
	Doc:  "exported readers of BackendCiphertext components must call a //mqx:validator function first",
	Run:  runValidateFirst,
}

func runValidateFirst(pass *mqx.Pass) error {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !ast.IsExported(fd.Name.Name) {
				continue
			}
			if fn, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func); ok {
				if fi := pass.Prog.FuncInfo(fn); fi != nil && fi.Annot().Validator {
					continue // the validator itself
				}
			}
			checkComponentReads(pass, fd)
		}
	}
	return nil
}

func checkComponentReads(pass *mqx.Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	var validatedAt token.Pos = token.NoPos
	type read struct {
		pos   token.Pos
		field string
	}
	var firstRead *read

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			fn := calledFunc(info, x)
			if fn == nil {
				return true
			}
			fi := pass.Prog.FuncInfo(fn)
			if fi != nil && fi.Annot().Validator {
				if validatedAt == token.NoPos || x.Pos() < validatedAt {
					validatedAt = x.Pos()
				}
			}
		case *ast.SelectorExpr:
			tv, ok := info.Types[x.X]
			if !ok || !namedIn(tv.Type, "internal/fhe", "BackendCiphertext") {
				return true
			}
			if x.Sel.Name == "A" || x.Sel.Name == "B" {
				if firstRead == nil || x.Pos() < firstRead.pos {
					firstRead = &read{x.Pos(), x.Sel.Name}
				}
			}
		}
		return true
	})
	if firstRead == nil {
		return
	}
	if validatedAt != token.NoPos && validatedAt < firstRead.pos {
		return
	}
	pass.Reportf(firstRead.pos, "%s reads BackendCiphertext.%s without a prior validation: call a //mqx:validator function before touching components", fd.Name.Name, firstRead.field)
}
