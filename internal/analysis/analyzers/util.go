// Package analyzers holds the mqxlint suite: scratchescape, which
// keeps pooled scratch inside its Get/Put window — the one pooling
// convention no runtime test reliably observes, since a use-after-Put
// only misbehaves when another goroutine reuses the buffer in between.
package analyzers

import (
	"go/ast"
	"go/types"

	"mqxgo/internal/analysis/mqx"
)

// All is the mqxlint suite in reporting order.
var All = []*mqx.Analyzer{ScratchEscape}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// staticCallee resolves a call to the *types.Func it statically invokes:
// package-level functions, methods with a concrete receiver, and
// qualified imports. Interface method calls and indirect calls through
// function values return nil.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil
			}
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil
			}
			if types.IsInterface(sel.Recv()) {
				return nil // dynamic dispatch boundary
			}
			return fn
		}
		// Qualified identifier: pkg.Func.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.IndexExpr:
		// Explicitly instantiated generic function: f[T](...).
		if id, ok := unparen(fun.X).(*ast.Ident); ok {
			if fn, ok := info.Uses[id].(*types.Func); ok {
				return fn
			}
		}
	}
	return nil
}

// namedIn reports whether t (after pointer dereference) is the named
// type pkgSuffix.name, matching the package by import-path suffix so the
// check holds for both the real module path and fixture stand-ins.
func namedIn(t types.Type, pkgSuffix, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Name() != name || obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	return path == pkgSuffix || hasPathSuffix(path, pkgSuffix)
}

func hasPathSuffix(path, suffix string) bool {
	return len(path) > len(suffix) && path[len(path)-len(suffix)-1] == '/' &&
		path[len(path)-len(suffix):] == suffix
}

// rootIdent walks selector/index/star/slice chains to the base
// identifier: rootIdent(a.b[i].c) == a. Returns nil for rootless
// expressions (calls, literals).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// funcScopeObjects collects the objects declared by a function's
// receiver, parameters, and named results.
func funcScopeObjects(info *types.Info, fd *ast.FuncDecl) map[types.Object]bool {
	objs := make(map[types.Object]bool)
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, n := range f.Names {
				if obj := info.Defs[n]; obj != nil {
					objs[obj] = true
				}
			}
		}
	}
	if fd.Recv != nil {
		addFields(fd.Recv)
	}
	if fd.Type.Params != nil {
		addFields(fd.Type.Params)
	}
	if fd.Type.Results != nil {
		addFields(fd.Type.Results)
	}
	return objs
}
