package analyzers

import (
	"go/ast"
	"go/types"
	"strings"

	"mqxgo/internal/analysis/mqx"
)

// CtxPhase enforces the context-threading convention at the BEHZ phase
// boundaries: every exported function or method whose name ends in "Ctx"
// and takes a context.Context must actually thread it. Somewhere in its
// body there must be a call to phaseGate, or a call to another *Ctx
// function that receives the context (the scheme-layer wrappers
// delegate; the backend pipelines gate each tower phase). A Ctx suffix
// over a body that ignores its context is a lie in the API.
var CtxPhase = &mqx.Analyzer{
	Name: "ctxphase",
	Doc:  "exported ...Ctx APIs must thread their context into a phase gate",
	Run:  runCtxPhase,
}

func runCtxPhase(pass *mqx.Pass) error {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkCtxThreading(pass, fd)
			}
		}
	}
	return nil
}

// ctxParam returns the first parameter of type context.Context, or nil.
func ctxParam(info *types.Info, fd *ast.FuncDecl) types.Object {
	if fd.Type.Params == nil {
		return nil
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			obj := info.Defs[name]
			if obj != nil && namedIn(obj.Type(), "context", "Context") {
				return obj
			}
		}
	}
	return nil
}

func checkCtxThreading(pass *mqx.Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	if !ast.IsExported(name) || !strings.HasSuffix(name, "Ctx") || name == "Ctx" {
		return
	}
	info := pass.Pkg.Info
	ctx := ctxParam(info, fd)
	if ctx == nil {
		return
	}
	th := &threadCheck{prog: pass.Prog, memo: make(map[*types.Func]bool)}
	if !th.threads(info, fd.Body, ctx, 6) {
		pass.Reportf(fd.Name.Pos(), "%s is exported with a Ctx suffix but never threads its context into a phaseGate or *Ctx callee: the deadline is dead on arrival", name)
	}
}

// threadCheck decides whether a body threads a specific context
// parameter into a phase boundary. Threading means: calling phaseGate or
// a *Ctx function with the context, observing the context directly
// (ctx.Err(), ctx.Done(), ctx.Deadline()), or handing it to a
// module-local callee whose own body threads its context parameter —
// that last rule is what lets MulCiphertextsCtx delegate to
// MulCiphertextsInto, whose entry check observes the context. Recursion is memoized per callee and
// depth-limited; an in-progress callee answers false, so a cycle of
// functions that only pass the context around never counts as threading.
type threadCheck struct {
	prog *mqx.Program
	memo map[*types.Func]bool
}

func (th *threadCheck) threads(info *types.Info, body *ast.BlockStmt, ctx types.Object, depth int) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
			if id, ok := unparen(sel.X).(*ast.Ident); ok && info.Uses[id] == ctx {
				found = true // a method on the context itself observes it
				return false
			}
		}
		callee := calleeName(info, call)
		if callee == "" || !callArgUsesObj(info, call, ctx) {
			return true
		}
		if callee == "phaseGate" || strings.HasSuffix(callee, "Ctx") {
			found = true
			return false
		}
		if depth > 0 {
			if fn := calledFunc(info, call); fn != nil && th.calleeThreads(fn, depth-1) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func (th *threadCheck) calleeThreads(fn *types.Func, depth int) bool {
	if done, ok := th.memo[fn]; ok {
		return done
	}
	th.memo[fn] = false // in-progress: cycles don't thread
	fi := th.prog.FuncInfo(fn)
	if fi == nil || fi.Decl.Body == nil {
		return false
	}
	calleeCtx := ctxParam(fi.Pkg.Info, fi.Decl)
	if calleeCtx == nil {
		return false
	}
	ok := th.threads(fi.Pkg.Info, fi.Decl.Body, calleeCtx, depth)
	th.memo[fn] = ok
	return ok
}

// calleeName names the called function for both plain and selector
// calls, including interface methods (which staticCallee refuses).
func calleeName(info *types.Info, call *ast.CallExpr) string {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// callArgUsesObj reports whether any argument expression mentions obj
// (the context parameter, possibly via a derived selector like
// ctx.Done() — a mention is a thread).
func callArgUsesObj(info *types.Info, call *ast.CallExpr, obj types.Object) bool {
	for _, a := range call.Args {
		found := false
		ast.Inspect(a, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
				found = true
				return false
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// calledFunc resolves the callee including interface methods (unlike
// staticCallee, which treats them as boundaries).
func calledFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	if fn := staticCallee(info, call); fn != nil {
		return fn
	}
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			if fn, ok := s.Obj().(*types.Func); ok {
				return fn
			}
		}
	}
	return nil
}
