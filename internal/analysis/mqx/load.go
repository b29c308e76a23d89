package mqx

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package: syntax, type information,
// and whether it was named by the load patterns (Target) or pulled in
// only as a dependency.
type Package struct {
	Path   string
	Files  []*ast.File
	Types  *types.Package
	Info   *types.Info
	Target bool

	annots map[*ast.FuncDecl]*FuncAnnot
}

// FuncInfo pairs a function's declaration syntax with the package it
// lives in, for cross-package body and annotation lookups.
type FuncInfo struct {
	Decl *ast.FuncDecl
	Pkg  *Package
}

// Annot returns the parsed //mqx: annotations from the declaration's doc
// comment, cached per declaration.
func (fi *FuncInfo) Annot() *FuncAnnot {
	if a, ok := fi.Pkg.annots[fi.Decl]; ok {
		return a
	}
	a := ParseFuncAnnot(fi.Decl.Doc)
	if fi.Pkg.annots == nil {
		fi.Pkg.annots = make(map[*ast.FuncDecl]*FuncAnnot)
	}
	fi.Pkg.annots[fi.Decl] = a
	return a
}

// Program is a set of loaded packages sharing one FileSet, with indexes
// for resolving a *types.Func to its declaration anywhere in the set.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package // load order: dependencies before dependents

	funcs map[*types.Func]*FuncInfo
}

// FuncInfo resolves fn to its declaration if fn is declared in any
// loaded package; nil for external (stdlib) functions, interface
// methods, and function literals. Methods of instantiated generic types
// (Plan[uint64, Shoup64].ForwardInto) resolve through their generic
// origin — the declaration the index is keyed by.
func (prog *Program) FuncInfo(fn *types.Func) *FuncInfo {
	if fi := prog.funcs[fn]; fi != nil {
		return fi
	}
	return prog.funcs[fn.Origin()]
}

// Targets returns the packages named by the load patterns, in load order.
func (prog *Program) Targets() []*Package {
	var out []*Package
	for _, p := range prog.Packages {
		if p.Target {
			out = append(out, p)
		}
	}
	return out
}

// Position resolves pos through the shared FileSet.
func (prog *Program) Position(pos token.Pos) token.Position { return prog.Fset.Position(pos) }

// Loader loads and type-checks module packages. Module-local imports are
// type-checked from syntax by the loader itself (so their ASTs and
// annotations stay available to analyzers); standard-library imports are
// delegated to the stdlib source importer, which needs no compiled
// export data and therefore no toolchain state beyond GOROOT sources.
type Loader struct {
	// Dir is the module root. Empty means: walk up from the working
	// directory to the nearest go.mod.
	Dir string
	// Tags are extra build tags (e.g. "faultinject"), applied both to
	// `go list` file selection and to the source importer's context.
	Tags []string
	// GOARCH overrides the target architecture for file selection and
	// type sizes. Empty means the host architecture. Setting this
	// mutates the process-global go/build.Default context; the loader
	// is a single-use CLI/test facility, not a library for concurrent
	// mixed-target loads.
	GOARCH string

	fset    *token.FileSet
	src     types.ImporterFrom
	modpath string
	pkgs    map[string]*Package
	order   []*Package
}

// NewLoader returns a loader rooted at dir (or the enclosing module if
// dir is empty).
func NewLoader(dir string, tags []string, goarch string) (*Loader, error) {
	if dir == "" {
		var err error
		if dir, err = FindModuleRoot(); err != nil {
			return nil, err
		}
	}
	modpath, err := modulePath(dir)
	if err != nil {
		return nil, err
	}
	if goarch != "" {
		build.Default.GOARCH = goarch
	}
	if len(tags) > 0 {
		build.Default.BuildTags = append(build.Default.BuildTags, tags...)
	}
	fset := token.NewFileSet()
	src, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("mqx: source importer does not implement ImporterFrom")
	}
	return &Loader{
		Dir:     dir,
		Tags:    tags,
		GOARCH:  goarch,
		fset:    fset,
		src:     src,
		modpath: modpath,
		pkgs:    make(map[string]*Package),
	}, nil
}

// FindModuleRoot walks up from the working directory to the nearest
// directory containing go.mod.
func FindModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("mqx: no go.mod found above working directory")
		}
		dir = parent
	}
}

var modlineRe = regexp.MustCompile(`(?m)^module\s+(\S+)`)

func modulePath(dir string) (string, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", err
	}
	m := modlineRe.FindSubmatch(data)
	if m == nil {
		return "", fmt.Errorf("mqx: no module line in %s", filepath.Join(dir, "go.mod"))
	}
	return string(m[1]), nil
}

type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load expands the go list patterns, type-checks every matched module
// package (plus their module-local dependencies), and returns the
// resulting Program. It may be called once per Loader.
func (l *Loader) Load(patterns ...string) (*Program, error) {
	listed, err := l.goList(patterns)
	if err != nil {
		return nil, err
	}
	for _, lp := range listed {
		if lp.Standard {
			continue
		}
		if _, err := l.check(lp); err != nil {
			return nil, err
		}
		if !lp.DepOnly {
			l.pkgs[lp.ImportPath].Target = true
		}
	}
	return l.program(), nil
}

// CheckDir type-checks every .go file directly inside dir as a single
// synthetic package (import path "mqxfixture/<base>") against the live
// module — the analysistest-style entry point for testdata fixtures,
// which `go list` would refuse to see. Module-local imports inside the
// fixtures are loaded on demand.
func (l *Loader) CheckDir(dir string) (*Program, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, e.Name())
		}
	}
	sort.Strings(files)
	if len(files) == 0 {
		return nil, fmt.Errorf("mqx: no .go files in %s", dir)
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	lp := listedPackage{
		ImportPath: "mqxfixture/" + filepath.Base(abs),
		Dir:        abs,
		GoFiles:    files,
	}
	pkg, err := l.check(lp)
	if err != nil {
		return nil, err
	}
	pkg.Target = true
	return l.program(), nil
}

func (l *Loader) program() *Program {
	prog := &Program{
		Fset:     l.fset,
		Packages: l.order,
		funcs:    make(map[*types.Func]*FuncInfo),
	}
	for _, p := range l.order {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
					prog.funcs[fn] = &FuncInfo{Decl: fd, Pkg: p}
				}
			}
		}
	}
	return prog
}

func (l *Loader) goList(patterns []string) ([]listedPackage, error) {
	args := []string{"list", "-json", "-deps"}
	if len(l.Tags) > 0 {
		args = append(args, "-tags", strings.Join(l.Tags, ","))
	}
	args = append(args, "--")
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.Dir
	env := append(os.Environ(), "GOFLAGS=")
	if l.GOARCH != "" {
		env = append(env, "GOARCH="+l.GOARCH)
	}
	cmd.Env = env
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("mqx: go list %s: %v\n%s", strings.Join(patterns, " "), err, errb.String())
	}
	dec := json.NewDecoder(&out)
	var listed []listedPackage
	for dec.More() {
		var lp listedPackage
		if err := dec.Decode(&lp); err != nil {
			return nil, fmt.Errorf("mqx: decoding go list output: %v", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("mqx: go list: %s", lp.Error.Err)
		}
		listed = append(listed, lp)
	}
	return listed, nil
}

// check parses and type-checks one listed package, caching the result.
func (l *Loader) check(lp listedPackage) (*Package, error) {
	if p, ok := l.pkgs[lp.ImportPath]; ok {
		return p, nil
	}
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(lp.Dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	goarch := l.GOARCH
	if goarch == "" {
		goarch = build.Default.GOARCH
	}
	var typeErrs []error
	conf := types.Config{
		Importer: progImporter{l},
		Sizes:    types.SizesFor("gc", goarch),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, err := conf.Check(lp.ImportPath, l.fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("mqx: type-checking %s: %v", lp.ImportPath, typeErrs[0])
	}
	if err != nil {
		return nil, fmt.Errorf("mqx: type-checking %s: %v", lp.ImportPath, err)
	}
	pkg := &Package{
		Path:  lp.ImportPath,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	l.pkgs[lp.ImportPath] = pkg
	l.order = append(l.order, pkg)
	return pkg, nil
}

// loadModulePackage lazily loads a module-local import path (used by the
// importer when a fixture or late pattern references a package the
// initial go list pass did not cover).
func (l *Loader) loadModulePackage(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	listed, err := l.goList([]string{path})
	if err != nil {
		return nil, err
	}
	for _, lp := range listed {
		if lp.Standard {
			continue
		}
		if _, err := l.check(lp); err != nil {
			return nil, err
		}
	}
	p, ok := l.pkgs[path]
	if !ok {
		return nil, fmt.Errorf("mqx: package %s not found in module", path)
	}
	return p, nil
}

// progImporter resolves imports during type-checking: module-local paths
// come from the loader's own syntax-level loads (keeping their ASTs
// available to analyzers), everything else falls through to the stdlib
// source importer.
type progImporter struct{ l *Loader }

func (i progImporter) Import(path string) (*types.Package, error) {
	return i.ImportFrom(path, "", 0)
}

func (i progImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == i.l.modpath || strings.HasPrefix(path, i.l.modpath+"/") {
		p, err := i.l.loadModulePackage(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return i.l.src.ImportFrom(path, i.l.Dir, 0)
}
