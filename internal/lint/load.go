package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// Package is one loaded, parsed and type-checked package ready for
// analysis.
type Package struct {
	Path  string // import path, e.g. "honeyfarm/internal/workload"
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Generated marks files carrying the standard "Code generated ...
	// DO NOT EDIT." header; analyzers and directive scanning skip them.
	Generated map[*ast.File]bool
	// TypeErrors collects soft type-checking errors; analysis proceeds
	// on a best-effort basis when non-empty.
	TypeErrors []error
}

// Loader parses and type-checks packages of a single module using only
// the standard library: source files are parsed with go/parser and
// imports are resolved through compiler export data located via
// `go list -export` (the toolchain is a build-time dependency of any Go
// repository, so shelling out to it keeps the linter dependency-free).
type Loader struct {
	// Dir is the module root (the directory containing go.mod).
	Dir string

	exports map[string]string // import path -> export data file
	imp     types.Importer
	fset    *token.FileSet
}

// NewLoader returns a loader rooted at the module directory dir.
func NewLoader(dir string) *Loader {
	l := &Loader{Dir: dir, exports: map[string]string{}, fset: token.NewFileSet()}
	l.imp = importer.ForCompiler(l.fset, "gc", l.lookup)
	return l
}

// FindModuleRoot walks up from dir looking for go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// listedPackage is the subset of `go list -json` output the loader uses.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Imports    []string
	Standard   bool
	Export     string
	Module     *struct{ Path, Dir string }
	Error      *struct{ Err string }
}

// goList runs `go list -deps -export -json` for the patterns and decodes
// the package stream (dependencies before dependents — the topological
// order fact propagation relies on).
func (l *Loader) goList(patterns ...string) ([]*listedPackage, error) {
	args := append([]string{"list", "-deps", "-export", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.Dir
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list: %v\n%s", err, errb.String())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(&out)
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// lookup feeds compiler export data to the gc importer.
func (l *Loader) lookup(path string) (io.ReadCloser, error) {
	file, ok := l.exports[path]
	if !ok {
		// An import outside the already-listed dependency closure (fixture
		// packages trigger this): resolve it with a one-off go list.
		pkgs, err := l.goList(path)
		if err != nil {
			return nil, err
		}
		l.addExports(pkgs)
		if file, ok = l.exports[path]; !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
	}
	return os.Open(file)
}

func (l *Loader) addExports(pkgs []*listedPackage) {
	for _, p := range pkgs {
		if p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
	}
}

// CheckOptions configures one Check run.
type CheckOptions struct {
	// Patterns are go list package patterns; default "./...".
	Patterns []string
	// Analyzers is the rule set; default All().
	Analyzers []*Analyzer
}

// CheckResult is the aggregate of one Check run.
type CheckResult struct {
	// Findings is every finding across all packages, sorted by position.
	Findings []Finding
	// Packages is the number of module packages analyzed.
	Packages int
	// Facts is the merged fact store over every analyzed package.
	Facts *Facts
}

// Check parses, type-checks and analyzes the module packages matched by
// the patterns, one at a time in go list -deps order: dependencies come
// first, so each package sees the facts of everything it imports. Test
// files are not loaded — the lint contracts target production code, and
// tests legitimately use wall-clock timeouts. Any load or type error
// aborts the run with an error (the cmd/lint exit-2 path) rather than
// producing partial findings.
func (l *Loader) Check(opts CheckOptions) (*CheckResult, error) {
	if len(opts.Patterns) == 0 {
		opts.Patterns = []string{"./..."}
	}
	if opts.Analyzers == nil {
		opts.Analyzers = All()
	}
	listed, err := l.goList(opts.Patterns...)
	if err != nil {
		return nil, err
	}
	l.addExports(listed)

	res := &CheckResult{Facts: NewFacts()}
	for _, lp := range listed {
		// -deps lists the full closure; only analyze main-module packages.
		if !isModulePackage(lp) {
			continue
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		pkg, err := l.check(lp)
		if err != nil {
			return nil, err
		}
		if len(pkg.TypeErrors) > 0 {
			return nil, fmt.Errorf("lint: %s: %v", lp.ImportPath, pkg.TypeErrors[0])
		}
		res.Packages++
		res.Findings = append(res.Findings, runPackage(pkg, opts.Analyzers, res.Facts)...)
	}
	sortFindings(res.Findings)
	return res, nil
}

// isModulePackage reports whether a listed package belongs to the main
// module (as opposed to the standard library or a dependency module).
func isModulePackage(lp *listedPackage) bool {
	return !lp.Standard && lp.Module != nil && lp.Dir != ""
}

// check parses and type-checks one listed package.
func (l *Loader) check(lp *listedPackage) (*Package, error) {
	var files []*ast.File
	for _, name := range lp.GoFiles {
		path := filepath.Join(lp.Dir, name)
		f, err := parser.ParseFile(l.fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parsing %s: %v", path, err)
		}
		files = append(files, f)
	}
	return typeCheck(lp.ImportPath, lp.Dir, l.fset, l.imp, files)
}

// CheckSource type-checks in-memory sources as a package with the given
// import path — the entry point fixture tests use. Imports resolve to
// real export data, so fixtures may import the standard library freely.
func (l *Loader) CheckSource(pkgPath string, sources map[string]string) (*Package, error) {
	var files []*ast.File
	for name, src := range sources {
		f, err := parser.ParseFile(l.fset, name, src, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parsing %s: %v", name, err)
		}
		files = append(files, f)
	}
	return typeCheck(pkgPath, "", l.fset, l.imp, files)
}

func typeCheck(pkgPath, dir string, fset *token.FileSet, imp types.Importer, files []*ast.File) (*Package, error) {
	pkg := &Package{
		Path:      pkgPath,
		Dir:       dir,
		Fset:      fset,
		Files:     files,
		Generated: map[*ast.File]bool{},
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Uses:       map[*ast.Ident]types.Object{},
			Defs:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
		},
	}
	for _, f := range files {
		if ast.IsGenerated(f) {
			pkg.Generated[f] = true
		}
	}
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, err := conf.Check(pkgPath, fset, files, pkg.Info)
	if err != nil && tpkg == nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", pkgPath, err)
	}
	pkg.Pkg = tpkg
	return pkg, nil
}
