package lint

import (
	"go/ast"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// This file implements the cross-package half of the analysis engine: a
// per-package fact store propagated along the import graph. A fact is a
// property of a declared function that rules three packages away can
// ask about without re-walking its body — "does calling this reach the
// wall clock?", "does it end in an fsync?", "does it publish a snapshot
// through an atomic pointer?". Facts are computed bottom-up (go list
// -deps emits dependencies before dependents).

// FuncFacts are the propagated properties of one declared function.
// Each field is a provenance chain ("via"): empty means the property
// does not hold; non-empty names the call path that established it,
// e.g. "(*wal.Log).AppendTagged → (*os.File).Sync".
type FuncFacts struct {
	// Nondet: calling this function can read a nondeterminism source
	// (wall clock, global math/rand state).
	Nondet string
	// Durable: calling this function can perform a durable write (file
	// create/write/rename/sync) — the WAL frames, snapshots-on-disk and
	// report artifacts the determinism contract protects.
	Durable string
	// Fsync: calling this function can block on an fsync — the subset of
	// Durable that lock-across-blocking cares about.
	Fsync string
	// Publishes: calling this function can publish a value through
	// atomic.Pointer.Store — sealing a snapshot, in this codebase.
	Publishes string
}

func (f FuncFacts) any() bool {
	return f.Nondet != "" || f.Durable != "" || f.Fsync != "" || f.Publishes != ""
}

// absorb folds the callee's facts into f with the callee's short name
// prepended to the provenance chain. Already-established chains are
// kept (the first deterministic walk order wins), so provenance is
// stable across runs.
func (f *FuncFacts) absorb(calleeKey string, cf FuncFacts) bool {
	changed := false
	via := func(chain string) string {
		if chain == "" || chain == calleeKey {
			return shortKey(calleeKey)
		}
		return shortKey(calleeKey) + " → " + chain
	}
	if f.Nondet == "" && cf.Nondet != "" {
		f.Nondet, changed = via(cf.Nondet), true
	}
	if f.Durable == "" && cf.Durable != "" {
		f.Durable, changed = via(cf.Durable), true
	}
	if f.Fsync == "" && cf.Fsync != "" {
		f.Fsync, changed = via(cf.Fsync), true
	}
	if f.Publishes == "" && cf.Publishes != "" {
		f.Publishes, changed = via(cf.Publishes), true
	}
	return changed
}

// PackageFacts maps a package's declared functions (keyed by
// funcKey) to their facts. Only functions with at least one non-empty
// fact are recorded.
type PackageFacts map[string]FuncFacts

// Facts is the merged fact view an analysis pass sees: the PackageFacts
// of every package analyzed before it (its dependencies among them) plus
// the package under analysis.
type Facts struct {
	m map[string]FuncFacts
}

// NewFacts returns an empty fact store.
func NewFacts() *Facts { return &Facts{m: map[string]FuncFacts{}} }

// Merge folds one package's facts into the store.
func (f *Facts) Merge(pf PackageFacts) {
	for k, v := range pf {
		f.m[k] = v
	}
}

// Of returns the facts of a resolved function object (looking through
// generic instantiation), falling back to the intrinsic source table
// for standard-library functions.
func (f *Facts) Of(fn *types.Func) FuncFacts {
	if fn == nil {
		return FuncFacts{}
	}
	key := funcKey(fn)
	if ff, ok := f.m[key]; ok {
		return ff
	}
	return sourceFacts(key)
}

// Lookup returns the stored facts for a function key.
func (f *Facts) Lookup(key string) (FuncFacts, bool) {
	ff, ok := f.m[key]
	return ff, ok
}

// funcKey is the stable cross-package identity of a function object:
// the origin (uninstantiated) types.Func full name, e.g.
// "honeyfarm/internal/wal.Open" or "(*honeyfarm/internal/wal.Log).Sync".
func funcKey(fn *types.Func) string {
	return fn.Origin().FullName()
}

// pathSegments strips directory components from package paths inside a
// function key, turning "(*honeyfarm/internal/wal.Log).AppendTagged"
// into "(*wal.Log).AppendTagged" for human-readable provenance chains.
var pathSegments = regexp.MustCompile(`([A-Za-z0-9_.~-]+/)+`)

func shortKey(key string) string {
	return pathSegments.ReplaceAllString(key, "")
}

// sourceFacts classifies standard-library (and contract-interface)
// functions that seed fact propagation. Keys are origin full names.
func sourceFacts(key string) FuncFacts {
	switch key {
	case "time.Now", "time.Since", "time.Until":
		return FuncFacts{Nondet: key}
	case "os.Create", "os.Rename", "os.WriteFile",
		"(*os.File).Write", "(*os.File).WriteString", "(*os.File).WriteAt",
		"(*os.File).Truncate":
		return FuncFacts{Durable: key}
	case "(*os.File).Sync":
		return FuncFacts{Durable: key, Fsync: key}
	}
	if name, ok := strings.CutPrefix(key, "math/rand."); ok && !allowedRandNames[name] {
		return FuncFacts{Nondet: key}
	}
	if name, ok := strings.CutPrefix(key, "math/rand/v2."); ok && !allowedRandV2Names[name] {
		return FuncFacts{Nondet: key}
	}
	if strings.HasPrefix(key, "(*sync/atomic.Pointer[") && strings.HasSuffix(key, "]).Store") {
		return FuncFacts{Publishes: key}
	}
	// The fault-injectable filesystem abstraction: its write-path methods
	// carry the same facts as their os counterparts, so durability and
	// fsync reach propagate through code that writes via iofault.FS
	// exactly as it did when it called *os.File directly. OpenFile is
	// deliberately unseeded — it is also the read path, and tainting it
	// would mark pure readers (wal.Read, wal.Verify, the dataset loader) as
	// durable writers.
	switch {
	case strings.HasSuffix(key, "/iofault.File).Sync"):
		return FuncFacts{Durable: key, Fsync: key}
	case strings.HasSuffix(key, "/iofault.File).Write"),
		strings.HasSuffix(key, "/iofault.File).Truncate"),
		strings.HasSuffix(key, "/iofault.FS).Rename"):
		return FuncFacts{Durable: key}
	}
	return FuncFacts{}
}

// calleeFunc resolves a call's function expression to the declared or
// imported *types.Func, looking through generic instantiations and
// parenthesization. Nil for builtins, function-typed values and
// conversions.
func calleeFunc(info *types.Info, fun ast.Expr) *types.Func {
	switch e := fun.(type) {
	case *ast.ParenExpr:
		return calleeFunc(info, e.X)
	case *ast.IndexExpr:
		return calleeFunc(info, e.X)
	case *ast.IndexListExpr:
		return calleeFunc(info, e.X)
	case *ast.Ident:
		fn, _ := info.Uses[e].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel := info.Selections[e]; sel != nil {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := info.Uses[e.Sel].(*types.Func)
		return fn
	}
	return nil
}

// ComputeFacts derives one package's facts: each declared function is
// seeded with the intrinsic sources and imported-package facts its body
// reaches directly, then intra-package calls are propagated to a
// fixpoint. global carries the already-computed facts of the package's
// module dependencies; iteration orders are sorted so the provenance
// chains (and therefore the findings that quote them) are deterministic.
func ComputeFacts(pkg *Package, global *Facts) PackageFacts {
	type fnState struct {
		facts   FuncFacts
		callees []string // intra-package callee keys, sorted, deduped
	}
	fns := map[string]*fnState{}
	ownKeys := map[string]bool{}
	var order []string

	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			key := funcKey(obj)
			fns[key] = &fnState{}
			ownKeys[key] = true
			order = append(order, key)
		}
	}
	sort.Strings(order)

	// Seed pass: direct sources and cross-package facts.
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			st := fns[funcKey(obj)]
			callees := map[string]bool{}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := calleeFunc(pkg.Info, call.Fun)
				if callee == nil {
					return true
				}
				ck := funcKey(callee)
				if ownKeys[ck] {
					callees[ck] = true
					return true
				}
				if ff, ok := global.Lookup(ck); ok {
					st.facts.absorb(ck, ff)
					return true
				}
				if src := sourceFacts(ck); src.any() {
					st.facts.absorb(ck, src)
				}
				return true
			})
			for ck := range callees {
				st.callees = append(st.callees, ck)
			}
			sort.Strings(st.callees)
		}
	}

	// Intra-package fixpoint over the sorted call graph.
	for changed := true; changed; {
		changed = false
		for _, key := range order {
			st := fns[key]
			for _, ck := range st.callees {
				if st.facts.absorb(ck, fns[ck].facts) {
					changed = true
				}
			}
		}
	}

	out := PackageFacts{}
	for _, key := range order {
		if st := fns[key]; st.facts.any() {
			out[key] = st.facts
		}
	}
	return out
}
