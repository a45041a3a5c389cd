// Package lint is a stdlib-only static-analysis suite enforcing this
// repository's correctness contracts: the simulation path must be
// bit-for-bit deterministic (no global math/rand state, no wall-clock
// reads, no unbounded loops), the concurrent wire path must not leak
// goroutines or discard errors silently — and the durability contracts
// that live *between* packages: no nondeterministic value may flow into
// a WAL frame, snapshot or report writer (determinism-taint), artifact
// files are written only through internal/atomicio (atomicio-bypass),
// WAL syncs and snapshot seals are count-based, never timer-based
// (timer-commit), published snapshots are immutable (snapshot-mutation),
// and no mutex is held across fsync, network I/O or channel operations
// (lock-across-blocking). Copied locks are left to go vet's copylocks.
//
// The framework is built on go/ast, go/parser and go/types alone.
// Loader.Check lists packages through `go list -deps -export`, then
// type-checks them from source one at a time, dependencies first,
// computing per-package function facts along the way (see facts.go),
// runs every registered analyzer, and returns the findings sorted by
// position. A finding is waived only by a directive comment on the
// offending line or the line above:
//
//	//lint:ignore <rule>[,<rule>...] <reason>
//
// The reason is mandatory; a bare directive is itself reported, as is a
// stale directive naming a rule that does not fire on that line and a
// directive naming a rule that does not exist. Files carrying the
// standard "Code generated ... DO NOT EDIT." marker are skipped. The
// rule catalog lives in DESIGN.md ("Correctness tooling").
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Finding is one rule violation at a source position.
type Finding struct {
	Rule    string         `json:"rule"`
	Pos     token.Position `json:"pos"`
	Message string         `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Rule, f.Message)
}

// Analyzer is one named check run over every loaded package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries one (analyzer, package) unit of work. Analyzers report
// through Reportf, which applies suppression directives before recording
// the finding, and consult Facts for cross-package function properties.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	// Facts is the merged fact view: the facts of the packages analyzed
	// before this one, its dependencies among them, plus its own (see
	// facts.go).
	Facts *Facts

	directives *directiveSet
	findings   *[]Finding
}

// Reportf records a finding at pos unless a suppression directive covers
// it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	if p.directives.suppress(p.Analyzer.Name, position) {
		return
	}
	*p.findings = append(*p.findings, Finding{
		Rule:    p.Analyzer.Name,
		Pos:     position,
		Message: fmt.Sprintf(format, args...),
	})
}

// directive is one parsed //lint:ignore comment.
type directive struct {
	rules []string // rule names (or "*"); parsed from the comma list
	pos   token.Position
	line  int             // effective line: the comment's end line
	used  map[string]bool // rule name (as written) -> consumed a finding
}

// directiveSet indexes a package's directives by file and line.
type directiveSet struct {
	byFile map[string]map[int][]*directive
	all    []*directive // in scan order (file, then position)
}

// suppress reports whether a directive covers a finding of rule at pos,
// marking the matching directive as used. Same-line directives take
// precedence over line-above directives; within a line, the first
// matching directive wins.
func (d *directiveSet) suppress(rule string, pos token.Position) bool {
	lines := d.byFile[pos.Filename]
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, dir := range lines[line] {
			for _, r := range dir.rules {
				if r == rule || r == "*" {
					dir.used[r] = true
					return true
				}
			}
		}
	}
	return false
}

// scanDirectives parses a package's lint:ignore comments, reporting
// malformed ones (missing rule or reason) as findings of the
// pseudo-rule "directive". Generated files are skipped entirely.
func scanDirectives(pkg *Package, findings *[]Finding) *directiveSet {
	ds := &directiveSet{byFile: map[string]map[int][]*directive{}}
	for _, file := range pkg.Files {
		if pkg.Generated[file] {
			continue
		}
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				if !strings.HasPrefix(text, "lint:ignore") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(strings.TrimPrefix(text, "lint:ignore"))
				if len(fields) < 2 {
					*findings = append(*findings, Finding{
						Rule: "directive", Pos: pos,
						Message: "malformed //lint:ignore directive: want \"//lint:ignore <rule>[,<rule>] <reason>\"",
					})
					continue
				}
				dir := &directive{
					pos:  pos,
					line: pkg.Fset.Position(c.End()).Line,
					used: map[string]bool{},
				}
				for _, r := range strings.Split(fields[0], ",") {
					if r = strings.TrimSpace(r); r != "" {
						dir.rules = append(dir.rules, r)
					}
				}
				byLine := ds.byFile[pos.Filename]
				if byLine == nil {
					byLine = map[int][]*directive{}
					ds.byFile[pos.Filename] = byLine
				}
				byLine[dir.line] = append(byLine[dir.line], dir)
				ds.all = append(ds.all, dir)
			}
		}
	}
	return ds
}

// reportStale walks the directives after every analyzer ran and reports
// the inert ones: a directive naming a rule that does not exist, and a
// directive whose rule exists and was run but suppressed nothing on its
// lines. Both are findings of the pseudo-rule "directive" — a stale
// suppression is a silent hole in the contract it claims to cover.
func reportStale(ds *directiveSet, ran []*Analyzer, findings *[]Finding) {
	catalog := map[string]bool{}
	for _, a := range All() {
		catalog[a.Name] = true
	}
	active := map[string]bool{}
	for _, a := range ran {
		active[a.Name] = true
	}
	for _, dir := range ds.all {
		for _, r := range dir.rules {
			switch {
			case r == "*":
				if !dir.used["*"] {
					*findings = append(*findings, Finding{
						Rule: "directive", Pos: dir.pos,
						Message: "stale suppression: the wildcard directive suppresses nothing on this line; delete it",
					})
				}
			case !catalog[r]:
				*findings = append(*findings, Finding{
					Rule: "directive", Pos: dir.pos,
					Message: fmt.Sprintf("directive names unknown rule %q; the suppression is inert (see cmd/lint -list for the catalog)", r),
				})
			case active[r] && !dir.used[r]:
				*findings = append(*findings, Finding{
					Rule: "directive", Pos: dir.pos,
					Message: fmt.Sprintf("stale suppression: rule %s does not fire on this line; delete the directive", r),
				})
			}
		}
	}
}

// runPackage analyzes one package: its facts are computed against and
// merged into facts, directives are scanned (malformed ones reported),
// every analyzer runs with the fact view, and stale directives are
// reported last. Findings are returned unsorted; callers sort the
// cross-package aggregate.
func runPackage(pkg *Package, analyzers []*Analyzer, facts *Facts) []Finding {
	facts.Merge(ComputeFacts(pkg, facts))
	var findings []Finding
	ds := scanDirectives(pkg, &findings)
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Pkg: pkg, Facts: facts, directives: ds, findings: &findings}
		a.Run(pass)
	}
	reportStale(ds, analyzers, &findings)
	return findings
}

// sortFindings orders findings by file, line, column, rule, message —
// the deterministic order every entry point emits.
func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
}

// Run executes the analyzers over already type-checked packages (the
// fixture path: CheckSource output) and returns the combined findings
// sorted by position. Packages must be ordered dependencies-first so
// cross-package facts are available when a dependent is analyzed;
// self-contained fixture packages can be passed alone.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	facts := NewFacts()
	var findings []Finding
	for _, pkg := range pkgs {
		findings = append(findings, runPackage(pkg, analyzers, facts)...)
	}
	sortFindings(findings)
	return findings
}

// All returns the full analyzer suite in catalog order.
func All() []*Analyzer {
	return []*Analyzer{
		Nondeterminism,
		GoroutineHygiene,
		ErrorDiscard,
		BoundedLoop,
		DeterminismTaint,
		AtomicioBypass,
		TimerCommit,
		SnapshotMutation,
		LockAcrossBlocking,
	}
}

// ByName returns the subset of All whose names appear in the
// comma-separated list; unknown names error.
func ByName(list string) ([]*Analyzer, error) {
	if list == "" {
		return All(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("lint: unknown rule %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// inspect walks every non-generated file of the pass's package, calling
// fn for each node; fn returning false prunes the subtree.
func inspect(p *Pass, fn func(ast.Node) bool) {
	for _, f := range p.Pkg.Files {
		if p.Pkg.Generated[f] {
			continue
		}
		ast.Inspect(f, fn)
	}
}

// pathHasSuffix reports whether the package import path equals suffix or
// ends with "/"+suffix — the matching used for the restricted-package
// sets, so fixture packages can opt in under synthetic paths.
func pathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}
