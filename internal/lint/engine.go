package lint

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
)

// This file is the parallel driver. Packages are scheduled as a
// dependency DAG (go list -deps order gives the edges), each analyzed
// on its own goroutine with an isolated file set and importer once all
// its module dependencies finished, bounded by a worker semaphore.
// Results are deterministic regardless of scheduling: per-package
// findings are sorted, the aggregate is sorted again, and fact
// provenance is computed over sorted key orders.

// CheckOptions configures one engine run.
type CheckOptions struct {
	// Patterns are go list package patterns; default "./...".
	Patterns []string
	// Analyzers is the rule set; default All().
	Analyzers []*Analyzer
	// Workers bounds concurrent package analysis; default GOMAXPROCS.
	Workers int
}

// CheckResult is the aggregate of one engine run.
type CheckResult struct {
	// Findings is every finding across all packages, sorted by position.
	Findings []Finding
	// Packages is the number of module packages analyzed.
	Packages int
	// Facts is the merged fact store over every analyzed package.
	Facts *Facts
}

// engineNode is one module package's scheduling state.
type engineNode struct {
	lp   *listedPackage
	deps []*engineNode
	done chan struct{}

	err      error
	findings []Finding    // package-local, sorted
	facts    PackageFacts // own facts only
	closure  *Facts       // deps' closures + own facts
}

// Check loads, analyzes and aggregates the packages matched by the
// patterns. Any load or type error aborts the run with an error — the
// cmd/lint exit-2 path — rather than producing partial findings.
func (l *Loader) Check(opts CheckOptions) (*CheckResult, error) {
	if len(opts.Patterns) == 0 {
		opts.Patterns = []string{"./..."}
	}
	if opts.Analyzers == nil {
		opts.Analyzers = All()
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	listed, err := l.goList(opts.Patterns...)
	if err != nil {
		return nil, err
	}
	l.addExports(listed)

	byPath := map[string]*engineNode{}
	var nodes []*engineNode // go list -deps order: dependencies first
	for _, lp := range listed {
		if !isModulePackage(lp) {
			continue
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		n := &engineNode{lp: lp, done: make(chan struct{})}
		for _, imp := range lp.Imports {
			if dep, ok := byPath[imp]; ok {
				n.deps = append(n.deps, dep)
			}
		}
		byPath[lp.ImportPath] = n
		nodes = append(nodes, n)
	}

	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for _, n := range nodes {
		wg.Add(1)
		go func(n *engineNode) {
			defer wg.Done()
			defer close(n.done)
			for _, dep := range n.deps {
				<-dep.done
				if dep.err != nil {
					n.err = fmt.Errorf("lint: %s: dependency %s failed", n.lp.ImportPath, dep.lp.ImportPath)
					return
				}
			}
			sem <- struct{}{}
			defer func() { <-sem }()
			n.err = l.analyzeNode(n, opts)
		}(n)
	}
	wg.Wait()

	res := &CheckResult{Facts: NewFacts()}
	for _, n := range nodes {
		if n.err != nil {
			return nil, n.err
		}
		res.Packages++
		res.Findings = append(res.Findings, n.findings...)
		res.Facts.Merge(n.facts)
	}
	sortFindings(res.Findings)
	return res, nil
}

// analyzeNode type-checks one package and runs the rules over it,
// leaving the node with its findings, its own facts, and the merged
// closure its dependents need.
func (l *Loader) analyzeNode(n *engineNode, opts CheckOptions) error {
	pkg, err := l.checkIsolated(n.lp)
	if err != nil {
		return err
	}
	if len(pkg.TypeErrors) > 0 {
		return fmt.Errorf("lint: %s: %v", n.lp.ImportPath, pkg.TypeErrors[0])
	}

	view := NewFacts()
	for _, dep := range n.deps {
		view.Merge(dep.closure.m)
	}
	n.facts = ComputeFacts(pkg, view)
	view.Merge(n.facts)
	n.findings = runPackage(pkg, opts.Analyzers, view)
	sortFindings(n.findings)
	n.closure = view
	return nil
}

// sortedFactKeys is a debugging helper used by tests: the stored fact
// keys in deterministic order.
func (f *Facts) sortedFactKeys() []string {
	keys := make([]string, 0, len(f.m))
	for k := range f.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
