// Command lint runs the repository's static-analysis suite (see
// internal/lint): the per-package rules (determinism of the simulation
// path, goroutine hygiene, error discards, lock copies, wire codec
// symmetry, loop bounds) and the cross-package contract rules
// (determinism-taint, atomicio-bypass, timer-commit, snapshot-mutation,
// lock-across-blocking) driven by the parallel analysis engine.
//
// Usage:
//
//	lint [-json] [-rules nondeterminism,error-discard] [-baseline file|off] [packages]
//
// With no packages it analyzes ./.... Findings covered by the baseline
// (default <module>/lint.baseline.json when present; -baseline off
// disables) are grandfathered; everything else is reported.
//
// Exit codes:
//
//	0  clean — no findings beyond the baseline
//	1  findings — contract violations (or stale baseline entries) to fix
//	2  the linter itself failed — bad usage, load error, or type error
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"honeyfarm/internal/lint"
)

func main() {
	os.Exit(run(".", os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with the process edges injected so the exit-code
// taxonomy is table-testable: dir anchors module discovery, args are
// the command-line arguments, and the exit code is returned instead of
// passed to os.Exit.
func run(dir string, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit the machine-readable report (schema "+lint.ReportSchema+")")
	rules := fs.String("rules", "", "comma-separated rule subset (default: all rules)")
	ruleAlias := fs.String("rule", "", "alias for -rules")
	baselinePath := fs.String("baseline", "", "baseline file (default <module>/lint.baseline.json if present; \"off\" disables)")
	list := fs.Bool("list", false, "list available rules and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-22s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	ruleList := *rules
	if ruleList == "" {
		ruleList = *ruleAlias
	}
	analyzers, err := lint.ByName(ruleList)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	root, err := lint.FindModuleRoot(dir)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	res, err := lint.NewLoader(root).Check(lint.CheckOptions{
		Patterns:  fs.Args(),
		Analyzers: analyzers,
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	findings := res.Findings
	baselined := 0
	var stale []lint.BaselineEntry
	if *baselinePath != "off" {
		path := *baselinePath
		optional := path == ""
		if optional {
			path = filepath.Join(root, "lint.baseline.json")
		}
		entries, err := lint.LoadBaseline(path)
		switch {
		case err == nil:
			findings, baselined, stale = lint.ApplyBaseline(findings, entries, root)
		case optional && os.IsNotExist(err):
			// No default baseline: every finding stands on its own.
		default:
			fmt.Fprintln(stderr, err)
			return 2
		}
	}

	if *jsonOut {
		if err := lint.NewReport(findings, root, res.Packages, baselined).Write(stdout); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	for _, e := range stale {
		fmt.Fprintf(stderr, "lint: stale baseline entry (%d unmatched): [%s] %s: %s\n", e.Count, e.Rule, e.File, e.Message)
	}
	if len(findings) > 0 || len(stale) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "lint: %d finding(s) across %d package(s)\n", len(findings), res.Packages)
		}
		return 1
	}
	return 0
}
