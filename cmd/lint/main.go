// Command lint runs the repository's static-analysis suite (see
// internal/lint): the per-package rules (determinism of the simulation
// path, goroutine hygiene, error discards, loop bounds) and the
// cross-package contract rules (determinism-taint, atomicio-bypass,
// timer-commit, snapshot-mutation, lock-across-blocking).
//
// Usage:
//
//	lint [-json] [-rules nondeterminism,error-discard] [-list] [packages]
//
// With no packages it analyzes ./.... Every finding is reported unless a
// reasoned //lint:ignore directive at its line waives it; a directive
// that waives nothing is itself a finding.
//
// Exit codes:
//
//	0  clean — no findings
//	1  findings — contract violations (or stale directives) to fix
//	2  the linter itself failed — bad usage, load error, or type error
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

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

	analyzers, err := lint.ByName(*rules)
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

	if *jsonOut {
		if err := lint.NewReport(res.Findings, root, res.Packages).Write(stdout); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	} else {
		for _, f := range res.Findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(res.Findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "lint: %d finding(s) across %d package(s)\n", len(res.Findings), res.Packages)
		}
		return 1
	}
	return 0
}
