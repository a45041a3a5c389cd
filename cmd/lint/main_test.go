package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// scratchModule materializes a throwaway module so each exit-code path
// runs against a real `go list` load.
func scratchModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module scratch\n\ngo 1.22\n"
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const cleanSrc = `package scratch

func Add(a, b int) int { return a + b }
`

const findingSrc = `package scratch

import "errors"

func mayFail() error { return errors.New("boom") }

func Fire() { mayFail() }
`

const waivedSrc = `package scratch

import "errors"

func mayFail() error { return errors.New("boom") }

func Fire() {
	//lint:ignore error-discard the caller has nothing to report to
	mayFail()
}
`

const staleDirectiveSrc = `package scratch

//lint:ignore error-discard nothing on the next line discards an error
func Add(a, b int) int { return a + b }
`

const typeErrorSrc = `package scratch

func Broken() { undefinedFunction() }
`

// TestExitCodes drives the documented taxonomy through run(): 0 clean,
// 1 findings, 2 load/type error — plus the -rules filter on both sides
// of the findings boundary, and the one waiver mechanism: a reasoned
// //lint:ignore clears its finding, a directive that waives nothing is
// a finding itself.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name     string
		src      string
		args     []string
		wantExit int
		wantOut  string // substring of stdout, "" = don't care
	}{
		{name: "clean", src: cleanSrc, wantExit: 0},
		{name: "findings", src: findingSrc, wantExit: 1, wantOut: "error-discard"},
		{name: "waived by directive", src: waivedSrc, wantExit: 0},
		{name: "stale directive", src: staleDirectiveSrc, wantExit: 1, wantOut: "stale suppression"},
		{name: "type error", src: typeErrorSrc, wantExit: 2},
		{name: "findings filtered out", src: findingSrc,
			args: []string{"-rules", "nondeterminism"}, wantExit: 0},
		{name: "findings filtered in", src: findingSrc,
			args: []string{"-rules", "error-discard,nondeterminism"}, wantExit: 1, wantOut: "error-discard"},
		{name: "unknown rule", src: cleanSrc,
			args: []string{"-rules", "no-such-rule"}, wantExit: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := scratchModule(t, map[string]string{"scratch.go": tc.src})
			var stdout, stderr bytes.Buffer
			args := append(tc.args, "./...")
			if got := run(dir, args, &stdout, &stderr); got != tc.wantExit {
				t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", got, tc.wantExit, stdout.String(), stderr.String())
			}
			if tc.wantOut != "" && !strings.Contains(stdout.String(), tc.wantOut) {
				t.Fatalf("stdout missing %q:\n%s", tc.wantOut, stdout.String())
			}
		})
	}
}

// TestJSONStream pins the stream contract check.sh depends on: the
// -json report is all of stdout, and stderr stays empty on a clean run.
func TestJSONStream(t *testing.T) {
	dir := scratchModule(t, map[string]string{"scratch.go": cleanSrc})
	var stdout, stderr bytes.Buffer
	if got := run(dir, []string{"-json", "./..."}, &stdout, &stderr); got != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", got, stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "{") || !strings.Contains(stdout.String(), `"schema": "honeyfarm-lint-report-v2"`) {
		t.Errorf("stdout is not the -json report:\n%s", stdout.String())
	}
	if stderr.Len() != 0 {
		t.Errorf("clean run wrote to stderr:\n%s", stderr.String())
	}
}
