package lint

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// writeModule materializes a scratch module for engine tests. The
// dependent package sits under internal/report so the deterministic
// rules are live; the dependency sits under internal/clock, off the
// deterministic path, like the wire packages in the real module.
func writeModule(t *testing.T, clockSrc string) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod":                  "module scratch\n\ngo 1.22\n",
		"internal/clock/clock.go": clockSrc,
		"internal/report/report.go": `package report

import (
	"os"
	"strconv"

	"scratch/internal/clock"
)

func persist(f *os.File, data []byte) error {
	_, err := f.Write(data)
	return err
}

func Dump(f *os.File) error {
	ts := clock.Stamp()
	return persist(f, []byte(strconv.FormatInt(ts, 10)))
}
`,
	}
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

const wallClockSrc = `package clock

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`

// TestCrossPackageTaint is the end-to-end case the engine exists for: a
// wall-clock read in a package outside the determinism contract flows
// through an exported function into a durable write inside it. No
// single-package analysis can see this; the propagated Nondet fact
// does.
func TestCrossPackageTaint(t *testing.T) {
	dir := writeModule(t, wallClockSrc)
	res, err := NewLoader(dir).Check(CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) != 1 {
		t.Fatalf("findings = %v, want exactly one determinism-taint", res.Findings)
	}
	f := res.Findings[0]
	if f.Rule != "determinism-taint" {
		t.Fatalf("rule = %s, want determinism-taint", f.Rule)
	}
	if filepath.Base(f.Pos.Filename) != "report.go" {
		t.Fatalf("finding in %s, want report.go (the sink side)", f.Pos.Filename)
	}
}

// TestEngineDeterministicOrder runs the engine repeatedly over the real
// module and requires identical findings and facts, so map iteration
// order never leaks into a finding or the provenance chain its message
// quotes.
func TestEngineDeterministicOrder(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	var first *CheckResult
	for i := 0; i < 3; i++ {
		res, err := NewLoader(root).Check(CheckOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res
			continue
		}
		if !reflect.DeepEqual(first.Findings, res.Findings) {
			t.Fatalf("run %d produced different findings:\nfirst: %v\nthis:  %v", i, first.Findings, res.Findings)
		}
		if !reflect.DeepEqual(first.Facts, res.Facts) {
			t.Fatalf("run %d computed different facts (provenance chains, which findings quote)", i)
		}
	}
}

// sortedFactKeys returns the stored fact keys in deterministic order.
func (f *Facts) sortedFactKeys() []string {
	keys := make([]string, 0, len(f.m))
	for k := range f.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
