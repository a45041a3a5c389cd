package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// fixtureDirs maps each testdata/src directory to the synthetic import
// path its sources are type-checked under. The path-restricted rules
// (nondeterminism, bounded-loop) activate only when the path carries a
// deterministic suffix, so those fixtures opt in through their path.
var fixtureDirs = map[string]string{
	"nondeterminism": "fixture/internal/workload",
	"goroutine":      "fixture/goroutine",
	"errdiscard":     "fixture/errdiscard",
	"boundedloop":    "fixture/internal/stats",
	"suppress":       "fixture/sup/internal/workload",
	"dettaint":       "fixture/dt/internal/report",
	"atomicbypass":   "fixture/ab/cmd/export",
	"timercommit":    "fixture/timercommit",
	"snapmut":        "fixture/snapmut",
	"lockblocking":   "fixture/lockblocking",
}

// fixtureExtraWant lists expected findings that cannot carry an inline
// "// want <rule>" marker — standalone malformed directives are whole
// comment lines, so their expectation lives here as "file:line:rule".
var fixtureExtraWant = map[string][]string{
	"suppress": {
		"malformed.go:8:directive",
		"malformed.go:12:directive",
		// stale.go: a stale suppression, an unknown rule name, and a
		// wildcard that suppresses nothing — each reported at its
		// directive comment.
		"stale.go:6:directive",
		"stale.go:13:directive",
		"stale.go:19:directive",
		// precedence.go: the line-above directive is shadowed by the
		// same-line one and reported stale.
		"precedence.go:9:directive",
	},
}

// TestFixtures runs the full analyzer suite over every golden fixture
// and requires the findings to match the "// want <rule>" markers
// exactly — no missing findings, no extras from any rule. Each fixture
// file is checked as its own single-file package (bad.go and good.go
// deliberately declare the same identifiers).
func TestFixtures(t *testing.T) {
	loader := NewLoader(mustModuleRoot(t))
	for dir, pkgPath := range fixtureDirs {
		t.Run(dir, func(t *testing.T) {
			sources, want := readFixture(t, dir)
			got := map[string]int{}
			for name, src := range sources {
				pkg, err := loader.CheckSource(pkgPath, map[string]string{name: src})
				if err != nil {
					t.Fatal(err)
				}
				if len(pkg.TypeErrors) > 0 {
					t.Fatalf("%s does not type-check: %v", name, pkg.TypeErrors)
				}
				for _, f := range Run([]*Package{pkg}, All()) {
					got[fmt.Sprintf("%s:%d:%s", f.Pos.Filename, f.Pos.Line, f.Rule)]++
				}
			}
			for _, key := range sortedKeys(want) {
				if got[key] < want[key] {
					t.Errorf("missing finding %s (want %d, got %d)", key, want[key], got[key])
				}
			}
			for _, key := range sortedKeys(got) {
				if got[key] > want[key] {
					t.Errorf("unexpected finding %s (want %d, got %d)", key, want[key], got[key])
				}
			}
		})
	}
}

func mustModuleRoot(t *testing.T) string {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// readFixture loads every .go file of a fixture directory and collects
// its "// want <rule>" markers as "file:line:rule" expectations.
func readFixture(t *testing.T, dir string) (map[string]string, map[string]int) {
	t.Helper()
	full := filepath.Join("testdata", "src", dir)
	entries, err := os.ReadDir(full)
	if err != nil {
		t.Fatal(err)
	}
	sources := map[string]string{}
	want := map[string]int{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(full, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sources[e.Name()] = string(data)
		for i, line := range strings.Split(string(data), "\n") {
			idx := strings.Index(line, "// want ")
			if idx < 0 {
				continue
			}
			fields := strings.Fields(line[idx+len("// want "):])
			if len(fields) == 0 {
				t.Fatalf("%s:%d: // want marker without a rule", e.Name(), i+1)
			}
			want[fmt.Sprintf("%s:%d:%s", e.Name(), i+1, fields[0])]++
		}
	}
	for _, key := range fixtureExtraWant[dir] {
		want[key]++
	}
	return sources, want
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
