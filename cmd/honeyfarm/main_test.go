package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// generate runs the command with args, writing to a fresh -out, and
// returns the dataset it wrote.
func generate(t *testing.T, args ...string) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "d.jsonl")
	var out, errOut bytes.Buffer
	if code := run(append(args, "-out", path), &out, &errOut); code != 0 {
		t.Fatalf("honeyfarm %v: exit %d\n%s", args, code, errOut.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// scenarioFile writes a scenario to a fresh file and returns its path.
func scenarioFile(t *testing.T, js string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := os.WriteFile(path, []byte(js), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestScenarioKeysTakeFlags: a key the scenario leaves out takes the
// flag's value, and the fault plan inherits the seed resolved so. A
// scenario that sets nothing is the run without one; a plan without a
// seed is the plan with -seed's.
func TestScenarioKeysTakeFlags(t *testing.T) {
	flags := []string{"-seed", "7", "-sessions", "3000", "-days", "30", "-pots", "10"}
	withScenario := func(flags []string, js string) []byte {
		return generate(t, slices.Concat(flags, []string{"-scenario", scenarioFile(t, js)})...)
	}
	plain := generate(t, flags...)
	if got := withScenario(flags, `{}`); !bytes.Equal(got, plain) {
		t.Errorf("an empty scenario wrote %d bytes, the same flags without one %d", len(got), len(plain))
	}
	if got := withScenario(flags[:2], `{"total_sessions": 3000, "days": 30, "pots": 10}`); !bytes.Equal(got, plain) {
		t.Errorf("the flags' scenario without a seed wrote %d bytes, the flags %d", len(got), len(plain))
	}

	noSeed := withScenario(flags, `{"faults": {"refuse_rate": 0.2}}`)
	seeded := withScenario(flags, `{"faults": {"seed": 7, "refuse_rate": 0.2}}`)
	if !bytes.Equal(noSeed, seeded) {
		t.Errorf("a plan without a seed wrote %d bytes, the plan seeded 7 %d", len(noSeed), len(seeded))
	}
	if len(noSeed) >= len(plain) {
		t.Errorf("a 20%% refuse rate culled nothing: %d bytes, %d without the plan", len(noSeed), len(plain))
	}
}

// TestUnknownFormatRefusedFirst: a -format no writer knows is a usage
// error, refused before the dataset is generated.
func TestUnknownFormatRefusedFirst(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.out")
	var out, errOut bytes.Buffer
	if code := run([]string{"-format", "bogus", "-out", path}, &out, &errOut); code != 2 || strings.Contains(errOut.String(), "dataset:") {
		t.Errorf("exit %d, want 2 before any generation:\n%s", code, errOut.String())
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("a refused run wrote %s: %v", path, err)
	}
}
