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
// returns the segment files of the log it wrote, concatenated.
func generate(t *testing.T, args ...string) []byte {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "d")
	var out, errOut bytes.Buffer
	if code := run(append(args, "-out", dir), &out, &errOut); code != 0 {
		t.Fatalf("honeyfarm %v: exit %d\n%s", args, code, errOut.String())
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments of %s: %v, %v", dir, segs, err)
	}
	var data []byte
	for _, seg := range segs {
		b, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, b...)
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

// TestUnknownFormatRefusedFirst: a -format no writer knows, jsonl
// included, and -out - for a record log are usage errors, refused
// before the dataset is generated.
func TestUnknownFormatRefusedFirst(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.out")
	for _, args := range [][]string{{"-format", "bogus", "-out", path}, {"-format", "jsonl", "-out", path}, {"-out", "-"}} {
		var out, errOut bytes.Buffer
		code := run(args, &out, &errOut)
		if msg := errOut.String(); code != 2 || strings.Contains(msg, "dataset:") || !strings.Contains(msg, "cowrie") {
			t.Errorf("%v: exit %d, want 2 naming the formats before any generation:\n%s", args, code, msg)
		}
		if args[0] == "-format" && !strings.Contains(errOut.String(), "wal") {
			t.Errorf("%v: the refusal does not name wal:\n%s", args, errOut.String())
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) || out.Len() > 0 {
			t.Errorf("%v: a refused run wrote %s (%v) or %d bytes to stdout", args, path, err, out.Len())
		}
	}
}

// TestNonPositiveSizesRefusedFirst: a -sessions, -days or -pots below
// one is a usage error naming the flag, refused before the dataset is
// generated, not a default generated in its place.
func TestNonPositiveSizesRefusedFirst(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d")
	for _, args := range [][]string{{"-sessions", "0"}, {"-sessions", "-1"}, {"-days", "0"}, {"-pots", "0"}, {"-pots", "-3"}} {
		var out, errOut bytes.Buffer
		code := run(append(args, "-out", path), &out, &errOut)
		if msg := errOut.String(); code != 2 || strings.Contains(msg, "dataset:") || !strings.Contains(msg, args[0]+" "+args[1]) {
			t.Errorf("%v: exit %d, want 2 naming %s before any generation:\n%s", args, code, args[0], msg)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) || out.Len() > 0 {
			t.Errorf("%v: a refused run wrote %s (%v) or %d bytes to stdout", args, path, err, out.Len())
		}
	}
}

// TestExistingOutRefusedFirst: an -out that already exists, or whose
// temporary sibling does, is refused before the dataset is generated,
// and what is there is left as it was.
func TestExistingOutRefusedFirst(t *testing.T) {
	for _, existing := range []string{"d", "d.tmp"} {
		dir := filepath.Join(t.TempDir(), "d")
		mine := filepath.Join(filepath.Dir(dir), existing, "mine")
		if err := os.MkdirAll(filepath.Dir(mine), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(mine, []byte("keep"), 0o644); err != nil {
			t.Fatal(err)
		}
		var out, errOut bytes.Buffer
		code := run([]string{"-sessions", "5000", "-out", dir}, &out, &errOut)
		if msg := errOut.String(); code != 1 || strings.Contains(msg, "dataset:") || !strings.Contains(msg, "file already exists") {
			t.Errorf("existing %s: exit %d, want 1 refusing it before any generation:\n%s", existing, code, msg)
		}
		if b, err := os.ReadFile(mine); err != nil || string(b) != "keep" {
			t.Errorf("existing %s: %s/mine is now %q, %v", existing, existing, b, err)
		}
		if ents, _ := os.ReadDir(filepath.Dir(mine)); len(ents) != 1 {
			t.Errorf("existing %s: it holds %d entries, want 1", existing, len(ents))
		}
	}
}
