package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"honeyfarm"
)

var updateGolden = flag.Bool("update", false, "rewrite the comparison golden file")

// TestComparisonGolden pins WriteComparison's output at 20k sessions on
// seed 1, so the headline block EXPERIMENTS.md quotes (the same tool at
// 400k) moves only with a reviewed golden diff.
func TestComparisonGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a 20k-session dataset")
	}
	d, err := honeyfarm.Simulate(honeyfarm.SimulateConfig{Seed: 1, TotalSessions: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	WriteComparison(&buf, d)
	got := buf.Bytes()

	golden := filepath.Join("testdata", "comparison_20k_seed1.golden.txt")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run go test ./cmd/reproduce -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("comparison changed (run go test ./cmd/reproduce -update and review the diff)\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestLoadFaultPlanRefusesUnknownKeys: a -faults key the plan does not
// have — a typo, or a knob that no longer exists — is refused by name
// instead of running the reproduction without the fault asked for.
func TestLoadFaultPlanRefusesUnknownKeys(t *testing.T) {
	for _, c := range []struct{ arg, key string }{
		{`{"refuse_rat": 0.5}`, `"refuse_rat"`},
		{`{"jitter_rate": 0.1}`, `"jitter_rate"`},
		{`{"max_jitter_ms": 5}`, `"max_jitter_ms"`},
	} {
		if _, err := loadFaultPlan(c.arg, 1); err == nil || !strings.Contains(err.Error(), c.key) {
			t.Errorf("-faults %s: err = %v, want an error naming %s", c.arg, err, c.key)
		}
	}
	plan, err := loadFaultPlan(`{"refuse_rate": 0.5}`, 7)
	if err != nil || plan.RefuseRate != 0.5 || plan.Seed != 7 {
		t.Errorf("-faults {\"refuse_rate\": 0.5} = %+v, %v; want the rate, seed 7", plan, err)
	}
}
