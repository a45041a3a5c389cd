package main

import (
	"bytes"
	"flag"
	"fmt"
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

// TestBadSizesRefusedFirst: a -sessions below one or a negative
// -workers is a usage error naming the flag, refused before anything is
// generated, not a default generated in its place.
func TestBadSizesRefusedFirst(t *testing.T) {
	for _, args := range [][]string{{"-sessions", "0"}, {"-sessions", "-5"}, {"-workers", "-1"}} {
		var out, errOut bytes.Buffer
		code := run(args, &out, &errOut)
		if msg := errOut.String(); code != 2 || strings.Contains(msg, "generating") || !strings.Contains(msg, args[0]+" "+args[1]) {
			t.Errorf("%v: exit %d, want 2 naming %s before any generation:\n%s", args, code, args[0], msg)
		}
		if out.Len() > 0 {
			t.Errorf("%v: a refused run wrote %d bytes of report", args, out.Len())
		}
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
		{`{"backoff_base_ms": 5}`, `"backoff_base_ms"`},
		{`{"backoff_cap_ms": 500}`, `"backoff_cap_ms"`},
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

// TestWriteAvailability runs TestFaultsByteIdentical's plan at 4,000
// sessions on 24 pots over 30 days: the totals line accounts for every
// session the faults removed, the full-period outage shows as pot 3's
// 30 down days, and the header ends at the last drop column.
func TestWriteAvailability(t *testing.T) {
	cfg := honeyfarm.SimulateConfig{Seed: 42, TotalSessions: 4000, Days: 30, NumPots: 24}
	clean, err := honeyfarm.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = &honeyfarm.FaultPlan{
		Seed: 7, RefuseRate: 0.1, ResetRate: 0.07, StallRate: 0.05,
		Outages: []honeyfarm.FaultOutage{
			{Pot: 3, FirstDay: 0, LastDay: 29},
			{Pot: 5, FirstDay: 10, LastDay: 19},
		},
	}
	faulted, err := honeyfarm.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	WriteAvailability(&buf, faulted)
	lines := strings.Split(buf.String(), "\n")

	if header := strings.Fields(lines[1]); header[len(header)-1] != "conn_drops" {
		t.Errorf("header %q does not end at conn_drops", lines[1])
	}
	var pots, down, conn int
	var pot3 []string
	for _, line := range lines[2:] {
		if f := strings.Fields(line); len(f) > 0 && f[0] == "3" {
			pot3 = f
		}
		if strings.HasPrefix(line, "totals:") {
			if _, err := fmt.Sscanf(line, "totals: %d pots with outage windows, %d sessions lost to downtime, %d to connection faults",
				&pots, &down, &conn); err != nil {
				t.Fatalf("totals line %q: %v", line, err)
			}
		}
	}
	if lost := clean.Sessions() - faulted.Sessions(); down+conn != lost || down == 0 || conn == 0 {
		t.Errorf("totals: %d downtime + %d connection drops, want both > 0 summing to the %d sessions lost", down, conn, lost)
	}
	if pots != 2 {
		t.Errorf("totals: %d pots with outage windows, want 2", pots)
	}
	if len(pot3) < 3 || pot3[1] != "0" || pot3[2] != "30" {
		t.Errorf("pot 3 row %q, want 0 sessions and 30 down days", pot3)
	}
}
