package faults

import (
	"encoding/json"
	"math"
	"testing"
	"time"
)

func TestValidate(t *testing.T) {
	good := []*Plan{
		nil,
		{},
		{Seed: 1, RefuseRate: 0.2, ResetRate: 0.3, StallRate: 0.5},
		{Outages: []Outage{{Pot: 0, FirstDay: 0, LastDay: 0}}},
	}
	for i, p := range good {
		if err := p.Validate(); err != nil {
			t.Errorf("plan %d: unexpected error %v", i, err)
		}
	}
	bad := []*Plan{
		{RefuseRate: -0.1},
		{StallRate: 1.5},
		{RefuseRate: 0.5, ResetRate: 0.4, StallRate: 0.2}, // sums past 1
		{BackoffBaseMS: -1},
		{Outages: []Outage{{Pot: -1, FirstDay: 0, LastDay: 1}}},
		{Outages: []Outage{{Pot: 0, FirstDay: 5, LastDay: 2}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad plan %d passed validation: %+v", i, p)
		}
	}
}

// TestDecisionsDeterministic pins the core contract: the same (seed,
// index) always yields the same decision, and a different seed yields a
// different decision sequence.
func TestDecisionsDeterministic(t *testing.T) {
	p := &Plan{Seed: 7, RefuseRate: 0.1, ResetRate: 0.1, StallRate: 0.1}
	q := &Plan{Seed: 8, RefuseRate: 0.1, ResetRate: 0.1, StallRate: 0.1}
	dropDiff, backoffDiff := 0, 0
	for i := uint64(0); i < 2000; i++ {
		if p.DropsSession(i) != p.DropsSession(i) {
			t.Fatalf("index %d: drop decision not deterministic", i)
		}
		if p.DropsSession(i) != q.DropsSession(i) {
			dropDiff++
		}
		a := p.Backoff(int(i%16), int(i/16))
		if a != p.Backoff(int(i%16), int(i/16)) {
			t.Fatalf("index %d: backoff not deterministic", i)
		}
		if a != q.Backoff(int(i%16), int(i/16)) {
			backoffDiff++
		}
	}
	if dropDiff == 0 || backoffDiff == 0 {
		t.Errorf("changing the seed changed %d drop and %d backoff decisions, want some of each", dropDiff, backoffDiff)
	}
}

// TestActive: a plan is active when it can drop a session or down a
// pot; a seed or a backoff policy alone injects nothing.
func TestActive(t *testing.T) {
	cases := []struct {
		p    *Plan
		want bool
	}{
		{nil, false},
		{&Plan{}, false},
		{&Plan{Seed: 3, BackoffBaseMS: 5, BackoffCapMS: 50}, false},
		{&Plan{RefuseRate: 0.1}, true},
		{&Plan{ResetRate: 0.1}, true},
		{&Plan{StallRate: 0.1}, true},
		{&Plan{Outages: []Outage{{Pot: 0, FirstDay: 1, LastDay: 1}}}, true},
	}
	for _, c := range cases {
		if got := c.p.Active(); got != c.want {
			t.Errorf("Active(%+v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestDropsSessionRate(t *testing.T) {
	p := &Plan{Seed: 11, RefuseRate: 0.08, ResetRate: 0.07, StallRate: 0.05}
	const n = 20000
	drops := 0
	for i := uint64(0); i < n; i++ {
		if p.DropsSession(i) != p.DropsSession(i) {
			t.Fatal("DropsSession not deterministic")
		}
		if p.DropsSession(i) {
			drops++
		}
	}
	if f := float64(drops) / n; math.Abs(f-0.2) > 0.05 {
		t.Errorf("session drop rate = %.3f, want ≈ 0.20", f)
	}
	var none *Plan
	if none.DropsSession(1) {
		t.Error("nil plan drops sessions")
	}
}

func TestPotDownWindows(t *testing.T) {
	p := &Plan{Outages: []Outage{
		{Pot: 2, FirstDay: 3, LastDay: 5},
		{Pot: 2, FirstDay: 9, LastDay: 9},
		{Pot: 4, FirstDay: 0, LastDay: 1},
	}}
	cases := []struct {
		pot, day int
		down     bool
	}{
		{2, 2, false}, {2, 3, true}, {2, 4, true}, {2, 5, true}, {2, 6, false},
		{2, 9, true}, {4, 0, true}, {4, 2, false}, {0, 3, false},
	}
	for _, c := range cases {
		if got := p.PotDown(c.pot, c.day); got != c.down {
			t.Errorf("PotDown(%d, %d) = %v, want %v", c.pot, c.day, got, c.down)
		}
	}
}

// TestBackoff checks the policy: monotone non-decreasing ceilings,
// capped growth, deterministic jitter in [d/2, d), and nil-plan safety.
func TestBackoff(t *testing.T) {
	p := &Plan{Seed: 5, BackoffBaseMS: 10, BackoffCapMS: 100}
	prevCeil := time.Duration(0)
	for attempt := 0; attempt < 12; attempt++ {
		d := p.Backoff(3, attempt)
		if d != p.Backoff(3, attempt) {
			t.Fatal("backoff not deterministic")
		}
		ceil := 10 * time.Millisecond
		for i := 0; i < attempt && ceil < 100*time.Millisecond; i++ {
			ceil *= 2
		}
		if ceil > 100*time.Millisecond {
			ceil = 100 * time.Millisecond
		}
		if d < ceil/2 || d >= ceil {
			t.Errorf("attempt %d: backoff %v outside [%v, %v)", attempt, d, ceil/2, ceil)
		}
		if ceil < prevCeil {
			t.Errorf("attempt %d: ceiling shrank", attempt)
		}
		prevCeil = ceil
	}

	var none *Plan
	if d := none.Backoff(0, 2); d != 4*DefaultBackoffBase {
		t.Errorf("nil plan backoff attempt 2 = %v, want %v", d, 4*DefaultBackoffBase)
	}
	if d := none.Backoff(0, 40); d != DefaultBackoffCap {
		t.Errorf("nil plan backoff attempt 40 = %v, want cap %v", d, DefaultBackoffCap)
	}
}

func TestReportAccounting(t *testing.T) {
	p := &Plan{Outages: []Outage{
		{Pot: 1, FirstDay: 0, LastDay: 4},
		{Pot: 1, FirstDay: 2, LastDay: 6},  // overlaps the first window
		{Pot: 3, FirstDay: 8, LastDay: 40}, // clipped to the period
	}}
	r := NewReport(p, 4, 10)
	if r.Pots[1].DownDays != 7 { // union of [0,4] and [2,6]
		t.Errorf("pot 1 down days = %d, want 7", r.Pots[1].DownDays)
	}
	if r.Pots[3].DownDays != 2 { // [8,9] after clipping
		t.Errorf("pot 3 down days = %d, want 2", r.Pots[3].DownDays)
	}
	if r.Pots[0].DownDays != 0 || r.Pots[2].DownDays != 0 {
		t.Error("unaffected pots show downtime")
	}
	r.AddDowntimeDrop(1)
	r.AddDowntimeDrop(1)
	r.AddConnDrop(0)
	r.AddConnDrop(99) // out of range: ignored, not a panic
	if r.TotalDropped() != 3 {
		t.Errorf("total dropped = %d, want 3", r.TotalDropped())
	}
}

// TestPlanJSONRoundTrip pins the scenario-file schema.
func TestPlanJSONRoundTrip(t *testing.T) {
	p := &Plan{
		Seed: 9, RefuseRate: 0.1, ResetRate: 0.05, StallRate: 0.02,
		BackoffBaseMS: 5, BackoffCapMS: 500,
		Outages: []Outage{{Pot: 7, FirstDay: 10, LastDay: 20}},
	}
	raw, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back Plan
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Seed != p.Seed || back.RefuseRate != p.RefuseRate || len(back.Outages) != 1 ||
		back.Outages[0] != p.Outages[0] || back.BackoffCapMS != 500 {
		t.Errorf("round trip lost fields: %+v", back)
	}
}
