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
	dropDiff := 0
	for i := uint64(0); i < 2000; i++ {
		if p.DropsSession(i) != p.DropsSession(i) {
			t.Fatalf("index %d: drop decision not deterministic", i)
		}
		if p.DropsSession(i) != q.DropsSession(i) {
			dropDiff++
		}
	}
	if dropDiff == 0 {
		t.Error("changing the seed changed no drop decision")
	}
}

// TestActive: a plan is active when it can drop a session or down a
// pot; a seed alone injects nothing.
func TestActive(t *testing.T) {
	cases := []struct {
		p    *Plan
		want bool
	}{
		{nil, false},
		{&Plan{}, false},
		{&Plan{Seed: 3}, false},
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

// TestBackoff pins the one retry policy at the delays the coordinator
// and the WAL wait in production (base 0 → 25 ms, doubling, capped at
// 2 s), and a test base's growth under the same cap.
func TestBackoff(t *testing.T) {
	ms := time.Millisecond
	cases := []struct {
		base    time.Duration
		attempt int
		want    time.Duration
	}{
		{0, 0, 25 * ms}, {0, 1, 50 * ms}, {0, 2, 100 * ms}, {0, 3, 200 * ms},
		{0, 4, 400 * ms}, {0, 5, 800 * ms}, {0, 6, 1600 * ms}, {0, 7, 2 * time.Second},
		{0, 40, 2 * time.Second}, {-ms, 1, 50 * ms},
		{ms, 0, ms}, {ms, 3, 8 * ms}, {ms, 40, 2 * time.Second},
	}
	for _, c := range cases {
		if got := Backoff(c.base, c.attempt); got != c.want {
			t.Errorf("Backoff(%v, %d) = %v, want %v", c.base, c.attempt, got, c.want)
		}
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
	if r.Pots[1].DowntimeDrops != 2 || r.Pots[0].ConnDrops != 1 {
		t.Errorf("drops = %+v, want pot 1 two downtime drops and pot 0 one connection drop", r.Pots)
	}
}

// TestPlanJSONRoundTrip pins the scenario-file schema.
func TestPlanJSONRoundTrip(t *testing.T) {
	p := &Plan{
		Seed: 9, RefuseRate: 0.1, ResetRate: 0.05, StallRate: 0.02,
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
		back.Outages[0] != p.Outages[0] {
		t.Errorf("round trip lost fields: %+v", back)
	}
}
