package scenario

import (
	"strings"
	"testing"

	"honeyfarm/internal/analysis"
	"honeyfarm/internal/geo"
	"honeyfarm/internal/workload"
)

// TestLoadDefaults: a key the scenario leaves out keeps the base's
// value, and a fault plan without a seed inherits the seed resolved so.
func TestLoadDefaults(t *testing.T) {
	cfg, err := Load(strings.NewReader(`{"total_sessions": 1000, "faults": {"refuse_rate": 0.1}}`), Scenario{Seed: 7, TotalSessions: 5, Days: 30, Pots: 10})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 7 || cfg.TotalSessions != 1000 || cfg.Days != 30 || cfg.NumPots != 10 || cfg.Shares != nil || cfg.Spikes != nil {
		t.Errorf("cfg = %+v", cfg)
	}
	if cfg.Faults == nil || cfg.Faults.Seed != 7 {
		t.Errorf("plan = %+v, want the seed 7 the scenario resolved to", cfg.Faults)
	}
}

func TestLoadFullScenario(t *testing.T) {
	js := `{
		"seed": 3, "total_sessions": 5000, "days": 60, "pots": 20,
		"category_shares": {"NO_CRED": 0.5, "FAIL_LOG": 0.25, "NO_CMD": 0.05, "CMD": 0.19, "CMD+URI": 0.01},
		"ssh_shares": {"NO_CRED": 0.9},
		"spikes": [{"category": "FAIL_LOG", "first_day": 10, "last_day": 12, "multiplier": 4, "pots": 2}],
		"disable_campaigns": true
	}`
	cfg, err := Load(strings.NewReader(js), Scenario{})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Shares == nil || cfg.Shares[analysis.NoCred] != 0.5 {
		t.Errorf("shares = %v", cfg.Shares)
	}
	if cfg.SSHShares == nil || cfg.SSHShares[analysis.NoCred] != 0.9 {
		t.Errorf("ssh shares = %v", cfg.SSHShares)
	}
	// Unspecified SSH shares keep the paper values.
	if cfg.SSHShares[analysis.FailLog] != workload.SSHShare[analysis.FailLog] {
		t.Error("unspecified ssh share should keep default")
	}
	if len(cfg.Spikes) != 1 || cfg.Spikes[0].Category != analysis.FailLog || cfg.Spikes[0].Multiplier != 4 {
		t.Errorf("spikes = %+v", cfg.Spikes)
	}
	if !cfg.DisableCampaigns {
		t.Error("disable_campaigns lost")
	}

	// The scenario actually drives generation.
	cfg.Registry = geo.NewRegistry(geo.Config{Seed: 1})
	res, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	shares := analysis.ComputeCategoryShares(res.Store)
	if shares.Overall[analysis.NoCred] < 0.42 || shares.Overall[analysis.NoCred] > 0.58 {
		t.Errorf("scenario NO_CRED share = %.3f, want ≈0.5", shares.Overall[analysis.NoCred])
	}
	if shares.SSHShareOfCategory[analysis.NoCred] < 0.85 {
		t.Errorf("scenario NO_CRED ssh share = %.3f, want ≈0.9", shares.SSHShareOfCategory[analysis.NoCred])
	}
}

func TestLoadErrors(t *testing.T) {
	cases := []struct{ js, want string }{
		{`{"unknown_field": 1}`, `"unknown_field"`},
		// Generation has no checkpoint: a scenario that still asks for
		// one is refused by name, not run without it.
		{`{"checkpoint_dir": "ckpt"}`, `"checkpoint_dir"`},
		{`{"resume": true}`, `"resume"`},
		// The plan has no jitter knobs: a fault block that still sets one
		// is refused by name.
		{`{"faults": {"jitter_rate": 0.1}}`, `"jitter_rate"`},
		{`{"faults": {"max_jitter_ms": 5}}`, `"max_jitter_ms"`},
		// Nor a backoff: retries wait on one fixed policy, not the plan's.
		{`{"faults": {"backoff_base_ms": 5}}`, `"backoff_base_ms"`},
		{`{"faults": {"backoff_cap_ms": 500}}`, `"backoff_cap_ms"`},
		{`{"category_shares": {"BOGUS": 0.5}}`, ""},
		{`{"category_shares": {"NO_CRED": 1.5}}`, ""},
		{`{"category_shares": {"NO_CRED": 0.9}}`, ""}, // sums far above 1
		{`{"spikes": [{"category": "NOPE", "first_day": 0, "last_day": 1, "multiplier": 2}]}`, ""},
		{`{"spikes": [{"category": "CMD", "first_day": 5, "last_day": 1, "multiplier": 2}]}`, ""},
		{`{"spikes": [{"category": "CMD", "first_day": 1, "last_day": 2, "multiplier": 0}]}`, ""},
		{`not json`, ""},
	}
	for _, c := range cases {
		if _, err := Load(strings.NewReader(c.js), Scenario{}); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("scenario %q: err = %v, want an error containing %q", c.js, err, c.want)
		}
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile("/no/such/scenario.json", Scenario{}); err == nil {
		t.Fatal("missing file should error")
	}
}
