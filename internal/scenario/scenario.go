// Package scenario loads workload configurations from JSON, so
// cmd/honeyfarm can generate alternative Internets — different category
// mixes, spike schedules, or campaign-free ablations — without
// recompiling. The zero scenario is the paper's calibration.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"honeyfarm/internal/analysis"
	"honeyfarm/internal/faults"
	"honeyfarm/internal/workload"
)

// Scenario is the JSON schema.
type Scenario struct {
	Seed          int64 `json:"seed"`
	TotalSessions int   `json:"total_sessions"`
	Days          int   `json:"days"`
	Pots          int   `json:"pots"`
	// CategoryShares maps category names (NO_CRED, FAIL_LOG, NO_CMD,
	// CMD, CMD+URI) to session fractions. Empty keeps the paper's mix.
	CategoryShares map[string]float64 `json:"category_shares,omitempty"`
	// SSHShares maps category names to the SSH fraction within the
	// category. Empty keeps the paper's Table 1 splits.
	SSHShares map[string]float64 `json:"ssh_shares,omitempty"`
	Spikes    []Spike            `json:"spikes,omitempty"`
	// Workers is the generation fan-out (0 = GOMAXPROCS). The dataset is
	// byte-identical for any value, so this is purely a speed knob.
	Workers int `json:"workers,omitempty"`
	// DisableDefaultSpikes drops the paper's built-in spike schedule
	// when custom spikes are given (default: custom spikes replace the
	// schedule entirely).
	DisableCampaigns bool `json:"disable_campaigns,omitempty"`
	// Faults is an optional deterministic fault plan (connection fault
	// rates plus pot outage windows); see faults.Plan for the schema.
	// The plan's zero seed inherits the scenario seed.
	Faults *faults.Plan `json:"faults,omitempty"`
}

// Spike is the JSON form of a workload spike.
type Spike struct {
	Category   string  `json:"category"`
	FirstDay   int     `json:"first_day"`
	LastDay    int     `json:"last_day"`
	Multiplier float64 `json:"multiplier"`
	Pots       int     `json:"pots"`
}

var categoryByName = map[string]analysis.Category{
	"NO_CRED":  analysis.NoCred,
	"FAIL_LOG": analysis.FailLog,
	"NO_CMD":   analysis.NoCmd,
	"CMD":      analysis.Cmd,
	"CMD+URI":  analysis.CmdURI,
}

// Load parses a scenario from r into a workload.Config. A key the
// scenario leaves out keeps its value in base (cmd/honeyfarm passes its
// flags), and a fault plan without a seed inherits the seed resolved so.
func Load(r io.Reader, base Scenario) (workload.Config, error) {
	sc := base
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return workload.Config{}, fmt.Errorf("scenario: %w", err)
	}
	return sc.Config()
}

// LoadFile parses a scenario file over base, as Load does.
func LoadFile(path string, base Scenario) (workload.Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return workload.Config{}, err
	}
	defer f.Close()
	return Load(f, base)
}

// Config converts the scenario into a workload.Config.
func (sc Scenario) Config() (workload.Config, error) {
	cfg := workload.Config{
		Seed:             sc.Seed,
		TotalSessions:    sc.TotalSessions,
		Days:             sc.Days,
		NumPots:          sc.Pots,
		DisableCampaigns: sc.DisableCampaigns,
		Workers:          sc.Workers,
	}
	if sc.Faults != nil {
		plan := *sc.Faults
		if plan.Seed == 0 {
			plan.Seed = sc.Seed
		}
		if err := plan.Validate(); err != nil {
			return cfg, fmt.Errorf("scenario: %w", err)
		}
		cfg.Faults = &plan
	}
	if len(sc.CategoryShares) > 0 {
		shares, err := shareArray(sc.CategoryShares, true)
		if err != nil {
			return cfg, err
		}
		cfg.Shares = shares
	}
	if len(sc.SSHShares) > 0 {
		shares, err := shareArray(sc.SSHShares, false)
		if err != nil {
			return cfg, err
		}
		cfg.SSHShares = shares
	}
	if sc.Spikes != nil {
		cfg.Spikes = make([]workload.Spike, 0, len(sc.Spikes))
		for _, s := range sc.Spikes {
			cat, ok := categoryByName[s.Category]
			if !ok {
				return cfg, fmt.Errorf("scenario: unknown category %q", s.Category)
			}
			if s.LastDay < s.FirstDay || s.Multiplier <= 0 {
				return cfg, fmt.Errorf("scenario: invalid spike %+v", s)
			}
			cfg.Spikes = append(cfg.Spikes, workload.Spike{
				Category: cat, FirstDay: s.FirstDay, LastDay: s.LastDay,
				Multiplier: s.Multiplier, Pots: s.Pots,
			})
		}
	}
	return cfg, nil
}

// shareArray maps named shares into the category array. When normalize
// is set the values must sum to ≈1 (category mix); otherwise each value
// must lie in [0, 1] (protocol fractions). Unnamed categories fall back
// to the paper's calibration.
func shareArray(m map[string]float64, normalize bool) (*[analysis.NumCategories]float64, error) {
	out := workload.CategoryShare
	if !normalize {
		out = workload.SSHShare
	}
	sum := 0.0
	for name, v := range m {
		cat, ok := categoryByName[name]
		if !ok {
			return nil, fmt.Errorf("scenario: unknown category %q", name)
		}
		if v < 0 || v > 1 {
			return nil, fmt.Errorf("scenario: share %q = %v out of [0,1]", name, v)
		}
		out[cat] = v
	}
	for _, v := range out {
		sum += v
	}
	if normalize && (sum < 0.98 || sum > 1.02) {
		return nil, fmt.Errorf("scenario: category shares sum to %.3f, want ≈1", sum)
	}
	return &out, nil
}
