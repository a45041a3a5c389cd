// Package honeyfarm is the public API of the honeyfarm reproduction: a
// from-scratch Cowrie-class SSH/Telnet honeypot, a simulated global
// honeyfarm deployment (221 honeypots, 55 countries, 65 ASes), a
// calibrated synthetic attacker population standing in for the paper's
// proprietary 402M-session dataset, and the measurement pipeline that
// regenerates every table and figure of "Fifteen Months in the Life of
// a Honeyfarm" (IMC 2023).
//
// Three entry points cover the common uses:
//
//   - Simulate generates a calibrated session dataset at a chosen scale
//     and wraps it in a Dataset with one method per paper artifact.
//   - NewFarm builds a wire-level in-process honeyfarm whose honeypots
//     speak real SSH and Telnet over an in-memory fabric (or real TCP
//     via honeypot.Honeypot directly).
//   - LoadDataset / (*Dataset).Save round-trip datasets as JSONL.
package honeyfarm

import (
	"fmt"
	"io"
	"os"
	"time"

	"honeyfarm/internal/analysis"
	"honeyfarm/internal/atomicio"
	"honeyfarm/internal/cowrielog"
	"honeyfarm/internal/farm"
	"honeyfarm/internal/faults"
	"honeyfarm/internal/geo"
	"honeyfarm/internal/honeypot"
	"honeyfarm/internal/stats"
	"honeyfarm/internal/store"
	"honeyfarm/internal/workload"
)

// Re-exported core types, so downstream users need only this package.
type (
	// SessionRecord is one honeypot session summary.
	SessionRecord = honeypot.SessionRecord
	// LoginAttempt, CommandRecord and FileRecord are SessionRecord's
	// component types.
	LoginAttempt  = honeypot.LoginAttempt
	CommandRecord = honeypot.CommandRecord
	FileRecord    = honeypot.FileRecord
	// Category is the NO_CRED / FAIL_LOG / NO_CMD / CMD / CMD+URI taxonomy.
	Category = analysis.Category
	// HashStat is one file hash's aggregate row (Tables 4–6).
	HashStat = analysis.HashStat
	// Registry is the synthetic Internet geography.
	Registry = geo.Registry
	// Farm is a running wire-level honeyfarm.
	Farm = farm.Farm
	// FaultPlan is a seeded deterministic fault-injection plan; its
	// Outages take individual honeypots down for day windows, and a
	// FaultReport accounts what a faulted run lost.
	FaultPlan   = faults.Plan
	FaultOutage = faults.Outage
	FaultReport = faults.Report
)

// Category values.
const (
	NoCred  = analysis.NoCred
	FailLog = analysis.FailLog
	NoCmd   = analysis.NoCmd
	Cmd     = analysis.Cmd
	CmdURI  = analysis.CmdURI
)

// DefaultEpoch is the observation period start (2021-12-01), matching
// the paper.
var DefaultEpoch = time.Date(2021, 12, 1, 0, 0, 0, 0, time.UTC)

// NewRegistry builds the deterministic synthetic Internet.
func NewRegistry(seed int64) *Registry {
	return geo.NewRegistry(geo.Config{Seed: seed})
}

// SimulateConfig parameterizes dataset generation. The zero value plus a
// Seed yields the default: 400k sessions (≈1/1000 of the paper's 402M)
// over 486 days on a 221-honeypot farm.
type SimulateConfig struct {
	Seed          int64
	TotalSessions int
	Days          int
	NumPots       int
	Registry      *Registry // optional; built from Seed when nil
	// Workers is the generation fan-out (default GOMAXPROCS). The
	// dataset is byte-identical for every value; see workload.Config.
	Workers int
	// Faults, when non-nil and active, deterministically culls the
	// sessions the fault plan would have lost (pot outage windows plus a
	// connection-fault share); the Dataset's Availability table reports
	// the per-pot losses. Same seed + same plan ⇒ byte-identical output.
	Faults *FaultPlan
	// CheckpointDir makes generation crash-safe: completed work is
	// appended to a write-ahead log there, and a run interrupted mid-way
	// can be restarted with Resume to continue from the first unfinished
	// shard — still producing byte-identical output. See workload.Config.
	CheckpointDir string
	Resume        bool
}

// Dataset is a generated or loaded session dataset with its geography,
// exposing one method per paper artifact.
type Dataset struct {
	Store       *store.Store
	Registry    *Registry
	Deployments []geo.Deployment
	NumPots     int
	// Faults carries the fault plan's loss accounting when the dataset
	// was generated under one; nil for fault-free or loaded datasets.
	Faults *FaultReport
	tagger analysis.Tagger

	perPot  []analysis.PerHoneypot // lazily computed
	hashes  []analysis.HashStat
	clients []analysis.ClientStat
}

// Simulate generates a calibrated synthetic dataset.
func Simulate(cfg SimulateConfig) (*Dataset, error) {
	reg := cfg.Registry
	if reg == nil {
		reg = NewRegistry(cfg.Seed)
	}
	res, err := workload.Generate(workload.Config{
		Seed:          cfg.Seed,
		TotalSessions: cfg.TotalSessions,
		Days:          cfg.Days,
		NumPots:       cfg.NumPots,
		Registry:      reg,
		Epoch:         DefaultEpoch,
		Workers:       cfg.Workers,
		Faults:        cfg.Faults,
		CheckpointDir: cfg.CheckpointDir,
		Resume:        cfg.Resume,
	})
	if err != nil {
		return nil, err
	}
	numPots := cfg.NumPots
	if numPots <= 0 {
		numPots = 221
	}
	return &Dataset{
		Store:       res.Store,
		Registry:    reg,
		Deployments: res.Deployments,
		NumPots:     numPots,
		Faults:      res.Faults,
		tagger:      res.Tagger(),
	}, nil
}

// NewDatasetFromResult wraps a raw workload.Result (e.g. one generated
// from a custom scenario) in a Dataset with its campaign tagger.
func NewDatasetFromResult(res *workload.Result, reg *Registry, numPots int) *Dataset {
	if numPots <= 0 {
		numPots = 221
	}
	return &Dataset{
		Store:       res.Store,
		Registry:    reg,
		Deployments: res.Deployments,
		NumPots:     numPots,
		Faults:      res.Faults,
		tagger:      res.Tagger(),
	}
}

// FarmConfig configures a wire-level honeyfarm.
type FarmConfig struct {
	Seed     int64
	NumPots  int
	Registry *Registry
	// Fetch resolves attacker download URIs; nil blocks egress.
	Fetch func(uri string) ([]byte, error)
	// Faults injects deterministic connection faults and pot outage
	// windows into the running farm; see farm.Config.
	Faults *FaultPlan
	// DayLength maps the plan's outage days to wall clock (outages are
	// only scheduled when positive), and DrainTimeout bounds Stop's
	// graceful drain.
	DayLength    time.Duration
	DrainTimeout time.Duration
}

// NewFarm builds (but does not start) a wire-level honeyfarm.
func NewFarm(cfg FarmConfig) (*Farm, error) {
	reg := cfg.Registry
	if reg == nil {
		reg = NewRegistry(cfg.Seed)
	}
	return farm.New(farm.Config{
		Seed:         cfg.Seed,
		NumPots:      cfg.NumPots,
		Registry:     reg,
		Epoch:        DefaultEpoch,
		Fetch:        cfg.Fetch,
		Faults:       cfg.Faults,
		DayLength:    cfg.DayLength,
		DrainTimeout: cfg.DrainTimeout,
	})
}

// Save writes the dataset's sessions as JSONL.
func (d *Dataset) Save(w io.Writer) error { return d.Store.WriteJSONL(w) }

// SaveFile writes the dataset to a file, atomically: the JSONL goes to
// a same-directory temporary file that is fsynced and renamed into
// place, so a crash mid-save never leaves a truncated dataset at path.
func (d *Dataset) SaveFile(path string) error {
	return atomicio.WriteFile(path, d.Save)
}

// LoadDataset reads a JSONL dataset. The registry and seed must match
// the ones the dataset was generated with for geography analyses to be
// meaningful (the honeypot placement is re-derived from the seed).
func LoadDataset(r io.Reader, reg *Registry, numPots int, seed int64) (*Dataset, error) {
	st, err := store.ReadJSONL(r)
	if err != nil {
		return nil, err
	}
	d, err := emptyDataset(reg, numPots, seed)
	if err != nil {
		return nil, err
	}
	d.Store = st
	return d, nil
}

// ExportCowrie writes the dataset as a Cowrie-format JSON event stream
// (cowrie.json), for tools that consume real Cowrie logs.
func (d *Dataset) ExportCowrie(w io.Writer) error {
	return cowrielog.Export(w, d.Store.Records(), "honeyfarm")
}

// LoadCowrie imports a Cowrie JSON event log (from a real Cowrie
// deployment or a prior ExportCowrie) and wraps it as a Dataset, so real
// honeypot logs run through the same analysis pipeline.
func LoadCowrie(r io.Reader, reg *Registry, numPots int, seed int64) (*Dataset, error) {
	st, _, err := cowrielog.Import(r, cowrielog.ImportOptions{})
	if err != nil {
		return nil, err
	}
	d, err := emptyDataset(reg, numPots, seed)
	if err != nil {
		return nil, err
	}
	d.Store = st
	return d, nil
}

// emptyDataset builds the geography scaffolding shared by the loaders.
func emptyDataset(reg *Registry, numPots int, seed int64) (*Dataset, error) {
	if reg == nil {
		reg = NewRegistry(seed)
	}
	if numPots <= 0 {
		numPots = 221
	}
	numASes := 65
	var countries []string
	if numPots < len(geo.HoneyfarmCountries) {
		countries = geo.HoneyfarmCountries[:numPots]
		numASes = numPots
	}
	deployments, err := geo.Place(geo.PlacementConfig{
		Seed: seed, NumPots: numPots, NumASes: numASes,
		Countries: countries, Registry: reg, Residental: true,
	})
	if err != nil {
		deployments = nil
	}
	return &Dataset{
		Registry: reg, Deployments: deployments, NumPots: numPots,
		tagger: analysis.Tagger(defaultTagger()),
	}, nil
}

// LoadDatasetFile reads a JSONL dataset from a file.
func LoadDatasetFile(path string, reg *Registry, numPots int, seed int64) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadDataset(f, reg, numPots, seed)
}

// Merge folds another dataset's sessions into this one — the federated-
// honeyfarm operation the paper's Discussion proposes: independent
// operators pooling session records to widen hash visibility. Honeypot
// IDs from other are offset by this dataset's farm size so the two
// deployments stay distinguishable; cached aggregates are invalidated.
func (d *Dataset) Merge(other *Dataset) {
	offset := d.NumPots
	recs := other.Store.Records()
	merged := make([]*SessionRecord, len(recs))
	for i, r := range recs {
		cp := *r
		cp.HoneypotID += offset
		merged[i] = &cp
	}
	d.Store.AddBatch(merged)
	d.NumPots += other.NumPots
	d.Deployments = append(append([]geo.Deployment(nil), d.Deployments...), other.Deployments...)
	d.perPot = nil
	d.hashes = nil
	d.clients = nil
}

// Sessions returns the number of records.
func (d *Dataset) Sessions() int { return d.Store.Len() }

// Days returns the observation period length present in the data.
func (d *Dataset) Days() int { return d.Store.NumDays() }

// Classify applies the Figure 5 flow to one record.
func Classify(r *SessionRecord) Category { return analysis.Classify(r) }

// CategoryShares computes Table 1.
func (d *Dataset) CategoryShares() analysis.CategoryShares {
	return analysis.ComputeCategoryShares(d.Store)
}

// TopPasswords computes Table 2.
func (d *Dataset) TopPasswords(n int) []analysis.Counted {
	return analysis.TopPasswords(d.Store, n)
}

// TopCommands computes Table 3.
func (d *Dataset) TopCommands(n int) []analysis.Counted {
	return analysis.TopCommands(d.Store, n)
}

// TopClientVersions ranks recorded SSH client identification strings.
func (d *Dataset) TopClientVersions(n int) []analysis.Counted {
	return analysis.TopClientVersions(d.Store, n)
}

// Availability returns the per-honeypot availability table: observed
// sessions joined with the fault plan's downtime and drop counters (the
// paper's per-honeypot activity view). Fault-free datasets report full
// availability and zero drops for every pot.
func (d *Dataset) Availability() []analysis.PotAvailability {
	days := d.Days()
	if d.Faults != nil && d.Faults.Days > 0 {
		days = d.Faults.Days
	}
	return analysis.ComputeAvailability(d.Store, d.Faults, d.NumPots, days)
}

// PerHoneypot returns per-honeypot totals (Figures 2, 14, 18, 19),
// computed once and cached.
func (d *Dataset) PerHoneypot() []analysis.PerHoneypot {
	if d.perPot == nil {
		d.perPot = analysis.ComputePerHoneypot(d.Store, d.NumPots)
	}
	return d.perPot
}

// HashStats returns per-hash aggregates (Tables 4–6, Figures 17–22),
// computed once and cached.
func (d *Dataset) HashStats() []analysis.HashStat {
	if d.hashes == nil {
		d.hashes = analysis.ComputeHashStats(d.Store, d.tagger)
	}
	return d.hashes
}

// HashTable returns the top-n hash rows under the given sort key.
func (d *Dataset) HashTable(key analysis.HashSortKey, n int) []HashStat {
	hs := analysis.SortHashStats(d.HashStats(), key)
	if n < len(hs) {
		hs = hs[:n]
	}
	return hs
}

// DailySeries returns the percentile bands of daily per-honeypot session
// counts (Figure 4); cat -1 selects all categories (pass int(Category)
// for Figure 8's panels). topFraction > 0 restricts to the most active
// fraction of honeypots (Figures 3 and 9 use 0.05).
func (d *Dataset) DailySeries(cat int, topFraction float64) stats.Series {
	m := analysis.DailyMatrix(d.Store, d.NumPots, cat)
	if topFraction > 0 {
		ids := analysis.TopPotsByActivity(d.PerHoneypot(), topFraction)
		m = analysis.FilterMatrixPots(m, ids)
	}
	return analysis.PercentileSeries(m)
}

// CategoryTimeline computes Figure 6.
func (d *Dataset) CategoryTimeline() analysis.CategoryTimeline {
	return analysis.ComputeCategoryTimeline(d.Store)
}

// DurationECDFs computes Figure 7.
func (d *Dataset) DurationECDFs() [analysis.NumCategories]*stats.ECDF {
	return analysis.DurationECDFs(d.Store)
}

// ClientStats aggregates client IPs; cat -1 selects all categories.
// The all-categories result (Figures 12–14) is computed once and cached.
func (d *Dataset) ClientStats(cat int) []analysis.ClientStat {
	if cat != -1 {
		return analysis.ComputeClientStats(d.Store, cat)
	}
	if d.clients == nil {
		d.clients = analysis.ComputeClientStats(d.Store, -1)
	}
	return d.clients
}

// ClientCountries computes Figure 10/23; cats nil selects all.
func (d *Dataset) ClientCountries(cats map[Category]bool) []analysis.CountryCount {
	return analysis.ClientCountries(d.Store, d.Registry, cats)
}

// DailyUniqueClients computes Figure 11.
func (d *Dataset) DailyUniqueClients() [][analysis.NumCategories]int {
	return analysis.DailyUniqueClients(d.Store)
}

// CategoryCombos computes Figure 15's period totals.
func (d *Dataset) CategoryCombos() map[analysis.ComboKey]int {
	return analysis.TotalComboCounts(d.Store)
}

// RegionalDiversity computes Figure 16; cats nil selects all categories.
func (d *Dataset) RegionalDiversity(cats map[Category]bool) analysis.RegionalDiversity {
	return analysis.ComputeRegionalDiversity(d.Store, d.Registry, d.Deployments, cats)
}

// HashFreshness computes Figure 17.
func (d *Dataset) HashFreshness() analysis.HashFreshness {
	return analysis.ComputeHashFreshness(d.Store)
}

// HashVisibility summarizes Section 8.4's coverage numbers.
func (d *Dataset) HashVisibility() analysis.HashVisibility {
	return analysis.ComputeHashVisibility(d.HashStats(), d.NumPots)
}

// CampaignDurations computes Figure 22.
func (d *Dataset) CampaignDurations() map[string]*stats.ECDF {
	return analysis.CampaignDurationECDFs(d.HashStats())
}

// FirstSeenLeaders quantifies Section 8.4's early-detection claim: the
// overlap between the top-k honeypots by unique hashes and by
// first-sightings.
func (d *Dataset) FirstSeenLeaders(k int) analysis.FirstSeenLeaders {
	return analysis.ComputeFirstSeenLeaders(d.Store, d.NumPots, k)
}

// FederationGain measures the Discussion's federated-honeyfarm proposal:
// hash coverage of k independent sub-farms versus the federation.
func (d *Dataset) FederationGain(parts int) analysis.FederationGain {
	return analysis.ComputeFederationGain(d.Store, d.NumPots, parts)
}

// BlockingImpact evaluates the what-if of blocking long-lived small-IP
// campaigns graceDays after first sighting.
func (d *Dataset) BlockingImpact(minDays, maxIPs, graceDays int) analysis.BlockingImpact {
	return analysis.ComputeBlockingImpact(d.Store, d.HashStats(), minDays, maxIPs, graceDays)
}

// AbuseReports aggregates hostile activity per client AS for network
// notification — the coordination the paper's conclusion announces.
func (d *Dataset) AbuseReports(minSessions int) []analysis.AbuseReport {
	return analysis.ComputeAbuseReports(d.Store, d.Registry, minSessions)
}

// Summary prints a one-paragraph dataset overview.
func (d *Dataset) Summary(w io.Writer) {
	cs := d.CategoryShares()
	clients := d.ClientStats(-1)
	hs := d.HashStats()
	fmt.Fprintf(w, "dataset: %d sessions over %d days, %d honeypots, %d client IPs, %d unique hashes (SSH %.1f%%)\n",
		cs.Total, d.Days(), d.NumPots, len(clients), len(hs), 100*cs.SSHTotal)
}
