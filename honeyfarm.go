// Package honeyfarm is the public API of the honeyfarm reproduction: a
// from-scratch Cowrie-class SSH/Telnet honeypot, a simulated global
// honeyfarm deployment (221 honeypots, 55 countries, 65 ASes), a
// calibrated synthetic attacker population standing in for the paper's
// proprietary 402M-session dataset, and the measurement pipeline that
// regenerates every table and figure of "Fifteen Months in the Life of
// a Honeyfarm" (IMC 2023).
//
// Two entry points cover the common uses:
//
//   - Simulate generates a calibrated session dataset at a chosen scale
//     and wraps it in a Dataset with one method per paper artifact.
//   - (*Dataset).SaveWAL writes a dataset as a record log, the format a
//     wire shard's write-ahead log has, and LoadDatasetFile reads either
//     back.
//
// The wire-level collector — honeypots speaking real SSH and Telnet
// into one durable sink — is a shard's wire front (cmd/shard -wire).
package honeyfarm

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"time"

	"honeyfarm/internal/analysis"
	"honeyfarm/internal/cowrielog"
	"honeyfarm/internal/faults"
	"honeyfarm/internal/geo"
	"honeyfarm/internal/honeypot"
	"honeyfarm/internal/iofault"
	"honeyfarm/internal/stats"
	"honeyfarm/internal/store"
	"honeyfarm/internal/wal"
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
	// Workers is the generation fan-out (default GOMAXPROCS). The
	// dataset is byte-identical for every value; see workload.Config.
	Workers int
	// Faults, when non-nil and active, deterministically culls the
	// sessions the fault plan would have lost (pot outage windows plus a
	// connection-fault share); the Dataset's Availability table reports
	// the per-pot losses. Same seed + same plan ⇒ byte-identical output.
	Faults *FaultPlan
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
	// gaps are the outages a loaded log records: appends its writer
	// counted and dropped while the disk failed (see wal.Gap).
	gaps []wal.Gap

	perPot  []analysis.PerHoneypot // lazily computed
	hashes  []analysis.HashStat
	clients []analysis.ClientStat
}

// Simulate generates a calibrated synthetic dataset.
func Simulate(cfg SimulateConfig) (*Dataset, error) {
	reg := NewRegistry(cfg.Seed)
	res, err := workload.Generate(workload.Config{
		Seed:          cfg.Seed,
		TotalSessions: cfg.TotalSessions,
		Days:          cfg.Days,
		NumPots:       cfg.NumPots,
		Registry:      reg,
		Epoch:         DefaultEpoch,
		Workers:       cfg.Workers,
		Faults:        cfg.Faults,
	})
	if err != nil {
		return nil, err
	}
	return NewDatasetFromResult(res, reg, cfg.NumPots), nil
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

// ExportCowrie writes the dataset as a Cowrie-format JSON event stream
// (cowrie.json), for tools that consume real Cowrie logs.
func (d *Dataset) ExportCowrie(w io.Writer) error {
	return cowrielog.Export(w, d.Store.Records(), "honeyfarm")
}

// LoadCowrie imports a Cowrie JSON event log (from a real Cowrie
// deployment or a prior ExportCowrie) and wraps it as a Dataset, so real
// honeypot logs run through the same analysis pipeline. Honeypot IDs
// survive an ExportCowrie round trip; see cowrielog.Import.
func LoadCowrie(r io.Reader, reg *Registry, numPots int, seed int64) (*Dataset, error) {
	st, err := cowrielog.Import(r)
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
	deployments, err := geo.Place(geo.PlacementConfig{
		Seed: seed, NumPots: numPots, Registry: reg, Residental: true,
	})
	if err != nil {
		deployments = nil
	}
	return &Dataset{
		Registry: reg, Deployments: deployments, NumPots: numPots,
		tagger: analysis.Tagger(defaultTagger()),
	}, nil
}

// LoadDatasetFile reads the record log in the directory path — a
// dataset SaveWAL wrote, or a collector's -wal-dir — through wal.Read,
// in log order, into a store whose days count from the log's epoch. It
// writes nothing, so it may read a log a collector is still writing: a
// torn tail on the final segment, which wal.Open would truncate, is left
// on disk unread, and stale temporary files stay where they are. The
// damage wal.Open refuses is refused here too; the error says to run
// fsck -repair. The outages the log records are kept for Summary.
func LoadDatasetFile(path string, reg *Registry, numPots int, seed int64) (*Dataset, error) {
	rec, err := wal.Read(path)
	if err != nil {
		return nil, err
	}
	d, err := emptyDataset(reg, numPots, seed)
	if err != nil {
		return nil, err
	}
	d.Store = store.New(rec.Epoch)
	for _, b := range rec.Batches {
		d.Store.AddBatch(b.Records)
	}
	d.gaps = rec.Gaps
	return d, nil
}

// walBatch is the number of records SaveWAL puts in one batch frame.
const walBatch = 1024

// SaveWAL writes the dataset as a record log in dir, which must not
// exist: the shard's own writer, wal.Log, with the default options and
// the store's epoch, appending walBatch records at a time. A log cut at
// a frame boundary reads as a smaller but complete dataset, so the save
// is all or nothing: the log is written in the sibling directory
// dir+".tmp" and renamed to dir only once it closed cleanly. A failed
// append or close, or a log that degraded and recovered on the way
// (which would leave a gap frame in it), fails the save and removes the
// temporary directory.
func (d *Dataset) SaveWAL(dir string) error {
	return writeWAL(iofault.OS, dir, wal.Options{Epoch: d.Store.Epoch()}, d.Store.Records(), walBatch)
}

// writeWAL is SaveWAL over fsys, with the log options and batch size
// as parameters.
func writeWAL(fsys iofault.FS, dir string, opts wal.Options, recs []*SessionRecord, batch int) error {
	tmp := dir + ".tmp"
	for _, p := range []string{dir, tmp} {
		if _, err := fsys.Stat(p); !errors.Is(err, fs.ErrNotExist) {
			if err == nil {
				err = fs.ErrExist
			}
			return fmt.Errorf("saving dataset: %s: %w", p, err)
		}
	}
	opts.FS = fsys
	l, _, err := wal.Open(tmp, opts)
	if err == nil {
		for off := 0; off < len(recs) && err == nil; off += batch {
			err = l.Append(recs[off:min(off+batch, len(recs))])
		}
		err = errors.Join(err, l.Close())
		// Whether an append lands while the log is still degraded is a
		// matter of timing, so the outage count is named either way.
		if h := l.Health(); h.Outages > 0 {
			err = errors.Join(err, fmt.Errorf("wal: the log degraded %d time(s) during the save", h.Outages))
		}
	}
	if err == nil {
		err = fsys.Rename(tmp, dir)
	}
	if err != nil {
		return errors.Join(fmt.Errorf("saving dataset to %s: %w", dir, err), removeDir(fsys, tmp))
	}
	return nil
}

// removeDir removes dir and the files in it.
func removeDir(fsys iofault.FS, dir string) error {
	entries, err := fsys.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	for _, e := range entries {
		err = errors.Join(err, fsys.Remove(filepath.Join(dir, e.Name())))
	}
	return errors.Join(err, fsys.Remove(dir))
}

// Merge folds another dataset's sessions into this one — the federated-
// honeyfarm operation the paper's Discussion proposes: independent
// operators pooling session records to widen hash visibility. Honeypot
// IDs from other are offset by this dataset's farm size so the two
// deployments stay distinguishable; cached aggregates are invalidated.
// Fault accounting follows the pots: other's rows land at the same
// offset, a side without a report contributes zero rows, and the merged
// report covers the longer of the two periods.
func (d *Dataset) Merge(other *Dataset) {
	offset := d.NumPots
	if d.Faults != nil || other.Faults != nil {
		rep := &FaultReport{
			Days: max(d.availabilityDays(), other.availabilityDays()),
			Pots: make([]faults.PotReport, offset+other.NumPots),
		}
		if d.Faults != nil {
			copy(rep.Pots[:offset], d.Faults.Pots)
		}
		if other.Faults != nil {
			copy(rep.Pots[offset:], other.Faults.Pots)
		}
		d.Faults = rep
	}
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
	return analysis.AvailabilityFromPer(d.PerHoneypot(), d.Faults, d.availabilityDays())
}

// availabilityDays is the period uptime is measured over: the fault
// report's when there is one, else the span the data covers.
func (d *Dataset) availabilityDays() int {
	if d.Faults != nil && d.Faults.Days > 0 {
		return d.Faults.Days
	}
	return d.Days()
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

// Summary prints a one-paragraph dataset overview. A loaded log that
// records outages adds a line naming them and the records they dropped.
func (d *Dataset) Summary(w io.Writer) {
	cs := d.CategoryShares()
	clients := d.ClientStats(-1)
	hs := d.HashStats()
	fmt.Fprintf(w, "dataset: %d sessions over %d days, %d honeypots, %d client IPs, %d unique hashes (SSH %.1f%%)\n",
		cs.Total, d.Days(), d.NumPots, len(clients), len(hs), 100*cs.SSHTotal)
	if len(d.gaps) > 0 {
		records := 0
		for _, g := range d.gaps {
			records += g.Records
		}
		fmt.Fprintf(w, "log gaps: %d outage(s) of the collector's disk dropped %d records, which no table counts\n", len(d.gaps), records)
	}
}
