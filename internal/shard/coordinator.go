package shard

// The merge coordinator: one puller goroutine per shard keeps one pull
// of it outstanding, which the shard parks until it has news, and folds
// what each pull brings — normally the delta since the previous one —
// into that shard's bundle and into one long-lived merged bundle; a
// single merger goroutine materializes the merged bundle into a global
// snapshot. Supervision reuses the farm's generation-deduped restart
// machinery (faults.Restarter): FailAfter consecutive failures mark a
// shard down and hand it to a capped-exponential probe loop; the regular
// puller skips a down shard so the two never race.
//
// Two invariants carry the robustness story:
//
//   - Monotonic resumption: a full frame whose seq is not above the
//     shard's installed seq is ignored (the shard restarted and is
//     replaying its WAL); the installed state keeps serving until the
//     shard catches back up, so the merged snapshot never moves
//     backwards.
//   - Degradation without regression: a down shard's last installed
//     state stays in the merge, so the global snapshot keeps covering
//     every record it ever covered. The staleness is surfaced per shard
//     (ShardStatuses → /v1/healthz "degraded:shard"), never hidden.
//
// Accumulator Merge adopts entries by reference, so a frame is decoded
// once per bundle it is folded into: the shard's and the merged one
// share nothing. The per-shard bundles exist for the one case a fold
// cannot express — a full frame replacing state already merged — where
// the merged bundle is rebuilt from copies of them.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"honeyfarm/internal/analysis"
	"honeyfarm/internal/faults"
	"honeyfarm/internal/query"
	"honeyfarm/internal/stats"
	"honeyfarm/internal/store"
	"honeyfarm/internal/wire"
)

// Config parameterizes a Coordinator.
type Config struct {
	// Shards lists the collector base URLs (e.g. "http://host:port"),
	// one per shard; shard IDs are indexes into this list. Required.
	Shards []string
	// NumPots sizes the global per-honeypot table; every shard must
	// serve bundles sized identically. Required.
	NumPots int
	// Countries declares whether shards carry a country table; a bundle
	// with mismatched shape is rejected at install time.
	Countries bool
	// Epoch is the fleet's day-bucketing epoch, surfaced through the
	// query API exactly as an engine's epoch is.
	Epoch time.Time
	// Deprecated: snapshots carry no hash rows; ignored.
	Tagger analysis.Tagger
	// PullEvery (default 250ms) is the longest a pull waits at the shard
	// for news — the idle heartbeat that keeps last_ok fresh — and the
	// spacing after a pull that brought none (see pullLoop). It is capped
	// at half the Client's timeout, so that an idle pull never reads as a
	// failed one.
	PullEvery time.Duration
	// FailAfter is the consecutive-failure count that marks a shard down
	// (default 3). Down shards leave the pull loop for the probe loop's
	// capped-exponential backoff.
	FailAfter int
	// Retry shapes the probe backoff for down shards via Plan.Backoff;
	// nil uses the plan's deterministic defaults.
	Retry *faults.Plan
	// Now supplies the wall clock for per-shard last_ok staleness
	// stamps. Nil leaves the stamps zero (deterministic tests).
	Now func() time.Time
	// Client performs the pulls; nil uses a client with a 5s timeout.
	Client *http.Client
}

// shardState is the coordinator's view of one collector shard.
type shardState struct {
	url string
	up  bool
	gen int // bumped on every mark-down; stale probe attempts are dropped
	// parts is the bundle of the shard's first seq records (guarded by
	// Coordinator.mergeMu, as merged is): what the merged bundle holds of
	// this shard, kept apart so the merged one can be rebuilt.
	parts *analysis.Partials
	seq   uint64
	days  int
	// resync makes the next pull ask for the full frame: the last delta
	// did not continue from seq.
	resync   bool
	lastOK   int64
	failures int
	lastErr  string
	// Cumulative pull accounting for /metrics: unlike failures (which
	// resets on success) these only grow.
	pulls     uint64
	pullFails uint64
	fullPulls uint64
	idlePulls uint64
	pullBytes uint64
}

// Coordinator supervises a shard fleet and publishes merged snapshots.
// It implements query.Source, so query.NewServer serves a merge node
// exactly as it serves a single-node engine.
type Coordinator struct {
	cfg    Config
	epoch  time.Time
	client *http.Client

	// mergeMu serializes everything that reads or writes the bundles:
	// installs (the pullers) and materialization (the merger). It is
	// taken before mu, never under it.
	mergeMu  sync.Mutex
	merged   *analysis.Partials // the fold of every shards[i].parts
	rebuilds atomic.Uint64      // times merged was rebuilt from the shard bundles

	mu      sync.Mutex
	shards  []shardState
	seq     uint64           // sum of installed shard seqs
	pullLat *stats.Histogram // headers-to-installed time of successful pulls (empty without a clock)

	cur   atomic.Pointer[query.Snapshot]
	dirty chan struct{}
	// ctx ends with Stop: it is every goroutine's stop signal and cuts a
	// parked pull short.
	ctx       context.Context
	cancel    context.CancelFunc
	restarter *faults.Restarter
	wg        sync.WaitGroup
}

// New starts the coordinator: one puller per shard, the merger, and
// the probe supervisor. The empty snapshot is published immediately, so
// readers never observe nil even before first shard contact.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("shard: Config.Shards is required")
	}
	if cfg.NumPots <= 0 {
		return nil, errors.New("shard: Config.NumPots is required")
	}
	if cfg.PullEvery <= 0 {
		cfg.PullEvery = 250 * time.Millisecond
	}
	if cfg.FailAfter <= 0 {
		cfg.FailAfter = 3
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 5 * time.Second}
	}
	if t := cfg.Client.Timeout; t > 0 {
		cfg.PullEvery = min(cfg.PullEvery, t/2)
	}
	pullLat, err := stats.NewHistogram(PullLatencyBuckets())
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	c := &Coordinator{
		cfg:     cfg,
		epoch:   store.NormalizeEpoch(cfg.Epoch),
		client:  cfg.Client,
		shards:  make([]shardState, len(cfg.Shards)),
		pullLat: pullLat,
		dirty:   make(chan struct{}, 1),
	}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	for i, url := range cfg.Shards {
		c.shards[i] = shardState{url: url, up: true, parts: c.emptyBundle()}
	}
	c.merged = c.emptyBundle()
	c.publish()
	c.restarter = faults.NewRestarter(faults.RestarterConfig{
		Backoff: cfg.Retry.Backoff,
		Try:     c.tryProbe,
		Stop:    c.ctx.Done(),
		Pending: 2*len(cfg.Shards) + 8,
	})
	for i := range c.shards {
		c.wg.Add(1)
		go c.pullLoop(i)
	}
	c.wg.Add(1)
	go c.mergeLoop()
	return c, nil
}

// Stop ends the pullers, probes, and merger, and joins them all; a
// pull parked at its shard is abandoned, not waited for.
func (c *Coordinator) Stop() {
	c.cancel()
	c.restarter.Wait()
	c.wg.Wait()
}

// Snapshot returns the most recently merged snapshot. It never blocks
// and never returns nil (query.Source).
func (c *Coordinator) Snapshot() *query.Snapshot { return c.cur.Load() }

// Seq returns the sum of installed shard sequences — the number of
// records the merged state covers (query.Source).
func (c *Coordinator) Seq() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seq
}

// Epoch returns the fleet's normalized day-bucketing epoch
// (query.Source).
func (c *Coordinator) Epoch() time.Time { return c.epoch }

// ShardStatuses snapshots per-shard health for /v1/healthz — the
// query.ServerConfig.Shards hook.
func (c *Coordinator) ShardStatuses() []query.ShardStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]query.ShardStatus, len(c.shards))
	for i := range c.shards {
		st := &c.shards[i]
		out[i] = query.ShardStatus{
			ID: i, URL: st.url, Up: st.up,
			LastSeq: st.seq, LastOKUnix: st.lastOK,
			Failures: st.failures, LastErr: st.lastErr,
		}
	}
	return out
}

// emptyBundle is a bundle shaped exactly like a shard's, so an empty
// merge materializes byte-identically to an empty single-node engine.
func (c *Coordinator) emptyBundle() *analysis.Partials {
	return analysis.NewPartials(c.cfg.NumPots, nil, c.cfg.Countries)
}

// pullLoop keeps one pull of shard i outstanding. A pull that brought
// news is followed by the next at once: the shard parks that one until
// it has more, so the loop is clocked by the shard's ingest, and what
// arrives during a round trip rides the next delta. After any other
// pull — failed, stale, a full frame where a delta was asked for (two
// pullers moving each other's cut), or nothing new, be it from a shard
// that waited PullEvery for news or one that ignores wait and answers
// at once — the next starts PullEvery after that one started: at once
// after an idle wait, at the old tick's rate after the rest. Down shards
// are skipped — the probe loop owns them until they recover. The first
// pull comes PullEvery after the start, as it always has: a shard that
// starts with its coordinator holds little yet, and full frames follow
// a first one until what it folds between two pulls is small beside
// what it holds.
func (c *Coordinator) pullLoop(i int) {
	defer c.wg.Done()
	for started := false; c.ctx.Err() == nil; started = true {
		spacing := time.NewTimer(c.cfg.PullEvery)
		c.mu.Lock()
		up := c.shards[i].up
		c.mu.Unlock()
		if started && up {
			if _, news := c.pullOnce(i); news {
				spacing.Stop()
				continue
			}
		}
		select {
		case <-c.ctx.Done():
			spacing.Stop()
		case <-spacing.C:
		}
	}
}

// PullLatencyBuckets is the deterministic bucket layout of the
// coordinator's pull-latency histogram: 1ms to 10s, log-spaced.
func PullLatencyBuckets() []float64 { return stats.LogBuckets(1e-3, 10, 12) }

// pullOnce performs one pull of shard i. ok reports that the shard
// answered with a frame that continues (or is covered by) the installed
// state; news, that the frame advanced the shard and was the kind asked
// for. Latency runs from the response's headers — the end of any wait
// at the shard — to the frame installed, and is observed only when the
// coordinator has a clock (Config.Now), so clockless deterministic runs
// render an empty histogram.
func (c *Coordinator) pullOnce(i int) (ok, news bool) {
	c.mu.Lock()
	st := &c.shards[i]
	var since uint64 // 0 asks for the full frame
	if !st.resync {
		since = st.seq
	}
	c.mu.Unlock()
	frame, t0, err := c.fetch(st.url, since)
	var full, advanced bool
	if err == nil {
		full, advanced, err = c.install(i, frame)
	}
	if c.ctx.Err() != nil {
		return false, false // Stop cut the pull short: no failure of the shard's
	}
	c.mu.Lock()
	st.pulls++
	st.pullBytes += uint64(len(frame))
	if full {
		st.fullPulls++
	}
	if err != nil {
		st.pullFails++
	} else {
		if !advanced {
			st.idlePulls++
		}
		if c.cfg.Now != nil {
			c.pullLat.Observe(c.cfg.Now().Sub(t0).Seconds())
		}
	}
	c.mu.Unlock()
	if err != nil {
		c.noteFailure(i, err)
		return false, false
	}
	return true, advanced && (!full || since == 0)
}

// PullStats is one shard's cumulative pull accounting.
type PullStats struct {
	Pulls    uint64
	Failures uint64
	// Full counts the pulls answered with a full frame, not a delta.
	Full uint64
	// Idle counts the answered pulls that brought nothing new.
	Idle uint64
	// Bytes sums the frame bytes received.
	Bytes uint64
}

// PullStatsAll returns per-shard cumulative pull counters.
func (c *Coordinator) PullStatsAll() []PullStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]PullStats, len(c.shards))
	for i := range c.shards {
		st := &c.shards[i]
		out[i] = PullStats{Pulls: st.pulls, Failures: st.pullFails, Full: st.fullPulls, Idle: st.idlePulls, Bytes: st.pullBytes}
	}
	return out
}

// MergeRebuilds returns how many times the merged bundle was rebuilt
// from the per-shard ones — once per full frame that replaced a shard's
// installed state.
func (c *Coordinator) MergeRebuilds() uint64 { return c.rebuilds.Load() }

// PullLatency returns a merged copy of the successful-pull latency
// histogram: transfer, decode and merge, not the wait for news.
func (c *Coordinator) PullLatency() *stats.Histogram {
	c.mu.Lock()
	defer c.mu.Unlock()
	cp, err := stats.NewHistogram(c.pullLat.Bounds())
	if err != nil {
		panic("shard: pull latency bounds invalidated: " + err.Error())
	}
	if err := cp.Merge(c.pullLat); err != nil {
		panic("shard: pull latency self-merge failed: " + err.Error())
	}
	return cp
}

// fetch GETs a frame from the shard at url: the delta since seq since,
// awaited there for up to PullEvery, or with since 0 the full frame at
// once. t0 is when the response's headers arrived (zero without a
// clock).
func (c *Coordinator) fetch(url string, since uint64) (frame []byte, t0 time.Time, err error) {
	url += PartialsPath
	if since > 0 {
		url += "?since=" + strconv.FormatUint(since, 10) + "&wait=" + c.cfg.PullEvery.String()
	}
	req, err := http.NewRequestWithContext(c.ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, t0, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, t0, err
	}
	defer resp.Body.Close()
	if c.cfg.Now != nil {
		t0 = c.cfg.Now()
	}
	if resp.StatusCode != http.StatusOK {
		return nil, t0, fmt.Errorf("shard: pull status %s", resp.Status)
	}
	frame, err = io.ReadAll(resp.Body)
	return frame, t0, err
}

// install validates the frame, folds it into shard i's state and wakes
// the merger if that advanced the shard's sequence; full reports an
// accepted full frame.
func (c *Coordinator) install(i int, frame []byte) (full, advanced bool, err error) {
	from, seq, days, parts, err := decodeFrame(frame)
	if err != nil {
		return false, false, err
	}
	if parts.NumPots() != c.cfg.NumPots {
		return false, false, fmt.Errorf("shard: bundle sized for %d pots, fleet has %d", parts.NumPots(), c.cfg.NumPots)
	}
	if (parts.Countries != nil) != c.cfg.Countries {
		return false, false, fmt.Errorf("shard: bundle country-table presence %v, fleet wants %v", parts.Countries != nil, c.cfg.Countries)
	}
	c.mergeMu.Lock()
	advanced, err = c.foldLocked(i, frame, from, seq, days, parts)
	c.mergeMu.Unlock()
	if advanced {
		select {
		case c.dirty <- struct{}{}:
		default:
		}
	}
	return from == 0 && err == nil, advanced, err
}

// foldLocked applies a validated frame — parts, the bundle of the
// records in (from, seq], decoded from frame — to shard i:
//
//   - from is the installed seq — a delta, or any frame for a shard
//     with nothing installed: the frame is decoded a second time and
//     the two copies merged into the shard's bundle and the merged one.
//   - a full frame past the installed seq (a restarted shard caught up,
//     or the shard fell back to full) replaces the shard's bundle, and
//     the merged bundle is rebuilt.
//   - a full frame at or behind the installed seq is the shard replaying
//     its WAL after a restart: the pull still counts as healthy contact,
//     but the installed state stands until the shard catches up.
//   - a delta from anywhere else is a failed pull, and the next one asks
//     for the full frame.
//
// Caller holds mergeMu, under which alone a shard's seq, days and parts
// change.
func (c *Coordinator) foldLocked(i int, frame []byte, from, seq uint64, days int, parts *analysis.Partials) (advanced bool, err error) {
	st := &c.shards[i]
	advanced = seq > st.seq
	switch {
	case from == st.seq:
		if advanced {
			_, _, _, again, err := decodeFrame(frame)
			if err != nil {
				return false, err // unreachable: the same bytes just decoded
			}
			if err := st.parts.Merge(parts); err != nil {
				return false, err // unreachable: install validated the shape
			}
			if err := c.merged.Merge(again); err != nil {
				return false, err
			}
		}
	case from == 0:
		if advanced {
			st.parts = parts
			c.rebuildLocked()
		}
	default:
		c.mu.Lock()
		st.resync = true
		c.mu.Unlock()
		return false, fmt.Errorf("shard: delta from seq %d, installed seq is %d", from, st.seq)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st.up = true
	st.failures = 0
	st.lastErr = ""
	st.resync = false
	if c.cfg.Now != nil {
		st.lastOK = c.cfg.Now().Unix()
	}
	if advanced {
		c.seq += seq - st.seq
		st.seq = seq
		st.days = days
	}
	return advanced, nil
}

// rebuildLocked replaces the merged bundle with the fold of a copy
// (encode→decode: Merge adopts its source) of every shard's bundle.
// Caller holds mergeMu.
func (c *Coordinator) rebuildLocked() {
	dest := c.emptyBundle()
	b := new(wire.Builder) // Encode sizes it
	for i := range c.shards {
		b.Reset()
		c.shards[i].parts.Encode(b)
		r := wire.NewReader(b.Bytes())
		r.SetMaxStringLen(b.Len())
		cp, err := analysis.DecodePartials(r)
		if err != nil {
			panic("shard: installed bundle does not round-trip: " + err.Error())
		}
		if err := dest.Merge(cp); err != nil {
			panic("shard: installed bundle changed shape: " + err.Error())
		}
	}
	c.merged = dest
	c.rebuilds.Add(1)
}

// noteFailure counts one failed pull; FailAfter consecutive failures
// mark the shard down and hand it to the probe supervisor under a
// fresh generation.
func (c *Coordinator) noteFailure(i int, err error) {
	c.mu.Lock()
	st := &c.shards[i]
	st.failures++
	st.lastErr = err.Error()
	probe := st.up && st.failures >= c.cfg.FailAfter
	if probe {
		st.up = false
		st.gen++
	}
	gen := st.gen
	c.mu.Unlock()
	if probe {
		c.restarter.Request(i, gen)
	}
}

// tryProbe is the Restarter's attempt callback for a down shard: one
// pull. Success re-installs and marks the shard up; a stale generation
// means a newer mark-down owns the shard now.
func (c *Coordinator) tryProbe(i, gen, _ int) faults.RestartOutcome {
	c.mu.Lock()
	st := &c.shards[i]
	stale := st.up || st.gen != gen
	c.mu.Unlock()
	if stale {
		return faults.RestartDone
	}
	if ok, _ := c.pullOnce(i); ok {
		return faults.RestartDone
	}
	return faults.RestartRetry
}

// mergeLoop publishes a snapshot whenever an install advances a shard.
// Coalescing through the one-slot dirty channel means a burst of
// installs costs one materialization.
func (c *Coordinator) mergeLoop() {
	defer c.wg.Done()
	for running := true; running; {
		select {
		case <-c.ctx.Done():
			running = false
			continue
		case <-c.dirty:
		}
		c.publish()
	}
}

// publish materializes the merged bundle through the same path as a
// single-node seal — so the merged snapshot is byte-identical (after
// JSON encoding) to an engine that ingested all shards' records
// directly. The bundle lives on between publishes, so its client head
// has already taken in the IPs the installs brought.
func (c *Coordinator) publish() {
	c.mergeMu.Lock()
	defer c.mergeMu.Unlock()
	c.mu.Lock()
	seq, days := c.seq, 0
	for i := range c.shards {
		days = max(days, c.shards[i].days)
	}
	c.mu.Unlock()
	c.cur.Store(query.MaterializeSnapshot(c.merged, seq, days, nil, nil))
}
