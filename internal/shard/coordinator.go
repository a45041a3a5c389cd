package shard

// The merge coordinator: one puller goroutine per shard keeps one pull
// of it outstanding, which the shard parks until it has news, and folds
// what each pull brings — normally the delta since the previous one —
// into one long-lived merged bundle, publishes that as the global
// snapshot, and only then folds it into the shard's own bundle.
// The puller is also the shard's supervisor: FailAfter consecutive
// failures mark the shard down, the loop then spaces its pulls on the
// farm's capped-exponential restart backoff instead of PullEvery, and
// the first pull that succeeds marks the shard up again.
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
// the merged bundle is rebuilt from copies of them; that is the only
// reader that waits for a shard's bundle to catch up.

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
	// (default 3). A down shard is pulled on a capped-exponential backoff
	// instead of every PullEvery.
	FailAfter int
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
	// parts is the bundle of the shard's first seq records once partsMu
	// is free: what the merged bundle holds of this shard, kept apart so
	// the merged one can be rebuilt. An install takes partsMu under
	// mergeMu and folds the frame into parts after releasing mergeMu.
	partsMu sync.Mutex
	parts   *analysis.Partials
	seq     uint64
	days    int
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

	// mergeMu serializes installs: the merged bundle, the published
	// snapshot and each shard's seq, days and hand-off to partsMu. It is
	// taken before mu and partsMu, never under them.
	mergeMu  sync.Mutex
	merged   *analysis.Partials // the fold of every shards[i].parts
	rebuilds atomic.Uint64      // times merged was rebuilt from the shard bundles

	mu      sync.Mutex
	shards  []shardState
	seq     uint64           // sum of installed shard seqs
	pullLat *stats.Histogram // headers-to-published time of successful pulls (empty without a clock)

	cur atomic.Pointer[query.Snapshot]
	// ctx ends with Stop: it is every goroutine's stop signal and cuts a
	// parked pull short.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// New starts the coordinator: one puller per shard. The empty snapshot
// is published immediately, so readers never observe nil even before
// first shard contact.
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
	}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	for i, url := range cfg.Shards {
		c.shards[i] = shardState{url: url, up: true, parts: c.emptyBundle()}
	}
	c.merged = c.emptyBundle()
	c.publishLocked() // nothing runs yet that could race it
	for i := range c.shards {
		c.wg.Add(1)
		go c.pullLoop(i)
	}
	return c, nil
}

// Stop ends the pullers and joins them; a pull parked at its shard is
// abandoned, not waited for.
func (c *Coordinator) Stop() {
	c.cancel()
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
// after an idle wait, at the old tick's rate after the rest. While the
// shard is down, the next pull waits a backoff step after this one
// instead, the step growing with each failure past FailAfter. The first
// pull comes PullEvery after the start, as it always has: a shard that
// starts with its coordinator holds little yet, and full frames follow
// a first one until what it folds between two pulls is small beside
// what it holds.
func (c *Coordinator) pullLoop(i int) {
	defer c.wg.Done()
	for started := false; c.ctx.Err() == nil; started = true {
		spacing := time.NewTimer(c.cfg.PullEvery)
		if started && c.pullOnce(i) {
			spacing.Stop()
			continue
		}
		c.mu.Lock()
		if st := &c.shards[i]; !st.up {
			spacing.Stop()
			spacing = time.NewTimer((*faults.Plan)(nil).Backoff(i, st.failures-c.cfg.FailAfter))
		}
		c.mu.Unlock()
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

// pullOnce performs one pull of shard i and reports news: the shard
// answered with a frame that advanced it and was the kind asked for.
func (c *Coordinator) pullOnce(i int) (news bool) {
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
		full, advanced, err = c.install(i, frame, t0)
	}
	if c.ctx.Err() != nil {
		return false // Stop cut the pull short: no failure of the shard's
	}
	c.mu.Lock()
	st.pulls++
	st.pullBytes += uint64(len(frame))
	if full {
		st.fullPulls++
	}
	if err != nil {
		st.pullFails++
	} else if !advanced {
		st.idlePulls++
	}
	c.mu.Unlock()
	if err != nil {
		c.noteFailure(i, err)
		return false
	}
	return advanced && (!full || since == 0)
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
// histogram: from the response's headers to the merged snapshot that
// covers the frame published — transfer, decode, merge and materialize,
// what a /v1 reader waits for; not the wait for news before, nor the
// shard's own bundle catching up after.
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

// install validates the frame, applies it to shard i (foldLocked) and,
// if that advanced the shard, publishes the merged snapshot at once.
// Only then does a frame that continues the shard reach its own bundle,
// under partsMu, which mergeMu hands over to: the next publish does not
// wait for this catch-up, the next install of the shard and any rebuild
// do. A
// successful pull's latency runs from t0 (the response's headers, the
// end of any wait at the shard) to that publish, and is observed only
// with a clock (Config.Now), so clockless deterministic runs render an
// empty histogram. full reports an accepted full frame.
func (c *Coordinator) install(i int, frame []byte, t0 time.Time) (full, advanced bool, err error) {
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
	st := &c.shards[i]
	c.mergeMu.Lock()
	continues := from == st.seq
	advanced, err = c.foldLocked(i, from, seq, days, parts)
	if advanced {
		c.publishLocked()
	}
	if err == nil && c.cfg.Now != nil {
		c.mu.Lock()
		c.pullLat.Observe(c.cfg.Now().Sub(t0).Seconds())
		c.mu.Unlock()
	}
	if !continues || !advanced {
		c.mergeMu.Unlock()
		return from == 0 && err == nil, advanced, err
	}
	st.partsMu.Lock()
	defer st.partsMu.Unlock()
	c.mergeMu.Unlock()
	_, _, _, again, err := decodeFrame(frame)
	if err == nil {
		err = st.parts.Merge(again)
	}
	if err != nil {
		panic("shard: a frame merged once does not merge again: " + err.Error())
	}
	return from == 0, true, nil
}

// foldLocked applies a validated frame — parts, the bundle of the
// records in (from, seq] — to shard i:
//
//   - from is the installed seq — a delta, or any frame for a shard
//     with nothing installed: parts is merged into the merged bundle if
//     seq advances, and install folds the frame into the shard's.
//   - a full frame past the installed seq (a restarted shard caught up,
//     or the shard fell back to full) replaces the shard's bundle, and
//     the merged bundle is rebuilt.
//   - a full frame at or behind the installed seq is the shard replaying
//     its WAL after a restart: the pull still counts as healthy contact,
//     but the installed state stands until the shard catches up.
//   - a delta from anywhere else is a failed pull, and the next one asks
//     for the full frame.
//
// Caller holds mergeMu, under which alone a shard's seq and days
// change.
func (c *Coordinator) foldLocked(i int, from, seq uint64, days int, parts *analysis.Partials) (advanced bool, err error) {
	st := &c.shards[i]
	advanced = seq > st.seq
	switch {
	case from == st.seq:
		if advanced {
			if err := c.merged.Merge(parts); err != nil {
				return false, err // unreachable: install validated the shape
			}
		}
	case from == 0:
		if advanced {
			st.partsMu.Lock()
			st.parts = parts
			st.partsMu.Unlock()
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
// (encode→decode: Merge adopts its source) of every shard's bundle,
// each read under its partsMu, so after any catch-up still in flight.
// Caller holds mergeMu.
func (c *Coordinator) rebuildLocked() {
	dest := c.emptyBundle()
	b := new(wire.Builder) // Encode sizes it
	for i := range c.shards {
		st := &c.shards[i]
		b.Reset()
		st.partsMu.Lock()
		st.parts.Encode(b)
		st.partsMu.Unlock()
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
// mark the shard down.
func (c *Coordinator) noteFailure(i int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := &c.shards[i]
	st.failures++
	st.lastErr = err.Error()
	if st.failures >= c.cfg.FailAfter {
		st.up = false
	}
}

// publishLocked materializes the merged bundle through the same path
// as a single-node seal — so the merged snapshot is byte-identical
// (after JSON encoding) to an engine that ingested all shards' records
// directly. The bundle lives on between publishes, so its client head
// has already taken in the IPs the installs brought. Caller holds
// mergeMu, under which alone the sequences and day spans it reads
// change.
func (c *Coordinator) publishLocked() {
	days := 0
	for i := range c.shards {
		days = max(days, c.shards[i].days)
	}
	c.cur.Store(query.MaterializeSnapshot(c.merged, c.seq, days, nil, nil))
}
