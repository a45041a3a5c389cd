// Package query is the honeyfarm's incremental aggregation engine: the
// live counterpart of internal/analysis. The paper's operators watched
// a farm that collected ~860k sessions a day for 15 months; waiting for
// a batch re-scan of the full dataset to answer "what is happening
// right now" does not survive contact with that volume. This engine
// folds session-record batches into the same mergeable partial
// aggregates the batch pipeline uses (analysis.CategoryAccum and
// friends) and periodically seals them into immutable snapshots.
//
// Snapshot isolation is the core contract: a sealed Snapshot is a
// consistent view of exactly the first Seq records of the ingest
// stream, readers always see a fully materialized snapshot (never a
// half-updated aggregate), and ingest never blocks a reader — the
// current snapshot is published through an atomic pointer and old
// snapshots stay valid for as long as anyone holds them.
//
// Equivalence is the correctness anchor: ingest folds the very
// accumulators the batch functions fold, and Seal builds each table the
// way they do — the client table as what the API serves of it, its
// first ClientRows rows and its length. A snapshot at sequence N is
// byte-identical (after JSON encoding) to internal/analysis over the
// first N records shaped the same way — at any ingest batching and any
// snapshot cadence. TestSnapshotEquivalence pins this.
package query

import (
	"sync"
	"sync/atomic"
	"time"

	"honeyfarm/internal/analysis"
	"honeyfarm/internal/faults"
	"honeyfarm/internal/geo"
	"honeyfarm/internal/honeypot"
	"honeyfarm/internal/store"
	"honeyfarm/internal/wire"
)

// Config parameterizes an Engine.
type Config struct {
	// Epoch anchors day bucketing; it is normalized exactly as a Store
	// normalizes its epoch, so both sides bucket identically.
	Epoch time.Time
	// NumPots sizes the per-honeypot table; records with IDs outside
	// [0, NumPots) are ignored by it (the batch pipeline's rule).
	NumPots int
	// Registry resolves client IPs to countries. Nil disables the
	// country table (snapshots carry an empty one).
	Registry *geo.Registry
	// Deprecated: snapshots carry no hash rows; ignored.
	Tagger analysis.Tagger
	// SnapshotEvery automatically seals a snapshot once at least this
	// many records have been ingested since the previous seal (checked
	// at batch granularity). Zero disables auto-sealing; Seal still
	// works.
	SnapshotEvery int
}

// ClientRows is how many rows of the per-client-IP table a snapshot
// carries — the first, in IP order — and so the most /v1/clients
// serves.
const ClientRows = 100

// Snapshot is one immutable epoch-sealed view of the ingest stream's
// first Seq records. Every field is a finalized aggregate; nothing in
// a published snapshot is ever mutated again.
type Snapshot struct {
	// Seq is the number of records folded in — the stream prefix this
	// snapshot covers.
	Seq uint64
	// Days is one past the highest day bucket seen (store.NumDays).
	Days int
	// Summary is Table 1 over the prefix.
	Summary analysis.CategoryShares
	// Pots is the per-honeypot table, indexed by honeypot ID.
	Pots []analysis.PerHoneypot
	// ClientCount is the number of distinct client IPs.
	ClientCount int
	// Clients is the per-client-IP table's first ClientRows rows,
	// sorted by IP.
	Clients []analysis.ClientStat
	// Countries is the unique-clients-per-country table, descending.
	Countries []analysis.CountryCount
	// HashCount is the number of distinct file hashes.
	HashCount int
}

// Engine folds session records into mergeable partials and publishes
// snapshots. Ingest and Seal serialize on an internal mutex; Snapshot
// is wait-free and safe from any goroutine.
type Engine struct {
	cfg   Config
	epoch time.Time

	mu        sync.Mutex // serializes ingest and seal
	seq       uint64
	maxDay    int
	sinceSeal int
	parts     *analysis.Partials
	// cut is where the last pull was answered; parts tracks the rows the
	// records since touched, for the next pull to ship only those.
	cut uint64
	// news is closed by the next Ingest: what a parked pull waits on. Nil
	// while nobody waits, so Ingest pays one pointer test for it.
	news  chan struct{}
	seals atomic.Uint64 // snapshots sealed (including the empty one)

	cur atomic.Pointer[Snapshot]
}

// New creates an engine and publishes its empty snapshot (sequence 0),
// so readers never observe a nil view.
func New(cfg Config) *Engine {
	e := &Engine{
		cfg:    cfg,
		epoch:  store.NormalizeEpoch(cfg.Epoch),
		maxDay: -1,
	}
	e.parts = analysis.NewPartials(cfg.NumPots, cfg.Registry, cfg.Registry != nil)
	e.mu.Lock()
	e.sealLocked()
	e.mu.Unlock()
	return e
}

// Epoch returns the engine's normalized day-bucketing epoch.
func (e *Engine) Epoch() time.Time { return e.epoch }

// Ingest folds one batch of records into the partial aggregates, in
// stream order. A live collector reaches it through a Sink, which
// appends the batch to the WAL first. Records must not be mutated
// afterwards.
func (e *Engine) Ingest(recs []*honeypot.SessionRecord) {
	if len(recs) == 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, r := range recs {
		day := store.DayOf(e.epoch, r.Start)
		if day > e.maxDay {
			e.maxDay = day
		}
		e.parts.Add(r, day)
	}
	e.seq += uint64(len(recs))
	if e.news != nil {
		close(e.news)
		e.news = nil
	}
	e.sinceSeal += len(recs)
	if e.cfg.SnapshotEvery > 0 && e.sinceSeal >= e.cfg.SnapshotEvery {
		e.sealLocked()
	}
}

// Seal materializes the current aggregates into an immutable snapshot,
// publishes it, and returns it. Sealing at an unchanged sequence
// republishes an equivalent snapshot (readers cannot tell).
func (e *Engine) Seal() *Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sealLocked()
}

// sealLocked materializes and publishes under e.mu. Every table is a
// fresh slice, so the snapshot stays immutable while ingest keeps
// folding into the accumulators; none grows with the client or hash
// count.
func (e *Engine) sealLocked() *Snapshot {
	snap := MaterializeSnapshot(e.parts, e.seq, e.maxDay+1, nil, nil)
	e.sinceSeal = 0
	e.cur.Store(snap)
	e.seals.Add(1)
	return snap
}

// MaterializeSnapshot finalizes a partial-aggregate bundle into an
// immutable snapshot covering seq records over days day buckets. It is
// THE materialization path: the engine's seal calls it for single-node
// snapshots and the distributed merge coordinator calls it over merged
// shard bundles, so the two can never disagree about how accumulators
// become tables. Every table is a fresh slice, so the snapshot stays
// immutable while callers keep folding into the bundle.
func MaterializeSnapshot(p *analysis.Partials, seq uint64, days int,
	// Deprecated: snapshots carry no hash rows; ignored.
	tagger analysis.Tagger,
	// Deprecated: snapshots carry no availability table; ignored.
	rep *faults.Report) *Snapshot {
	snap := &Snapshot{
		Seq:         seq,
		Days:        days,
		Summary:     p.Cats.Finalize(),
		Pots:        p.FinalizePots(),
		ClientCount: p.Clients.Len(),
		Clients:     p.Clients.Head(ClientRows),
		HashCount:   p.Hashes.Len(),
	}
	if p.Countries != nil {
		snap.Countries = p.Countries.Finalize()
	}
	return snap
}

// EncodePartials appends the engine's complete accumulator state to b
// in the analysis wire layout and returns the exact ingest sequence and
// day span the encoding covers. It runs under the ingest mutex, so the
// triple is a consistent cut of the stream: decoding the bytes yields a
// bundle equal to folding exactly the first seq records. This is what a
// shard collector serves to the merge coordinator.
func (e *Engine) EncodePartials(b *wire.Builder) (seq uint64, days int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.parts.Encode(b)
	return e.seq, e.maxDay + 1
}

// CutPartials answers one pull by a peer that holds the bundle of the
// engine's first since records (held false: it holds nothing). It
// appends to b the bundle of the records in (from, seq] and makes seq
// the cut the next pull is measured against. When since is the cut the
// previous pull made, that is the delta of the rows they touched: cut
// in O(touched) under the ingest mutex, encoded outside it. Otherwise
// — first contact, a lost response, a second puller, or tracking
// dropped — from is 0, the full bundle is encoded under the mutex as
// EncodePartials does, and tracking restarts. Either way merging the
// bytes into the bundle of the first from records yields the bundle of
// the first seq.
func (e *Engine) CutPartials(b *wire.Builder, since uint64, held bool) (from, seq uint64, days int) {
	e.mu.Lock()
	var delta func(*wire.Builder)
	if held && since == e.cut {
		delta = e.parts.CutDelta()
	}
	if delta != nil {
		from = e.cut
	} else {
		e.parts.Encode(b)
		e.parts.Track()
	}
	e.cut = e.seq
	seq, days = e.seq, e.maxDay+1
	e.mu.Unlock()
	if delta != nil {
		delta(b)
	}
	return from, seq, days
}

// noWait is what News hands a caller that has nothing to wait for.
var noWait = make(chan struct{})

func init() { close(noWait) }

// News returns a channel that is closed once the engine's sequence is
// not since: at once when it already differs, else by the next Ingest.
// Registering and closing both happen under the ingest mutex, so a
// waiter that registers at seq == since is released by the very next
// batch; the wait itself is the caller's, outside the mutex.
func (e *Engine) News(since uint64) <-chan struct{} {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.seq != since {
		return noWait
	}
	if e.news == nil {
		e.news = make(chan struct{})
	}
	return e.news
}

// PendingEntries returns how many client and hash rows the records
// since the last pull's cut touched: the rows the next delta pull
// ships, 0 while no puller is being tracked.
func (e *Engine) PendingEntries() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.parts.Touched()
}

// Snapshot returns the most recently sealed snapshot. It never blocks
// and never returns nil.
func (e *Engine) Snapshot() *Snapshot {
	return e.cur.Load()
}

// Seq returns the number of records ingested so far (which may be
// ahead of the published snapshot's Seq until the next seal).
func (e *Engine) Seq() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.seq
}

// Seals returns the number of snapshots sealed over the engine's
// lifetime, including the empty snapshot New publishes — the
// snapshot-seal counter of the /metrics plane.
func (e *Engine) Seals() uint64 {
	return e.seals.Load()
}
