// Package wal implements the collector's segmented, append-only
// write-ahead log. The paper's honeyfarm survived 15 months of
// continuous ingest; this package is the durability layer that lets our
// collector do the same: session-record batches are framed, checksummed
// and appended to segment files, fsynced in deterministic record-count
// groups, and recovered after a crash by scanning the segments,
// truncating the torn tail frame, and replaying every intact frame.
//
// On-disk layout: a WAL directory holds segment files named
// wal-<seq>.seg. Each segment starts with a meta frame carrying the
// format name, the segment sequence number and the store epoch; batch
// frames follow. A frame is
//
//	uint32 LE  payload length n
//	uint32 LE  CRC-32C (Castagnoli) of the payload
//	n bytes    payload: 1 kind byte + body
//
// The meta frame's body is JSON and its Format field names the one
// format there is, "honeyfarm-wal-v2": batch bodies in the binary record
// codec (codec.go). A segment declaring anything else is refused by
// every reader (Open, Verify, Repair, Iterator, fsck) — read as
// corruption, not as a tear. Gap frames (JSON, like the meta frame)
// record degraded-mode outages; see below.
//
// Appends go to the highest segment; when it exceeds the configured
// byte threshold it is fsynced, closed, and a new segment is opened.
// Because a segment is only ever succeeded after a full sync, a crash
// can tear at most the tail of the final segment — the recovery
// invariant the torn-tail rule and the crash-at-every-offset property
// test depend on.
//
// Group commits run on a single committer goroutine and an appender
// never waits for one: a sync is requested every SyncEvery records
// (count-based, never a timer, so where requests fall is a deterministic
// function of the append stream), one fsync is in flight, one request
// waits behind it, and a request that finds that slot taken is absorbed
// by the waiting one — which has not started, so it covers every byte
// written before it does. Groups therefore grow with the disk's latency
// instead of stalling the appender. Sync, Close, rotation and entry into
// degraded mode are barriers: they wait for both fsyncs before touching
// the handle, so the un-durable tail never outgrows one segment.
//
// # Fault model
//
// All file I/O goes through an iofault.FS (Options.FS, defaulting to
// the real filesystem), so every disk-error path is testable. Disk
// errors are classified by iofault.Transient: out-of-space and
// interrupted-syscall errnos get a bounded deterministic retry with
// capped backoff (Options.RetryAttempts / Options.RetryPlan, the
// supervisor's faults.Backoff policy); EIO and everything else are
// permanent. When retries are exhausted — or an fsync fails, where
// retrying cannot restore the lost ordering guarantee — the log
// degrades instead of dying: the current segment is sealed best-effort
// at its last frame-aligned size, subsequent appends are counted and
// dropped (ErrDegraded), and every ProbeEvery-th append probes for
// recovery by rolling a fresh segment. A successful probe first writes
// a gap frame recording the outage (reason, dropped batch/record
// counts), so readers — fsck, and the query follower's accounting —
// see the hole instead of inferring it. Health() exposes the state
// machine's position; a failing disk degrades durability, never the
// in-memory dataset (store.Store keeps everything it accepted).
package wal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	iofs "io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"honeyfarm/internal/atomicio"
	"honeyfarm/internal/faults"
	"honeyfarm/internal/honeypot"
	"honeyfarm/internal/iofault"
	"honeyfarm/internal/store"
)

// FormatNameV2 is the format name every segment's meta frame records:
// binary batch bodies in SSH wire style (internal/wire). Its JSON
// predecessor is gone; a segment that names it is refused.
const FormatNameV2 = "honeyfarm-wal-v2"

// Frame kinds (first payload byte).
const (
	kindMeta  = 1 // segment header: format, sequence, epoch
	kindBatch = 2 // session-record batch
	kindGap   = 3 // degraded-mode outage record (JSON)
)

// frameHeaderSize is the fixed prefix of every frame: length + CRC.
const frameHeaderSize = 8

// castagnoli is the CRC-32C table used by every frame checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrDegraded marks appends refused while the log is degraded. The
// records were counted and dropped from the WAL (the in-memory store
// keeps them); errors.Is(err, ErrDegraded) distinguishes this
// accounted-for state from an unexpected failure.
var ErrDegraded = errors.New("wal: degraded")

// Options tunes a log. The zero value selects the defaults.
type Options struct {
	// Epoch is the store epoch recorded in segment meta frames and used
	// to replay recovered records. Required when the directory has no
	// recoverable meta frame; must match the recorded epoch otherwise
	// (zero means "use whatever is recorded").
	Epoch time.Time
	// SegmentBytes rotates to a new segment once the current one reaches
	// this size (default 8 MiB).
	SegmentBytes int64
	// SyncEvery is the group-commit policy: the log requests a sync
	// after this many appended records (default 512); 1 requests one on
	// every append. It is a record count, not a timer, so where requests
	// fall is a deterministic function of the append stream; how many a
	// busy committer folds into one fsync is not.
	SyncEvery int
	// FS is the filesystem the log reads and writes through (default
	// the real one). Tests inject deterministic disk faults here.
	FS iofault.FS
	// RetryAttempts bounds how many times a transient disk error
	// (iofault.Transient: ENOSPC-family, EINTR, EAGAIN) is retried
	// before the log degrades (default 3; 1 disables retry). Permanent
	// errors degrade immediately.
	RetryAttempts int
	// RetryPlan supplies the capped-exponential backoff between retry
	// attempts via faults.Backoff. nil uses the defaults (25ms base, 2s
	// cap, no jitter) — the same policy the farm supervisor runs.
	RetryPlan *faults.Plan
	// ProbeEvery controls degraded-mode recovery probing: the first
	// append after degrading probes immediately, then every
	// ProbeEvery-th dropped append probes again (default 64).
	ProbeEvery int
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 512
	}
	if o.FS == nil {
		o.FS = iofault.OS
	}
	if o.RetryAttempts <= 0 {
		o.RetryAttempts = 3
	}
	if o.ProbeEvery <= 0 {
		o.ProbeEvery = 64
	}
	return o
}

// Batch is one recovered record batch. Tag carries the caller's label
// (the generation checkpoint stores shard indexes there; plain durable
// sinks use 0).
type Batch struct {
	Tag     uint64
	Records []*honeypot.SessionRecord
}

// metaBody is the JSON body of a segment meta frame.
type metaBody struct {
	Format  string    `json:"format"`
	Segment uint64    `json:"segment"`
	Epoch   time.Time `json:"epoch"`
}

// Gap is one recorded degraded-mode outage: the frame a recovery probe
// writes at the head of its fresh segment, so every reader sees how
// many batches the outage dropped instead of silently missing them.
// The body is JSON, like the meta frame's.
type Gap struct {
	// Reason classifies the failure that opened the outage, e.g.
	// "append: enospc" or "group commit fsync: eio". Deliberately free
	// of paths and timestamps so identically seeded runs stay
	// byte-identical.
	Reason string `json:"reason"`
	// Batches and Records count the appends dropped during the outage.
	Batches int `json:"batches"`
	Records int `json:"records"`
}

// Health is a snapshot of the log's degraded-mode state machine.
type Health struct {
	// Degraded reports the log is currently refusing appends; Reason
	// carries the underlying failure.
	Degraded bool   `json:"degraded"`
	Reason   string `json:"reason,omitempty"`
	// DroppedBatches and DroppedRecords count appends refused across
	// all outages of this Log instance.
	DroppedBatches int `json:"dropped_batches"`
	DroppedRecords int `json:"dropped_records"`
	// Outages counts entries into degraded mode; Recoveries counts
	// successful probes back out of it.
	Outages    int `json:"outages"`
	Recoveries int `json:"recoveries"`
	// Appends and AppendedRecords count the batch frames (and the
	// records they carry) written to segments; Fsyncs counts successful
	// segment fsyncs (group commits, explicit Syncs, and rotation/close
	// seals). Together with the drop counters above they are the WAL
	// rows of the /metrics plane.
	Appends         int `json:"appends"`
	AppendedRecords int `json:"appended_records"`
	Fsyncs          int `json:"fsyncs"`
	// UnsyncedRecords is AppendedRecords minus the records a finished
	// fsync covers; CoalescedSyncs counts sync requests absorbed by one
	// already waiting behind the in-flight fsync. Both grow when the
	// disk falls behind the append stream.
	UnsyncedRecords int `json:"unsynced_records"`
	CoalescedSyncs  int `json:"coalesced_syncs"`
}

// SegmentStat is one segment's recovery/verification summary.
type SegmentStat struct {
	// Name is the segment file name within the WAL directory.
	Name string
	// Seq is the segment sequence number parsed from the name.
	Seq uint64
	// Frames and Records count the intact batch frames and the records
	// they carry (the meta frame is not counted).
	Frames  int
	Records int
	// GapFrames counts intact gap frames (degraded-mode outage records).
	GapFrames int
	// Bytes is the file size; GoodBytes the prefix covered by intact
	// frames (including the meta frame); TornBytes the difference.
	Bytes     int64
	GoodBytes int64
	TornBytes int64
	// Torn reports that the frames stop before the bytes do. Corrupt says
	// the frame they stop at passed its CRC and still does not decode or is
	// out of place — never a crash artifact: a torn write fails its CRC.
	// Open truncates a torn tail on the final segment and refuses all
	// other damage; fsck -repair truncates it.
	Torn    bool
	Corrupt bool
}

// Recovery reports what Open (or Verify) found in a WAL directory.
type Recovery struct {
	// Epoch is the store epoch recorded in the segments (or the Options
	// epoch for a fresh directory).
	Epoch time.Time
	// Batches are the intact batch frames in append order.
	Batches []Batch
	// Gaps are the degraded-mode outage records found in the segments,
	// in append order.
	Gaps []Gap
	// Segments holds per-segment frame/checksum stats in sequence order.
	Segments []SegmentStat
	// TornBytes is the total tail bytes truncated during recovery.
	TornBytes int64
	// OrphanedTmp lists stale *.tmp files found in the directory —
	// leftovers of a crash between an atomic write's Close and Rename.
	// Open sweeps them; Verify only reports them.
	OrphanedTmp []string
}

// Records counts the recovered records across all batches.
func (r *Recovery) Records() int {
	n := 0
	for _, b := range r.Batches {
		n += len(b.Records)
	}
	return n
}

// DroppedRecords sums the records the recorded gaps dropped.
func (r *Recovery) DroppedRecords() int {
	n := 0
	for _, g := range r.Gaps {
		n += g.Records
	}
	return n
}

// Replay builds a store from the recovered batches.
func (r *Recovery) Replay() *store.Store {
	s := store.New(r.Epoch)
	for _, b := range r.Batches {
		s.AddBatch(b.Records)
	}
	return s
}

// Log is an open write-ahead log. All methods are safe for concurrent
// use; concurrent Appends serialize, so the frame order is the
// serialization order.
//
// Appends are acknowledged once written; durability arrives with the
// group commit, whose fsync runs on the committer goroutine. A failed
// group commit degrades the log on the first Append/Sync/Close after
// the committer finished it — never later than the next barrier — and
// before that call writes anything: an Append that returns an error
// left no frame behind, so recovery never replays a batch the caller
// counted as failed.
type Log struct {
	dir  string
	fs   iofault.FS
	opts Options

	mu      sync.Mutex
	f       iofault.File // current segment (nil while degraded)
	seq     uint64       // current segment sequence number
	size    int64        // current segment's frame-aligned size
	pending int          // records appended since the last sync request
	closed  bool

	// Degraded-mode state machine (see the package fault model).
	degraded   error  // non-nil while degraded: the failure that opened the outage
	reason     string // deterministic classification of degraded ("append: enospc")
	oldSealed  bool   // pre-outage segment already truncated+fsynced+closed
	sinceProbe int    // dropped appends since the last recovery probe
	health     Health // cumulative drop/outage counters
	outageB    int    // batches dropped in the current outage (gap frame body)
	outageR    int    // records dropped in the current outage

	// Group commit: the committer goroutine performs the fsyncs sent to
	// syncReq, whose one slot is the request queued behind the in-flight
	// fsync; a request that finds it full is absorbed (see the package
	// comment). issued counts the sends, under mu.
	syncReq       chan iofault.File
	committerDone chan struct{}
	issued        int
	appended      atomic.Int64 // records written; the committer reads it just before each fsync

	// The committer's verdicts, under their own lock so that publishing
	// one never needs mu (a barrier holds mu while it waits on cond).
	cmu       sync.Mutex
	cond      *sync.Cond
	finished  int   // fsyncs the committer completed, failed ones included
	fsyncs    int   // successful segment fsyncs, barrier ones included
	synced    int64 // appended, as read before the last successful fsync
	commitErr error // first failed group commit not yet collected
}

// segmentName formats the file name of segment seq.
func segmentName(seq uint64) string { return fmt.Sprintf("wal-%08d.seg", seq) }

// parseSegmentName extracts the sequence number from a segment name.
func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
		return 0, false
	}
	var seq uint64
	_, err := fmt.Sscanf(name, "wal-%d.seg", &seq)
	return seq, err == nil
}

// listSegments returns the directory's segment files in sequence order.
func listSegments(fsys iofault.FS, dir string) ([]SegmentStat, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []SegmentStat
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		seq, ok := parseSegmentName(e.Name())
		if !ok {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		segs = append(segs, SegmentStat{Name: e.Name(), Seq: seq, Bytes: info.Size()})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].Seq < segs[j].Seq })
	return segs, nil
}

// Open opens (creating if necessary) the WAL in dir, recovers its
// contents, truncates any torn tail frame on the final segment, sweeps
// stale *.tmp orphans, and positions the log for appending. Damage a
// crash cannot explain is refused with the directory untouched: a torn
// frame on a non-final segment (completed segments were fsynced before
// their successor existed) and a corrupt frame anywhere (see
// SegmentStat.Corrupt). Use Repair to salvage the intact prefix.
func Open(dir string, opts Options) (*Log, *Recovery, error) {
	opts = opts.withDefaults()
	fsys := opts.FS
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: creating %s: %w", dir, err)
	}
	rec, err := scan(fsys, dir, opts.Epoch, true)
	if err != nil {
		return nil, nil, err
	}
	// Sweep the orphans the scan reported. A crash between an atomic
	// write's Close and Rename strands its .tmp forever otherwise. Safe
	// under the log's single-writer assumption; best-effort because a
	// failed remove must not block recovery (fsck reports survivors).
	if len(rec.OrphanedTmp) > 0 {
		if _, serr := atomicio.SweepTmp(fsys, dir); serr != nil {
			rec.OrphanedTmp = nil // not swept after all; leave them to fsck
		}
	}
	l := &Log{
		dir:           dir,
		fs:            fsys,
		opts:          opts,
		syncReq:       make(chan iofault.File, 1),
		committerDone: make(chan struct{}),
	}
	l.cond = sync.NewCond(&l.cmu)
	l.opts.Epoch = rec.Epoch

	if n := len(rec.Segments); n > 0 {
		last := &rec.Segments[n-1]
		f, err := fsys.OpenFile(filepath.Join(dir, last.Name), os.O_RDWR, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: opening segment: %w", err)
		}
		// Truncate the torn tail so appends continue from the last intact
		// frame; recovery already dropped those bytes from the stats.
		if err := f.Truncate(last.GoodBytes); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
		if _, err := f.Seek(last.GoodBytes, io.SeekStart); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: seeking segment end: %w", err)
		}
		l.f, l.seq, l.size = f, last.Seq, last.GoodBytes
		// A fully torn final segment lost even its meta frame; rewrite it
		// so the segment stands alone again.
		if l.size == 0 {
			if err := l.writeMetaLocked(); err != nil {
				f.Close()
				return nil, nil, err
			}
		}
	} else {
		if err := l.rollLocked(1); err != nil {
			return nil, nil, err
		}
	}
	go l.committer()
	return l, rec, nil
}

// scan reads every segment whole and walks its frames. truncating
// selects Open semantics (only a torn tail on the final segment is
// tolerated); Verify and Repair pass false to collect stats for every
// kind of damage.
func scan(fsys iofault.FS, dir string, epoch time.Time, truncating bool) (*Recovery, error) {
	segs, err := listSegments(fsys, dir)
	if err != nil {
		return nil, fmt.Errorf("wal: listing %s: %w", dir, err)
	}
	rec := &Recovery{Epoch: epoch}
	for i := range segs {
		seg := &segs[i]
		batches, err := scanSegment(fsys, dir, seg, rec)
		if err != nil {
			return nil, err
		}
		if truncating && seg.Torn && (seg.Corrupt || i != len(segs)-1) {
			return nil, &damageError{seg.Name, seg.GoodBytes, seg.Corrupt}
		}
		rec.Batches = append(rec.Batches, batches...)
		rec.TornBytes += seg.TornBytes
	}
	rec.Segments = segs
	if tmps, terr := atomicio.StaleTmp(fsys, dir); terr == nil {
		rec.OrphanedTmp = tmps
	}
	// An epoch is established by Options.Epoch or any intact meta frame;
	// without either (fresh directory, or every meta frame torn) the log
	// cannot replay into a store.
	if rec.Epoch.IsZero() {
		return nil, fmt.Errorf("wal: directory %s has no recoverable epoch; supply Options.Epoch", dir)
	}
	return rec, nil
}

// scanSegment walks one segment's frames, filling seg's counters and
// returning its intact batches; gap frames are collected into rec.Gaps
// and a zero rec.Epoch adopts the meta frame's. Wherever the walk stops,
// the frames before it count: what the damage means is the caller's call.
func scanSegment(fsys iofault.FS, dir string, seg *SegmentStat, rec *Recovery) ([]Batch, error) {
	data, err := iofault.ReadFile(fsys, filepath.Join(dir, seg.Name))
	if err != nil {
		return nil, fmt.Errorf("wal: reading segment: %w", err)
	}
	w := walker{name: seg.Name, seq: seg.Seq, epoch: rec.Epoch}
	var batches []Batch
	// Each frame read advances GoodBytes by at least frameHeaderSize, so
	// the scan is bounded by the segment length.
	for seg.GoodBytes < int64(len(data)) {
		f, n, st, err := w.next(data[seg.GoodBytes:])
		if err != nil {
			return nil, err
		}
		if st != stopNone {
			seg.Corrupt = st == stopCorrupt
			break
		}
		seg.GoodBytes += int64(n)
		switch f.kind {
		case kindGap:
			rec.Gaps = append(rec.Gaps, f.gap)
			seg.GapFrames++
		case kindBatch:
			batches = append(batches, f.batch)
			seg.Frames++
			seg.Records += len(f.batch.Records)
		}
	}
	rec.Epoch = w.epoch
	seg.TornBytes = seg.Bytes - seg.GoodBytes
	seg.Torn = seg.TornBytes > 0
	return batches, nil
}

// stop is why a walker step read no frame.
type stop int

const (
	stopNone    stop = iota // it read one
	stopEnd                 // no bytes left
	stopTorn                // short or CRC-mismatched frame: what a crash mid-write leaves
	stopCorrupt             // CRC-valid frame that does not decode or is out of place
)

// frame is one walker step: kind says which of gap and batch is set
// (neither for a meta frame, whose epoch lands in the walker).
type frame struct {
	kind  byte
	gap   Gap
	batch Batch
}

// walker is the one reader of a segment's layout: a meta frame whose
// format, sequence and epoch match, then gap and batch frames. The scan
// and the Iterator hand next the unread rest of the segment and decide
// what a stop means; the walker holds no bytes and no policy.
type walker struct {
	name  string    // segment file name, for errors
	seq   uint64    // sequence the meta frame must record
	epoch time.Time // established epoch; a zero one adopts the meta frame's
	meta  bool      // the leading meta frame has been read
}

// next reads the frame at the head of buf and returns it with its
// length, or the reason there is none. A stop leaves the walker as it
// was, so the same bytes stop the same way and grown bytes can be
// retried. err is decodeMeta's: corruption no reader tolerates.
func (w *walker) next(buf []byte) (f frame, n int, st stop, err error) {
	if len(buf) == 0 {
		return frame{}, 0, stopEnd, nil
	}
	kind, body, n, ok := nextFrame(buf)
	if !ok {
		return frame{}, 0, stopTorn, nil
	}
	f.kind, ok = kind, false
	switch {
	case (kind == kindMeta) == w.meta:
		// A meta frame anywhere but first, or anything else first.
	case kind == kindMeta:
		ok, err = w.decodeMeta(body)
	case kind == kindGap:
		f.gap, ok = decodeGap(body)
	case kind == kindBatch:
		f.batch, ok = decodeBatchV2(body)
	}
	if !ok {
		return frame{}, 0, stopCorrupt, err
	}
	return f, n, stopNone, nil
}

// damageError is every reader's refusal of damage no crash explains: a
// torn frame in a sealed segment, a corrupt one anywhere.
type damageError struct {
	name    string
	off     int64
	corrupt bool
}

func (e *damageError) Error() string {
	what := "torn frame in a sealed segment"
	if e.corrupt {
		what = "corrupt frame (its checksum holds, its contents do not decode)"
	}
	return fmt.Sprintf("wal: segment %s has a %s %d bytes in; run fsck -repair to truncate it", e.name, what, e.off)
}

// decodeMeta reads the segment's leading meta frame: a zero established
// epoch adopts the recorded one. intact is false when the body is not
// JSON. err reports a format, sequence or epoch mismatch: the frame
// decoded fine, so truncating the segment would repair nothing.
func (w *walker) decodeMeta(body []byte) (intact bool, err error) {
	var meta metaBody
	switch {
	case json.Unmarshal(body, &meta) != nil:
		return false, nil
	case meta.Format != FormatNameV2:
		return false, fmt.Errorf("wal: segment %s has unknown format %q: only %q is read, and fsck cannot repair it", w.name, meta.Format, FormatNameV2)
	case meta.Segment != w.seq:
		return false, fmt.Errorf("wal: segment %s records sequence %d", w.name, meta.Segment)
	case w.epoch.IsZero():
		w.epoch = meta.Epoch
	case !meta.Epoch.Equal(w.epoch):
		return false, fmt.Errorf("wal: segment %s epoch %s does not match %s", w.name, meta.Epoch, w.epoch)
	}
	w.meta = true
	return true, nil
}

// decodeGap decodes a gap frame's JSON body.
func decodeGap(body []byte) (g Gap, intact bool) {
	return g, json.Unmarshal(body, &g) == nil
}

// nextFrame is the one check of the frame envelope: it validates the
// frame at the head of data and returns its kind byte, its body
// (aliasing data) and its whole length. ok is false when data does not
// start with one intact frame (short header, short payload, CRC
// mismatch, or an implausible length).
func nextFrame(data []byte) (kind byte, body []byte, n int, ok bool) {
	if len(data) < frameHeaderSize {
		return 0, nil, 0, false
	}
	size := binary.LittleEndian.Uint32(data[0:4])
	sum := binary.LittleEndian.Uint32(data[4:8])
	if size == 0 || int64(size) > int64(len(data))-frameHeaderSize {
		return 0, nil, 0, false
	}
	n = frameHeaderSize + int(size)
	payload := data[frameHeaderSize:n]
	if crc32.Checksum(payload, castagnoli) != sum {
		return 0, nil, 0, false
	}
	return payload[0], payload[1:], n, true
}

// Dir returns the WAL directory.
func (l *Log) Dir() string { return l.dir }

// Epoch returns the store epoch the log records.
func (l *Log) Epoch() time.Time { return l.opts.Epoch }

// Health returns a snapshot of the degraded-mode state machine.
func (l *Log) Health() Health {
	l.mu.Lock()
	defer l.mu.Unlock()
	h := l.health
	h.Degraded = l.degraded != nil
	if h.Degraded {
		h.Reason = l.degraded.Error()
	}
	h.AppendedRecords = int(l.appended.Load())
	l.cmu.Lock()
	h.Fsyncs = l.fsyncs
	h.UnsyncedRecords = h.AppendedRecords - int(l.synced)
	l.cmu.Unlock()
	return h
}

// Append durably logs one batch of records under tag 0 — the
// collector's batches, which query.Sink appends before it folds them.
func (l *Log) Append(recs []*honeypot.SessionRecord) error {
	return l.AppendTagged(0, recs)
}

// AppendTagged logs one batch under the given tag (the generation
// checkpoint tags batches with their shard index). The frame is written
// atomically with respect to recovery: either the whole batch replays
// or none of it does. A group commit is requested once SyncEvery
// records have accumulated since the last request; the fsync itself
// runs on the committer goroutine and this caller does not wait for it.
//
// While degraded, the batch is counted and dropped and the error wraps
// ErrDegraded; recovery probes run on the schedule Options.ProbeEvery
// describes, and a successful probe appends the triggering batch to the
// fresh segment as if nothing happened.
func (l *Log) AppendTagged(tag uint64, recs []*honeypot.SessionRecord) error {
	// Encode outside the lock into a pooled frame buffer: this is the
	// half of the pipeline that overlaps the committer's fsync.
	b := getFrameBuilder()
	defer putFrameBuilder(b)
	b.Byte(kindBatch)
	encodeBatchV2(b, tag, recs)
	frame := finishFrame(b)

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: log is closed")
	}
	// Before the write: a group commit that failed degrades the log now,
	// and this batch takes the degraded path like any other.
	//lint:ignore lock-across-blocking entering degraded mode seals the failing segment so no append interleaves; once per outage
	l.collectLocked(false)
	if l.degraded != nil {
		//lint:ignore lock-across-blocking a recovery probe seals the old segment before its successor exists (torn-tail rule); rate-limited by ProbeEvery
		if !l.tryRecoverLocked() {
			l.dropLocked(len(recs))
			return fmt.Errorf("%w (batch of %d records dropped): %w", ErrDegraded, len(recs), l.degraded)
		}
	}
	//lint:ignore lock-across-blocking entering degraded mode seals the failing segment so no append interleaves; once per outage
	if err := l.appendFrameLocked(frame); err != nil {
		l.dropLocked(len(recs))
		return err
	}
	l.health.Appends++
	l.appended.Add(int64(len(recs)))
	l.pending += len(recs)
	if l.pending >= l.opts.SyncEvery {
		select {
		case l.syncReq <- l.f:
			l.issued++
		default:
			l.health.CoalescedSyncs++
		}
		l.pending = 0
	}
	if l.size >= l.opts.SegmentBytes {
		// The frame is written and acknowledged: a failed rotation has
		// degraded the log, which the next Append/Sync/Close reports.
		//lint:ignore lock-across-blocking rotation seals a full segment before its successor exists; once per SegmentBytes
		l.rotateLocked()
	}
	return nil
}

// appendFrameLocked writes one finished frame to the current segment
// with the bounded transient-error retry. On any failure the partially
// written bytes are truncated away first, so the segment stays
// frame-aligned whether the next step is a retry or degraded mode.
func (l *Log) appendFrameLocked(frame []byte) error {
	var werr error
	for attempt := 0; attempt < l.opts.RetryAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(l.opts.RetryPlan.Backoff(0, attempt-1))
		}
		n, err := l.f.Write(frame)
		if err == nil && n == len(frame) {
			l.size += int64(len(frame))
			return nil
		}
		if err == nil {
			err = io.ErrShortWrite
		}
		werr = err
		if n > 0 {
			if rerr := l.rollbackTailLocked(); rerr != nil {
				// The segment may hold a partial frame we cannot remove;
				// degrade now — the recovery probe re-seals by truncating
				// through a fresh handle.
				l.enterDegradedLocked("append rollback", rerr, false)
				return l.degradedErrLocked()
			}
		}
		if !iofault.Transient(err) {
			break
		}
	}
	l.enterDegradedLocked("append", werr, false)
	return l.degradedErrLocked()
}

// rollbackTailLocked restores the current segment to its last
// frame-aligned size after a failed or short write, repositioning the
// handle for the next append.
func (l *Log) rollbackTailLocked() error {
	if err := l.f.Truncate(l.size); err != nil {
		return err
	}
	_, err := l.f.Seek(l.size, io.SeekStart)
	return err
}

// dropLocked counts one dropped batch.
func (l *Log) dropLocked(records int) {
	l.health.DroppedBatches++
	l.health.DroppedRecords += records
	l.outageB++
	l.outageR += records
}

// errnoClass folds an error onto a short, deterministic label for gap
// frames — no paths, no timestamps, so identically seeded runs write
// byte-identical segments.
func errnoClass(err error) string {
	switch {
	case errors.Is(err, syscall.ENOSPC):
		return "enospc"
	case errors.Is(err, syscall.EIO):
		return "eio"
	case errors.Is(err, io.ErrShortWrite):
		return "short write"
	default:
		return "io failure"
	}
}

// enterDegradedLocked opens an outage: records the cause, and seals the
// current segment best-effort at its frame-aligned size (waiting out the
// committer first) so readers that see a successor later never find a
// torn middle segment. sealed tells the state machine the
// segment is already sealed (rotation paths close it before failing).
// Re-entry while already degraded updates nothing — the first cause
// wins.
func (l *Log) enterDegradedLocked(stage string, cause error, sealed bool) {
	if l.degraded != nil {
		return
	}
	l.degraded = fmt.Errorf("wal: %s: %w", stage, cause)
	l.reason = stage + ": " + errnoClass(cause)
	l.health.Outages++
	l.sinceProbe = 0
	l.outageB, l.outageR = 0, 0
	// The committer may still hold the handle; wait it out before
	// touching the file. The first cause wins (recorded above), so a
	// failure it reports now re-enters here and changes nothing.
	l.collectLocked(true)
	l.oldSealed = sealed
	if l.f == nil {
		return
	}
	if !sealed {
		if l.rollbackTailLocked() == nil && l.f.Sync() == nil {
			l.oldSealed = true
		}
	}
	// Close whether or not the seal landed: degraded mode never writes
	// through this handle again, and the probe re-seals via a fresh one
	// (a failed close after a clean sync cannot un-sync the data).
	if err := l.f.Close(); err != nil {
		// Abandoned handle; see above.
	}
	l.f = nil
}

// degradedErrLocked is the error every refused operation returns while
// degraded: the ErrDegraded sentinel wrapping the original cause.
func (l *Log) degradedErrLocked() error {
	return fmt.Errorf("%w: %w", ErrDegraded, l.degraded)
}

// tryRecoverLocked runs the degraded-mode probe schedule: the first
// dropped append probes immediately, then every ProbeEvery-th. Reports
// whether the log recovered and is ready to append.
func (l *Log) tryRecoverLocked() bool {
	probe := l.sinceProbe == 0
	l.sinceProbe = (l.sinceProbe + 1) % l.opts.ProbeEvery
	if !probe {
		return false
	}
	return l.probeLocked() == nil
}

// probeLocked attempts recovery from degraded mode: finish sealing the
// pre-outage segment if needed, roll a fresh successor, and open it
// with a meta frame followed by a gap frame recording the outage. Any
// failure leaves the log degraded with segment numbering contiguous —
// a half-created successor is removed (or, failing that, removed by
// the next probe before its O_EXCL create).
func (l *Log) probeLocked() error {
	if !l.oldSealed {
		if err := l.sealOldLocked(); err != nil {
			return err
		}
	}
	seq := l.seq + 1
	path := filepath.Join(l.dir, segmentName(seq))
	f, err := l.fs.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if errors.Is(err, iofs.ErrExist) {
		// Leftover from an earlier probe that died between create and
		// meta; clear it so the numbering stays contiguous.
		if rerr := l.fs.Remove(path); rerr != nil {
			return rerr
		}
		f, err = l.fs.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	}
	if err != nil {
		return err
	}
	prevSeq, prevSize := l.seq, l.size
	l.f, l.seq, l.size = f, seq, 0
	gap := Gap{Reason: l.reason, Batches: l.outageB, Records: l.outageR}
	werr := l.writeMetaLocked()
	if werr == nil {
		werr = l.writeGapLocked(gap)
	}
	return l.finishProbeLocked(werr, path, prevSeq, prevSize)
}

// finishProbeLocked commits or rolls back the probe's fresh segment.
func (l *Log) finishProbeLocked(err error, path string, prevSeq uint64, prevSize int64) error {
	if err != nil {
		l.f.Close()
		if rerr := l.fs.Remove(path); rerr != nil {
			// Leftover half-created successor; the next probe clears it
			// via the O_EXCL+Remove path before re-creating.
		}
		l.f, l.seq, l.size = nil, prevSeq, prevSize
		return err
	}
	l.degraded = nil
	l.reason = ""
	l.health.Recoveries++
	l.outageB, l.outageR = 0, 0
	l.oldSealed = false
	l.pending = 0
	return nil
}

// sealOldLocked finishes sealing the pre-outage segment through a fresh
// handle: truncate to the frame-aligned size, fsync, close. Only then
// may a successor exist (the torn-tail rule).
func (l *Log) sealOldLocked() error {
	f, err := l.fs.OpenFile(filepath.Join(l.dir, segmentName(l.seq)), os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	serr := f.Truncate(l.size)
	if serr == nil {
		serr = f.Sync()
	}
	if cerr := f.Close(); serr == nil {
		serr = cerr
	}
	if serr != nil {
		return serr
	}
	l.oldSealed = true
	return nil
}

// writeGapLocked appends and fsyncs one gap frame.
func (l *Log) writeGapLocked(g Gap) error {
	body, err := json.Marshal(g)
	if err != nil {
		return fmt.Errorf("wal: encoding gap: %w", err)
	}
	b := getFrameBuilder()
	defer putFrameBuilder(b)
	b.Byte(kindGap)
	b.Raw(body)
	frame := finishFrame(b)
	if _, err := l.f.Write(frame); err != nil {
		return fmt.Errorf("wal: writing gap frame: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: syncing gap frame: %w", err)
	}
	l.size += int64(len(frame))
	return nil
}

// committer is the group-commit goroutine: it performs every
// asynchronous fsync and publishes the verdict, so appenders never wait
// for the disk. It is driven purely by the count-based requests — there
// is no timer anywhere in the commit path.
func (l *Log) committer() {
	defer close(l.committerDone)
	for f := range l.syncReq {
		covered := l.appended.Load()
		err := f.Sync()
		l.cmu.Lock()
		l.finished++
		if err == nil {
			l.fsyncs++
			l.synced = covered
		} else if l.commitErr == nil {
			l.commitErr = err
		}
		l.cmu.Unlock()
		l.cond.Broadcast()
	}
}

// collectLocked takes the committer's verdict and degrades the log if a
// group commit failed — retrying an fsync that already failed gives no
// durability guarantee back. As a barrier it first waits until every
// issued fsync, the in-flight one and the queued one, has finished:
// every path that closes, rotates, or syncs the current segment file
// does, so the committer never touches a file descriptor that has been
// handed off or closed.
func (l *Log) collectLocked(barrier bool) {
	l.cmu.Lock()
	for barrier && l.finished != l.issued {
		l.cond.Wait()
	}
	err := l.commitErr
	l.commitErr = nil
	l.cmu.Unlock()
	if err != nil {
		l.enterDegradedLocked("group commit fsync", err, false)
	}
}

// barrierSyncLocked fsyncs the current segment on the caller's
// goroutine; the caller collected as a barrier, so the committer is
// idle and everything appended is covered.
func (l *Log) barrierSyncLocked() error {
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.cmu.Lock()
	l.fsyncs++
	l.synced = l.appended.Load()
	l.cmu.Unlock()
	return nil
}

// pendingRecords returns the records appended since the last group
// commit was requested — the group-commit policy's observable state
// (used by tests).
func (l *Log) pendingRecords() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pending
}

// Sync forces a synchronous fsync of the current segment regardless of
// the group-commit counter, after the in-flight and queued groups.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: log is closed")
	}
	//lint:ignore lock-across-blocking entering degraded mode seals the failing segment so no append interleaves; once per outage
	l.collectLocked(true)
	if l.degraded != nil {
		return l.degradedErrLocked()
	}
	//lint:ignore lock-across-blocking Sync promises durability to its caller: one fsync after the committer's, under l.mu; appends never reach it
	if err := l.barrierSyncLocked(); err != nil {
		//lint:ignore lock-across-blocking entering degraded mode seals the failing segment so no append interleaves; once per outage
		l.enterDegradedLocked("sync", err, false)
		return l.degradedErrLocked()
	}
	l.pending = 0
	return nil
}

// Close syncs and closes the log, stopping the committer goroutine.
// The directory remains valid for a later Open. A degraded log reports
// its outage cause, matching Append and Sync.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	//lint:ignore lock-across-blocking entering degraded mode seals the failing segment so no append interleaves; once per outage
	l.collectLocked(true)
	close(l.syncReq)
	<-l.committerDone
	if l.degraded != nil {
		if l.f != nil {
			l.f.Close()
			l.f = nil
		}
		return l.degradedErrLocked()
	}
	//lint:ignore lock-across-blocking Close promises durability to its caller: one fsync after the committer's, under l.mu
	if err := l.barrierSyncLocked(); err != nil {
		l.f.Close()
		l.f = nil
		return fmt.Errorf("wal: sync on close: %w", err)
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// rotateLocked seals the current segment (fsync + close) and opens the
// next one. Sealing before the successor exists is what confines torn
// tails to the final segment; the in-flight and queued group commits
// finish first, which is also what bounds the un-durable tail: with the
// disk stalled, appends stop here. Any failure degrades the log.
func (l *Log) rotateLocked() {
	l.collectLocked(true)
	if l.degraded != nil {
		return
	}
	if err := l.barrierSyncLocked(); err != nil {
		l.enterDegradedLocked("sync before rotation", err, false)
		return
	}
	if err := l.f.Close(); err != nil {
		// The data is durable (the sync above landed); only the handle is
		// in doubt. Degrade with the segment considered sealed.
		l.f = nil
		l.enterDegradedLocked("closing segment", err, true)
		return
	}
	l.pending = 0
	if err := l.rollLocked(l.seq + 1); err != nil {
		// rollLocked cleaned up after itself: l.f is nil and
		// seq/size/format point at the sealed predecessor. Record the
		// failure and let the probe schedule roll the successor.
		l.enterDegradedLocked("rotation", err, true)
	}
}

// rollLocked opens segment seq for appending and writes its meta frame.
// New segments always use the configured codec. Creation retries
// transient errors on the append path's backoff policy. On failure the
// partial segment file is removed and the log's position restored, so
// segment numbering stays contiguous.
func (l *Log) rollLocked(seq uint64) error {
	path := filepath.Join(l.dir, segmentName(seq))
	var f iofault.File
	var err error
	for attempt := 0; attempt < l.opts.RetryAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(l.opts.RetryPlan.Backoff(0, attempt-1))
		}
		f, err = l.fs.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		if err == nil || !iofault.Transient(err) {
			break
		}
	}
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	prevSeq, prevSize := l.seq, l.size
	l.f, l.seq, l.size = f, seq, 0
	if err := l.writeMetaLocked(); err != nil {
		f.Close()
		if rerr := l.fs.Remove(path); rerr != nil {
			// Leftover half-created segment; a later probe clears it
			// before re-creating.
		}
		l.f, l.seq, l.size = nil, prevSeq, prevSize
		return err
	}
	return nil
}

// writeMetaLocked writes (and syncs) the current segment's meta frame.
func (l *Log) writeMetaLocked() error {
	body, err := json.Marshal(metaBody{Format: FormatNameV2, Segment: l.seq, Epoch: l.opts.Epoch})
	if err != nil {
		return fmt.Errorf("wal: encoding meta: %w", err)
	}
	b := getFrameBuilder()
	defer putFrameBuilder(b)
	b.Byte(kindMeta)
	b.Raw(body)
	frame := finishFrame(b)
	if _, err := l.f.Write(frame); err != nil {
		return fmt.Errorf("wal: writing meta frame: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: syncing meta frame: %w", err)
	}
	l.size += int64(len(frame))
	return nil
}
