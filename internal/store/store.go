// Package store implements the honeyfarm's central collector database:
// a concurrency-safe, append-only store of session records with a JSONL
// on-disk codec and day-bucketed time indexing. The paper's honeyfarm
// shipped every session summary from 221 honeypots to one collector and
// analyzed the data "in situ"; this package is that collector.
package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"honeyfarm/internal/honeypot"
)

// Store collects session records. The zero value is not usable; create
// with New or Builder.Seal. All methods are safe for concurrent use.
type Store struct {
	mu    sync.RWMutex
	recs  []*honeypot.SessionRecord
	epoch time.Time
	// Day-index cache: maxDay is the highest day bucket among
	// recs[:scanned]. NumDays folds the unscanned tail in lazily, so
	// repeated calls never rescan records that were already indexed.
	scanned int
	maxDay  int
}

// New creates a store whose day buckets are counted from epoch (the
// observation period's first day, e.g. the paper's 2021-12-01).
func New(epoch time.Time) *Store {
	return &Store{epoch: NormalizeEpoch(epoch), maxDay: -1}
}

// NormalizeEpoch aligns the epoch to its own zone's midnight and
// converts the result to UTC so the serialized form is canonical.
// Truncate(24h) is NOT equivalent: it operates on absolute time and
// lands on UTC midnights, so a non-UTC epoch was silently shifted off
// that zone's midnight — moving every day-bucket boundary by the zone
// offset. Exported so stores, WAL metadata and the incremental query
// engine all bucket days from the identical instant.
func NormalizeEpoch(epoch time.Time) time.Time {
	y, m, d := epoch.Date()
	return time.Date(y, m, d, 0, 0, 0, 0, epoch.Location()).UTC()
}

// DayOf returns the day bucket of t relative to a NormalizeEpoch'd
// epoch, flooring pre-epoch timestamps to negative days. Store.Day and
// the query engine share this one definition.
func DayOf(epoch, t time.Time) int {
	d := t.Sub(epoch)
	day := int(d / (24 * time.Hour))
	if d < 0 && d%(24*time.Hour) != 0 {
		day-- // floor division for pre-epoch timestamps
	}
	return day
}

// Epoch returns the observation period start.
func (s *Store) Epoch() time.Time { return s.epoch }

// Add appends one record.
func (s *Store) Add(rec *honeypot.SessionRecord) {
	s.mu.Lock()
	s.recs = append(s.recs, rec)
	s.mu.Unlock()
}

// AddBatch appends many records with one lock acquisition.
func (s *Store) AddBatch(recs []*honeypot.SessionRecord) {
	s.mu.Lock()
	s.recs = append(s.recs, recs...)
	s.mu.Unlock()
}

// Len returns the number of stored records.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.recs)
}

// Records returns a snapshot slice of all records. The slice is shared;
// callers must not mutate the records.
func (s *Store) Records() []*honeypot.SessionRecord {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.recs[:len(s.recs):len(s.recs)]
}

// Day returns the day bucket of a timestamp relative to the epoch.
// Timestamps before the epoch yield negative days.
func (s *Store) Day(t time.Time) int { return DayOf(s.epoch, t) }

// NumDays returns one past the highest day bucket present. Only records
// appended since the previous call are scanned; the running maximum is
// cached, so the aggregate cost over a store's lifetime is one pass.
func (s *Store) NumDays() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.recs[s.scanned:] {
		if d := s.Day(r.Start); d > s.maxDay {
			s.maxDay = d
		}
	}
	s.scanned = len(s.recs)
	return s.maxDay + 1
}

// Builder assembles a Store from per-shard buffers filled concurrently.
// Each shard index is owned by exactly one writer at a time, so shard
// fills need no locking; Seal concatenates the shards in index order,
// making the final record order a pure function of the shard contents —
// independent of how many goroutines filled them or in what order they
// finished. This is the collector-side half of the deterministic
// parallel generation pipeline.
type Builder struct {
	epoch  time.Time
	shards [][]*honeypot.SessionRecord
}

// NewBuilder creates a builder with the given shard count. The epoch is
// normalized exactly as New does.
func NewBuilder(epoch time.Time, shards int) *Builder {
	return &Builder{
		epoch:  NormalizeEpoch(epoch),
		shards: make([][]*honeypot.SessionRecord, shards),
	}
}

// Shards returns the builder's shard count.
func (b *Builder) Shards() int { return len(b.shards) }

// SetShard installs shard i's records. Safe for concurrent use across
// distinct shard indexes; the caller must ensure a single writer per
// index.
func (b *Builder) SetShard(i int, recs []*honeypot.SessionRecord) {
	b.shards[i] = recs
}

// Seal merges the shards in index order into a Store and pre-computes
// its day index. The builder must not be reused after Seal.
func (b *Builder) Seal() *Store {
	total := 0
	for _, sh := range b.shards {
		total += len(sh)
	}
	recs := make([]*honeypot.SessionRecord, 0, total)
	for _, sh := range b.shards {
		recs = append(recs, sh...)
	}
	s := &Store{epoch: b.epoch, recs: recs, maxDay: -1}
	for _, r := range recs {
		if d := s.Day(r.Start); d > s.maxDay {
			s.maxDay = d
		}
	}
	s.scanned = len(recs)
	b.shards = nil
	return s
}

// jsonlHeader is the first line of a JSONL dump, carrying store metadata.
type jsonlHeader struct {
	Format string    `json:"format"`
	Epoch  time.Time `json:"epoch"`
	Count  int       `json:"count"`
}

const formatName = "honeyfarm-sessions-v1"

// WriteJSONL streams the store as JSON Lines: a header line followed by
// one record per line.
func (s *Store) WriteJSONL(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	bw := bufio.NewWriterSize(w, 1<<20)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(jsonlHeader{Format: formatName, Epoch: s.epoch, Count: len(s.recs)}); err != nil {
		return fmt.Errorf("store: writing header: %w", err)
	}
	for i, r := range s.recs {
		if err := enc.Encode(r); err != nil {
			return fmt.Errorf("store: writing record %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadJSONLOptions tunes ReadJSONLWith. The zero value is the strict
// contract ReadJSONL enforces.
type ReadJSONLOptions struct {
	// AllowTornTail tolerates the crash artifact of an interrupted
	// writer: a malformed final line is discarded and fewer records than
	// the header promised are accepted, with both reported in the
	// TruncationReport. Corruption anywhere else still errors.
	AllowTornTail bool
}

// TruncationReport describes what tolerant JSONL reading recovered and
// what it had to discard.
type TruncationReport struct {
	// Records is the number of records recovered; HeaderCount is what
	// the header promised.
	Records     int
	HeaderCount int
	// Torn reports that a malformed final line was discarded; TornBytes
	// is its length.
	Torn      bool
	TornBytes int
	// Truncated reports that fewer records were recovered than the
	// header promised (a torn line, or whole lines lost at a newline
	// boundary).
	Truncated bool
}

// ReadJSONL loads a store previously written by WriteJSONL. The header
// count is validated unconditionally against the records actually
// decoded, so a truncated stream or a corrupted header — including one
// claiming zero records when records follow — is always an error.
func ReadJSONL(r io.Reader) (*Store, error) {
	s, _, err := ReadJSONLWith(r, ReadJSONLOptions{})
	return s, err
}

// ReadJSONLWith is ReadJSONL with an options struct: the strict default
// behaves exactly like ReadJSONL, while AllowTornTail recovers the
// intact prefix of a crash-truncated dump and reports the damage.
func ReadJSONLWith(r io.Reader, opts ReadJSONLOptions) (*Store, TruncationReport, error) {
	var rep TruncationReport
	br := bufio.NewReaderSize(r, 1<<20)
	hdrLine, err := readLine(br)
	if err != nil && len(hdrLine) == 0 {
		return nil, rep, fmt.Errorf("store: reading header: %w", err)
	}
	var hdr jsonlHeader
	if err := json.Unmarshal(hdrLine, &hdr); err != nil {
		return nil, rep, fmt.Errorf("store: reading header: %w", err)
	}
	if hdr.Format != formatName {
		return nil, rep, fmt.Errorf("store: unknown format %q", hdr.Format)
	}
	if hdr.Count < 0 {
		return nil, rep, fmt.Errorf("store: header promises negative record count %d", hdr.Count)
	}
	rep.HeaderCount = hdr.Count
	s := New(hdr.Epoch)
	// Cap the pre-allocation: a corrupted count must not translate into
	// an attacker-sized allocation before the mismatch is detected.
	capHint := hdr.Count
	if capHint > 1<<20 {
		capHint = 1 << 20
	}
	s.recs = make([]*honeypot.SessionRecord, 0, capHint)
	for {
		line, err := readLine(br)
		if len(line) > 0 {
			rec := new(honeypot.SessionRecord)
			if uerr := json.Unmarshal(line, rec); uerr != nil {
				// A malformed line with nothing after it is the torn tail
				// of an interrupted write; anything earlier is corruption.
				last := err == io.EOF || atEOF(br)
				if opts.AllowTornTail && last {
					rep.Torn = true
					rep.TornBytes = len(line)
					break
				}
				return nil, rep, fmt.Errorf("store: reading record %d: %w", len(s.recs), uerr)
			}
			s.recs = append(s.recs, rec)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, rep, fmt.Errorf("store: reading record %d: %w", len(s.recs), err)
		}
	}
	rep.Records = len(s.recs)
	rep.Truncated = len(s.recs) < hdr.Count
	if len(s.recs) > hdr.Count || (rep.Truncated && !opts.AllowTornTail) {
		return nil, rep, fmt.Errorf("store: header promised %d records, found %d", hdr.Count, len(s.recs))
	}
	return s, rep, nil
}

// readLine reads one newline-terminated line, returning it without the
// terminator. At EOF the final unterminated line (if any) is returned
// alongside io.EOF.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadBytes('\n')
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	if err == nil && len(line) == 0 {
		return nil, nil
	}
	return line, err
}

// atEOF reports whether the reader has no further bytes.
func atEOF(br *bufio.Reader) bool {
	_, err := br.Peek(1)
	return err == io.EOF
}
