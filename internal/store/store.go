// Package store implements the honeyfarm's central collector database:
// a concurrency-safe, append-only, in-memory store of session records
// with day-bucketed time indexing. The paper's honeyfarm shipped every
// session summary from 221 honeypots to one collector and analyzed the
// data "in situ"; this package is that collector. On disk a dataset is a
// record log (internal/wal), which the root package's
// (*Dataset).SaveWAL writes and LoadDatasetFile reads.
package store

import (
	"sync"
	"time"

	"honeyfarm/internal/honeypot"
)

// Store collects session records. The zero value is not usable; create
// with New. All methods are safe for concurrent use.
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
