package query

// The serving layer: a stdlib net/http JSON API over an Engine's
// snapshots. Every data endpoint is a pure function of one immutable
// snapshot, which buys the whole caching story:
//
//   - responses carry an ETag derived from the snapshot sequence and
//     the request key, so If-None-Match revalidation costs nothing
//     between seals (a 304 with no body);
//   - response bodies are cached per (sequence, key) and rendered at
//     most once — concurrent identical requests coalesce on a
//     sync.Once instead of re-encoding the same snapshot N times;
//   - a semaphore bounds in-flight rendering; waiting requests honor
//     client cancellation.
//
// The handler never blocks ingest and ingest never blocks the handler:
// both sides only touch the atomically published snapshot pointer.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"honeyfarm/internal/analysis"
	"honeyfarm/internal/metrics"
	"honeyfarm/internal/wal"
)

// Source supplies the snapshots a Server renders: the local Engine for
// a single-node farm, or the distributed merge coordinator
// (internal/shard) for a multi-node one. Snapshot must never return
// nil and must never block; Seq may run ahead of the published
// snapshot's sequence.
type Source interface {
	Snapshot() *Snapshot
	Seq() uint64
	Epoch() time.Time
}

// ShardStatus is one collector shard's health as the merge coordinator
// sees it, surfaced through /v1/healthz on a merge node. LastSeq and
// LastOKUnix are the staleness accounting: how far into the shard's
// stream the merged snapshot reaches, and when the shard last answered
// a pull.
type ShardStatus struct {
	ID  int    `json:"id"`
	URL string `json:"url"`
	// Up reports the shard is answering pulls; a down shard's last
	// installed partial keeps serving (stale) until it recovers.
	Up      bool   `json:"up"`
	LastSeq uint64 `json:"last_seq"`
	// LastOKUnix is the wall-clock second of the last successful pull
	// (0 when the coordinator runs without a clock, as tests do).
	LastOKUnix int64 `json:"last_ok_unix,omitempty"`
	// Failures counts consecutive failed pulls/probes since the last
	// success.
	Failures int    `json:"failures,omitempty"`
	LastErr  string `json:"last_err,omitempty"`
}

// ServerConfig parameterizes NewServer.
type ServerConfig struct {
	// Source supplies snapshots. Required.
	Source Source
	// Follower, when the engine is fed by a WAL tail, surfaces its
	// position and terminal error in /v1/healthz. Optional.
	Follower *Follower
	// WALHealth, when the serving process also owns the WAL writer,
	// supplies its degraded-mode snapshot for /v1/healthz: a degraded
	// writer turns the status to "degraded:wal" (HTTP 503) and its
	// count-and-drop losses appear as wal_dropped_records. Optional.
	WALHealth func() wal.Health
	// Shards, when the serving process is a merge coordinator, supplies
	// the fleet's per-shard health for /v1/healthz: any down shard turns
	// the status to "degraded:shard" (HTTP 503) while the merged
	// snapshot keeps serving from healthy shards plus the down shard's
	// last installed state. Optional.
	Shards func() []ShardStatus
	// MaxInflight bounds concurrently rendered responses (default 64).
	MaxInflight int
}

// Server renders a Source's snapshots over HTTP.
type Server struct {
	source    Source
	follower  *Follower
	walHealth func() wal.Health
	shards    func() []ShardStatus
	sem       chan struct{}

	// Serve-layer counters, exported through /metrics via
	// RegisterServeMetrics. Always allocated (zero Counters are live),
	// so the hot path never nil-checks.
	cacheHits   metrics.Counter // body served from the render cache
	renders     metrics.Counter // bodies rendered (cache misses)
	coalesced   metrics.Counter // requests that waited on another's render
	notModified metrics.Counter // 304 revalidations
	rejected    metrics.Counter // 503s from the bounded in-flight semaphore

	mu       sync.Mutex
	cacheSeq uint64
	cache    map[string]*cacheEntry
}

// cacheEntry is one (sequence, key) response: cache and singleflight in
// one — whoever arrives first renders, everyone else waits on the Once.
type cacheEntry struct {
	snap *Snapshot
	once sync.Once
	body []byte
	err  error
	done atomic.Bool // set after the Once ran: distinguishes hit from coalesce
}

// NewServer creates a server over the snapshot source.
func NewServer(cfg ServerConfig) *Server {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 64
	}
	return &Server{
		source:    cfg.Source,
		follower:  cfg.Follower,
		walHealth: cfg.WALHealth,
		shards:    cfg.Shards,
		sem:       make(chan struct{}, cfg.MaxInflight),
		cache:     make(map[string]*cacheEntry),
	}
}

// Handler returns the API mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/summary", func(w http.ResponseWriter, r *http.Request) {
		s.serveSnapshot(w, r, "summary", func(snap *Snapshot) any {
			return summaryResponse{
				Seq: snap.Seq, Days: snap.Days,
				Epoch:    s.source.Epoch().Format(time.RFC3339),
				Sessions: snap.Summary.Total,
				Clients:  snap.ClientCount,
				Hashes:   snap.HashCount,
				Summary:  snap.Summary,
			}
		})
	})
	mux.HandleFunc("/v1/pots", func(w http.ResponseWriter, r *http.Request) {
		s.serveSnapshot(w, r, "pots", func(snap *Snapshot) any {
			return potsResponse{Seq: snap.Seq, Pots: snap.Pots}
		})
	})
	mux.HandleFunc("/v1/clients", func(w http.ResponseWriter, r *http.Request) {
		limit, err := limitParam(r, ClientRows)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		s.serveSnapshot(w, r, fmt.Sprintf("clients?limit=%d", limit), func(snap *Snapshot) any {
			rows := snap.Clients[:min(limit, len(snap.Clients))]
			return clientsResponse{Seq: snap.Seq, Total: snap.ClientCount, Clients: rows}
		})
	})
	mux.HandleFunc("/v1/countries", func(w http.ResponseWriter, r *http.Request) {
		s.serveSnapshot(w, r, "countries", func(snap *Snapshot) any {
			return countriesResponse{Seq: snap.Seq, Countries: snap.Countries}
		})
	})
	mux.HandleFunc("/v1/availability", func(w http.ResponseWriter, r *http.Request) {
		s.serveSnapshot(w, r, "availability", func(snap *Snapshot) any {
			return availabilityResponse{
				Seq: snap.Seq, Days: snap.Days,
				TotalDropped: analysis.TotalDropped(snap.Availability),
				Availability: snap.Availability,
			}
		})
	})
	mux.HandleFunc("/v1/healthz", s.serveHealthz)
	return mux
}

// Response envelopes. The aggregate rows themselves serialize as their
// analysis types — the exact encoding the equivalence property pins.
type summaryResponse struct {
	Seq      uint64                  `json:"seq"`
	Days     int                     `json:"days"`
	Epoch    string                  `json:"epoch"`
	Sessions int                     `json:"sessions"`
	Clients  int                     `json:"clients"`
	Hashes   int                     `json:"hashes"`
	Summary  analysis.CategoryShares `json:"summary"`
}

type potsResponse struct {
	Seq  uint64                 `json:"seq"`
	Pots []analysis.PerHoneypot `json:"pots"`
}

type clientsResponse struct {
	Seq     uint64                `json:"seq"`
	Total   int                   `json:"total"`
	Clients []analysis.ClientStat `json:"clients"`
}

type countriesResponse struct {
	Seq       uint64                  `json:"seq"`
	Countries []analysis.CountryCount `json:"countries"`
}

type availabilityResponse struct {
	Seq          uint64                     `json:"seq"`
	Days         int                        `json:"days"`
	TotalDropped int                        `json:"total_dropped"`
	Availability []analysis.PotAvailability `json:"availability"`
}

type healthzResponse struct {
	Status      string `json:"status"`
	IngestedSeq uint64 `json:"ingested_seq"`
	SnapshotSeq uint64 `json:"snapshot_seq"`
	Days        int    `json:"days"`
	WALSegment  uint64 `json:"wal_segment,omitempty"`
	WALOffset   int64  `json:"wal_offset,omitempty"`
	// WALDroppedRecords and WALDropReason carry the WAL's count-and-drop
	// loss accounting: records the writer refused while degraded, from
	// the writer's Health snapshot (WALHealth) or the gap frames the
	// follower's tail has crossed. Both omitted when nothing was lost,
	// keeping healthy responses byte-stable.
	WALDroppedRecords int    `json:"wal_dropped_records,omitempty"`
	WALDropReason     string `json:"wal_drop_reason,omitempty"`
	// Shards is the merge coordinator's per-shard staleness table; only
	// present on merge nodes.
	Shards []ShardStatus `json:"shards,omitempty"`
	Error  string        `json:"error,omitempty"`
}

// limitParam parses ?limit= clamped to [0, max]; absent selects max.
func limitParam(r *http.Request, max int) (int, error) {
	raw := r.URL.Query().Get("limit")
	if raw == "" {
		return max, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("invalid limit %q", raw)
	}
	if n > max {
		n = max
	}
	return n, nil
}

// serveSnapshot renders one cacheable snapshot view: bounded
// concurrency, ETag revalidation, per-(sequence,key) render coalescing.
func (s *Server) serveSnapshot(w http.ResponseWriter, r *http.Request, key string, build func(*Snapshot) any) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-r.Context().Done():
		// The request left the queue without a render slot: the server
		// was saturated longer than the client was willing to wait. This
		// used to be a silent bare error; surface it as an overload
		// rejection — counted, and with Retry-After so a well-behaved
		// client backs off before re-dialing.
		s.rejected.Inc()
		w.Header().Set("Retry-After", "1")
		http.Error(w, "overloaded: no render slot within the request deadline", http.StatusServiceUnavailable)
		return
	}
	entry, created := s.entry(s.source.Snapshot(), key)
	etag := fmt.Sprintf("\"q%d-%s\"", entry.snap.Seq, key)
	w.Header().Set("Cache-Control", "no-cache")
	if etagMatches(r.Header.Get("If-None-Match"), etag) {
		s.notModified.Inc()
		w.Header().Set("ETag", etag)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	switch {
	case created:
		s.renders.Inc()
	case entry.done.Load():
		s.cacheHits.Inc()
	default:
		s.coalesced.Inc()
	}
	entry.once.Do(func() {
		entry.body, entry.err = json.Marshal(build(entry.snap))
		if entry.err == nil {
			entry.body = append(entry.body, '\n')
		}
		entry.done.Store(true)
	})
	if entry.err != nil {
		http.Error(w, "encoding failed", http.StatusInternalServerError)
		return
	}
	w.Header().Set("ETag", etag)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(entry.body)))
	if r.Method == http.MethodHead {
		return
	}
	if _, err := w.Write(entry.body); err != nil {
		return // client went away mid-write; nothing to recover
	}
}

// entry returns the render cache slot for (snap.Seq, key), pinning the
// snapshot the first requester saw. The cache is cleared whenever a
// newer sequence shows up, so it holds at most one generation (plus
// stragglers already in flight).
func (s *Server) entry(snap *Snapshot, key string) (e *cacheEntry, created bool) {
	full := fmt.Sprintf("%d|%s", snap.Seq, key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if snap.Seq > s.cacheSeq {
		s.cache = make(map[string]*cacheEntry)
		s.cacheSeq = snap.Seq
	}
	e = s.cache[full]
	if e == nil {
		e = &cacheEntry{snap: snap}
		s.cache[full] = e
		created = true
	}
	return e, created
}

// ServeMetrics is a consistent-enough snapshot of the serve-layer
// counters (each field is individually atomic).
type ServeMetrics struct {
	CacheHits   uint64
	Renders     uint64
	Coalesced   uint64
	NotModified uint64
	Rejected    uint64
}

// Metrics returns the current serve-layer counter values.
func (s *Server) Metrics() ServeMetrics {
	return ServeMetrics{
		CacheHits:   s.cacheHits.Value(),
		Renders:     s.renders.Value(),
		Coalesced:   s.coalesced.Value(),
		NotModified: s.notModified.Value(),
		Rejected:    s.rejected.Value(),
	}
}

// etagMatches implements If-None-Match: a comma-separated candidate
// list or "*". Weak validators compare by their opaque tail.
func etagMatches(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, cand := range strings.Split(header, ",") {
		cand = strings.TrimSpace(cand)
		cand = strings.TrimPrefix(cand, "W/")
		if cand == "*" || cand == etag {
			return true
		}
	}
	return false
}

// serveHealthz reports liveness: never cached, never gated on the
// render semaphore, and degraded (HTTP 503) once the follower hit a
// terminal error.
func (s *Server) serveHealthz(w http.ResponseWriter, r *http.Request) {
	snap := s.source.Snapshot()
	resp := healthzResponse{
		Status:      "ok",
		IngestedSeq: s.source.Seq(),
		SnapshotSeq: snap.Seq,
		Days:        snap.Days,
	}
	if s.follower != nil {
		resp.WALSegment, resp.WALOffset = s.follower.Position()
		// Gap frames are the degraded writer's outage records; the last
		// one's reason labels the losses.
		for _, g := range s.follower.WALGaps() {
			resp.WALDroppedRecords += g.Records
			resp.WALDropReason = g.Reason
		}
		if err := s.follower.Err(); err != nil {
			resp.Status = "degraded"
			resp.Error = err.Error()
		}
	}
	if s.walHealth != nil {
		// The in-process writer's view is authoritative: it sees drops the
		// tail has not crossed yet (an open outage has no gap frame until
		// recovery writes one).
		h := s.walHealth()
		if h.DroppedRecords > 0 {
			resp.WALDroppedRecords = h.DroppedRecords
		}
		if h.Degraded {
			resp.Status = "degraded:wal"
			resp.WALDropReason = h.Reason
		}
	}
	if s.shards != nil {
		resp.Shards = s.shards()
		// A down shard degrades the node but does not stop it: the merged
		// snapshot keeps serving healthy shards plus the down shard's last
		// installed partial.
		for _, sh := range resp.Shards {
			if !sh.Up {
				resp.Status = "degraded:shard"
				break
			}
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if resp.Status != "ok" {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	body, err := json.Marshal(resp)
	if err != nil {
		http.Error(w, "encoding failed", http.StatusInternalServerError)
		return
	}
	if _, err := w.Write(append(body, '\n')); err != nil {
		return // client went away mid-write; nothing to recover
	}
}
