package query_test

import (
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"honeyfarm"
	"honeyfarm/internal/honeypot"
	"honeyfarm/internal/iofault"
	"honeyfarm/internal/query"
	"honeyfarm/internal/wal"
)

var updateGolden = flag.Bool("update", false, "rewrite the endpoint golden files")

// testServer builds a server over a small fixed dataset; every response
// body is a pure function of the seed, so the goldens are stable.
func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	const numPots = 4
	d, err := honeyfarm.Simulate(honeyfarm.SimulateConfig{
		Seed: 21, TotalSessions: 80, Days: 6, NumPots: numPots,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := query.New(query.Config{
		Epoch: honeyfarm.DefaultEpoch, NumPots: numPots,
		Registry: d.Registry,
	})
	eng.Ingest(d.Store.Records())
	eng.Seal()
	srv := httptest.NewServer(query.NewServer(query.ServerConfig{Source: eng}).Handler())
	t.Cleanup(srv.Close)
	return srv
}

func get(t *testing.T, srv *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestEndpointGoldens pins the JSON shape of every /v1 endpoint. Run
// with -update after an intentional API change.
func TestEndpointGoldens(t *testing.T) {
	srv := testServer(t)
	cases := []struct{ name, path string }{
		{"summary", "/v1/summary"},
		{"pots", "/v1/pots"},
		{"clients", "/v1/clients?limit=5"},
		{"countries", "/v1/countries"},
		{"healthz", "/v1/healthz"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := get(t, srv, tc.path)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s = %d", tc.path, resp.StatusCode)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type = %q", ct)
			}
			golden := filepath.Join("testdata", tc.name+".golden.json")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, body, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run go test ./internal/query -update): %v", err)
			}
			if string(body) != string(want) {
				t.Fatalf("GET %s response changed\ngot:  %.300s\nwant: %.300s", tc.path, body, want)
			}
		})
	}
}

// TestETagRevalidation: a second request with If-None-Match must come
// back 304 with no body; a garbage validator must get the full body.
func TestETagRevalidation(t *testing.T) {
	srv := testServer(t)
	resp, body := get(t, srv, "/v1/summary")
	etag := resp.Header.Get("ETag")
	if etag == "" || len(body) == 0 {
		t.Fatalf("initial response: etag=%q bodyLen=%d", etag, len(body))
	}

	req, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/summary", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("If-None-Match", etag)
	resp2, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusNotModified || len(b2) != 0 {
		t.Fatalf("revalidation = %d with %d body bytes, want 304 empty", resp2.StatusCode, len(b2))
	}
	if got := resp2.Header.Get("ETag"); got != etag {
		t.Fatalf("304 ETag = %q, want %q", got, etag)
	}

	req.Header.Set("If-None-Match", `"stale"`)
	resp3, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b3, err := io.ReadAll(resp3.Body)
	resp3.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp3.StatusCode != http.StatusOK || string(b3) != string(body) {
		t.Fatalf("stale validator: status %d, body match %v", resp3.StatusCode, string(b3) == string(body))
	}
}

// TestETagRotatesWithSnapshot: sealing a new sequence must change the
// validator, so caches refresh.
func TestETagRotatesWithSnapshot(t *testing.T) {
	const numPots = 3
	d, err := honeyfarm.Simulate(honeyfarm.SimulateConfig{
		Seed: 2, TotalSessions: 40, Days: 4, NumPots: numPots,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := query.New(query.Config{Epoch: honeyfarm.DefaultEpoch, NumPots: numPots, Registry: d.Registry})
	recs := d.Store.Records()
	eng.Ingest(recs[:20])
	eng.Seal()
	srv := httptest.NewServer(query.NewServer(query.ServerConfig{Source: eng}).Handler())
	defer srv.Close()

	r1, _ := get(t, srv, "/v1/pots")
	eng.Ingest(recs[20:])
	eng.Seal()
	r2, _ := get(t, srv, "/v1/pots")
	if r1.Header.Get("ETag") == r2.Header.Get("ETag") {
		t.Fatalf("ETag %q did not rotate across a seal", r1.Header.Get("ETag"))
	}
}

// TestConcurrentReads hammers every endpoint from many goroutines while
// the engine keeps ingesting and sealing — the reader/writer isolation
// contract under -race.
func TestConcurrentReads(t *testing.T) {
	const numPots = 6
	d, err := honeyfarm.Simulate(honeyfarm.SimulateConfig{
		Seed: 13, TotalSessions: 400, Days: 8, NumPots: numPots,
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := d.Store.Records()
	eng := query.New(query.Config{Epoch: honeyfarm.DefaultEpoch, NumPots: numPots, Registry: d.Registry})
	srv := httptest.NewServer(query.NewServer(query.ServerConfig{Source: eng, MaxInflight: 4}).Handler())
	defer srv.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < len(recs); i += 25 {
			j := i + 25
			if j > len(recs) {
				j = len(recs)
			}
			eng.Ingest(recs[i:j])
			eng.Seal()
		}
	}()
	paths := []string{"/v1/summary", "/v1/pots", "/v1/clients", "/v1/countries", "/v1/healthz"}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				resp, _ := get(t, srv, paths[(g+i)%len(paths)])
				if resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s = %d", paths[(g+i)%len(paths)], resp.StatusCode)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestHealthzDegradedWAL pins the degraded-disk health contract: an
// in-process writer inside an outage flips /v1/healthz to
// "degraded:wal" (HTTP 503) with its count-and-drop accounting, and
// once the writer heals the status is "ok" again with the losses still
// counted.
func TestHealthzDegradedWAL(t *testing.T) {
	dir := t.TempDir()
	fsys, err := iofault.New(iofault.OS, iofault.Plan{})
	if err != nil {
		t.Fatal(err)
	}
	l, _, err := wal.Open(dir, wal.Options{
		Epoch: honeyfarm.DefaultEpoch, SyncEvery: 1, FS: fsys, ProbeEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := func(id uint64) []*honeypot.SessionRecord {
		start := honeyfarm.DefaultEpoch.Add(time.Hour)
		return []*honeypot.SessionRecord{{ID: id, Start: start, End: start}}
	}
	if err := l.Append(rec(1)); err != nil {
		t.Fatal(err)
	}
	// A barrier, so the disk breaks after record 1's group commit and
	// not under it: the outage below is the failed write's.
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	fsys.Break(syscall.EIO)
	if err := l.Append(rec(2)); err == nil {
		t.Fatal("append on a broken disk succeeded")
	}

	type walHealthz struct {
		Status  string `json:"status"`
		Dropped int    `json:"wal_dropped_records"`
		Reason  string `json:"wal_drop_reason"`
	}
	healthz := func(srv *httptest.Server) (*http.Response, walHealthz) {
		t.Helper()
		resp, body := get(t, srv, "/v1/healthz")
		var h walHealthz
		if err := json.Unmarshal(body, &h); err != nil {
			t.Fatalf("decoding healthz %q: %v", body, err)
		}
		return resp, h
	}

	// Writer side: the WALHealth hook sees the open outage.
	eng := query.New(query.Config{Epoch: honeyfarm.DefaultEpoch, NumPots: 1})
	srv := httptest.NewServer(query.NewServer(query.ServerConfig{Source: eng, WALHealth: l.Health}).Handler())
	defer srv.Close()
	resp, h := healthz(srv)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded healthz = %d, want 503", resp.StatusCode)
	}
	if h.Status != "degraded:wal" || h.Dropped != 1 || h.Reason == "" {
		t.Fatalf("degraded healthz = %+v, want degraded:wal with 1 dropped record", h)
	}

	// Heal: the next append probes (ProbeEvery: 1), recovers onto a
	// fresh segment, and records the outage as a gap frame.
	fsys.Heal()
	if err := l.Append(rec(3)); err != nil {
		t.Fatal(err)
	}
	resp, h = healthz(srv)
	if resp.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healed healthz = %d %+v, want 200 ok", resp.StatusCode, h)
	}
	if h.Dropped != 1 {
		t.Fatalf("healed healthz lost the drop accounting: %+v", h)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRequestValidation covers the 4xx paths: bad limit, bad method.
func TestRequestValidation(t *testing.T) {
	srv := testServer(t)
	resp, _ := get(t, srv, "/v1/clients?limit=bogus")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad limit = %d, want 400", resp.StatusCode)
	}
	post, err := srv.Client().Post(srv.URL+"/v1/summary", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST = %d, want 405", post.StatusCode)
	}
}
