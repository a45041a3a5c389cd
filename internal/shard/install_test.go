package shard_test

// The install path's ordering: a frame is published from the merged
// bundle first and reaches the shard's own bundle after, and a rebuild
// reads every shard bundle only once its catch-up has landed.

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"honeyfarm"
	"honeyfarm/internal/honeypot"
	"honeyfarm/internal/query"
	"honeyfarm/internal/shard"
)

// v1Bodies renders every /v1 table endpoint of src.
func v1Bodies(t *testing.T, src query.Source) map[string][]byte {
	t.Helper()
	h := query.NewServer(query.ServerConfig{Source: src}).Handler()
	out := map[string][]byte{}
	for _, ep := range []string{"summary", "pots", "clients", "countries"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/"+ep, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("/v1/%s: status %d", ep, rec.Code)
		}
		out[ep] = rec.Body.Bytes()
	}
	return out
}

// TestCoordinatorRebuildDuringCatchUp: shard 1 keeps answering deltas,
// each folded into its own bundle after the merged view is published,
// while shard 0 restarts again and again on a fresh engine that replays
// its records and a few more. Each restart answers a full frame past
// the installed seq, so the merged bundle is rebuilt from the shard
// bundles while shard 1's catch-up may be in flight; a rebuild that did
// not wait for it would drop shard 1's last delta from the merged view
// for good. At quiescence every /v1 body is byte-identical to one
// engine fed all the records.
func TestCoordinatorRebuildDuringCatchUp(t *testing.T) {
	const restarts, batch = 12, 10
	base := runtime.NumGoroutine()
	d := dataset(t, 1)
	recs := d.Store.Records()
	parts := [][]*honeypot.SessionRecord{partition(recs, 2, 0), partition(recs, 2, 1)}

	// Shard 0's listener outlives its engines: a restart swaps in the
	// handler of a fresh engine holding the first k records.
	var current atomic.Pointer[http.Handler]
	restart := func(k int) {
		eng := newEngine(d)
		eng.Ingest(parts[0][:k])
		h := shard.NewHandler(eng)
		current.Store(&h)
	}
	step := len(parts[0]) / (restarts + 1)
	restart(step)
	s0 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*current.Load()).ServeHTTP(w, r)
	}))
	eng1 := newEngine(d)
	preload := len(parts[1]) / 4
	eng1.Ingest(parts[1][:preload])
	s1 := httptest.NewServer(shard.NewHandler(eng1))
	client := &http.Client{Timeout: 5 * time.Second}
	coord := startCoordinator(t, []string{s0.URL, s1.URL}, client)
	installed := func(i int) uint64 { return coord.ShardStatuses()[i].LastSeq }
	waitFor(t, 10*time.Second, func() bool { return installed(0) == uint64(step) }, "first contact")

	stop, fed := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(fed)
		for off := preload; off < len(parts[1]); off += batch {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
			eng1.Ingest(parts[1][off:min(off+batch, len(parts[1]))])
		}
	}()
	for r := 2; r <= restarts+1; r++ {
		k := r * step
		if r == restarts+1 {
			k = len(parts[0])
		}
		// Restart once shard 1 has installed another delta, so the
		// rebuilds land among its catch-ups.
		for was := installed(1); installed(1) == was && installed(1) < uint64(len(parts[1])); {
			time.Sleep(100 * time.Microsecond)
		}
		restart(k)
		waitFor(t, 10*time.Second, func() bool { return installed(0) == uint64(k) }, "restarted shard 0 installed")
	}
	<-fed
	waitFor(t, 10*time.Second, func() bool { return coord.Snapshot().Seq == uint64(len(recs)) }, "quiescence")
	if got := coord.MergeRebuilds(); got < restarts {
		t.Errorf("%d rebuilds after %d restarts past the installed seq", got, restarts)
	}
	single := newEngine(d)
	single.Ingest(recs)
	single.Seal()
	want := v1Bodies(t, single)
	for ep, got := range v1Bodies(t, coord) {
		if !bytes.Equal(got, want[ep]) {
			t.Errorf("/v1/%s differs from single-node (%d vs %d bytes)", ep, len(got), len(want[ep]))
		}
	}
	close(stop)
	coord.Stop()
	s0.Close()
	s1.Close()
	client.CloseIdleConnections()
	waitGoroutines(t, base)
}

// BenchmarkInstallToPublish times one 250-record delta from install to
// the merged snapshot that covers it, on a coordinator holding two
// shard bundles of ≈137k records each: decode, merge and materialize —
// and, where they sit on that path, the shard bundle's own decode and
// merge. allocs/op counts what is allocated on the clock. The pullers
// point at nothing, so only the benchmark installs; the deltas are cut
// by a real shard handler, off the clock, from a pool re-ingested in
// turn.
func BenchmarkInstallToPublish(b *testing.B) {
	const perShard, delta, pool = 137_000, 250, 40 * 250
	d, err := honeyfarm.Simulate(honeyfarm.SimulateConfig{
		Seed: 3, TotalSessions: 2*perShard + pool + 5_000, NumPots: testPots,
	})
	if err != nil {
		b.Fatal(err)
	}
	recs := d.Store.Records()
	engines := []*query.Engine{newEngine(d), newEngine(d)}
	engines[0].Ingest(recs[:perShard])
	engines[1].Ingest(recs[perShard : 2*perShard])
	more := recs[2*perShard : 2*perShard+pool]
	handler := shard.NewHandler(engines[0])
	cut := func(since uint64) []byte {
		url := shard.PartialsPath
		if since > 0 {
			url += "?since=" + strconv.FormatUint(since, 10)
		}
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		return rec.Body.Bytes()
	}
	coord, err := shard.New(shard.Config{
		Shards:    []string{"http://127.0.0.1:1", "http://127.0.0.1:1"},
		NumPots:   testPots,
		Countries: true,
		Epoch:     honeyfarm.DefaultEpoch,
		PullEvery: time.Hour,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer coord.Stop()
	for i, frame := range [][]byte{cut(0), shard.EncodePartialsFrame(engines[1])} {
		if err := coord.Install(i, frame); err != nil {
			b.Fatal(err)
		}
	}
	covered := func(seq uint64) {
		for coord.Snapshot().Seq < seq {
			runtime.Gosched()
		}
	}
	covered(2 * perShard)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		off := n * delta % pool
		since := engines[0].Seq()
		engines[0].Ingest(more[off : off+delta])
		frame := cut(since)
		want := engines[0].Seq() + perShard
		done := make(chan error, 1)
		b.StartTimer()
		go func() { done <- coord.Install(0, frame) }()
		covered(want)
		b.StopTimer()
		if err := <-done; err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/op")
}
